"""Exception hierarchy shared across the library."""


class TorickstabError(Exception):
    """Base class for all library errors."""


class Unbounded(TorickstabError):
    """Half-space intersection has a nontrivial recession cone."""


class NotFullDimensional(TorickstabError):
    """Half-space intersection is empty or lower-dimensional."""


class NotDelzant(TorickstabError):
    """A vertex violates the Delzant (unimodularity/simplicity) condition."""

    def __init__(self, message, vertex=None, determinant=None):
        super().__init__(message)
        self.vertex = vertex
        self.determinant = determinant


class NotCanonicalFano(TorickstabError):
    """Polytope is not in the canonical Fano presentation (some offset != 1)."""


class DegenerateSimplex(TorickstabError):
    """Simplex has zero volume."""


class SingularOnDomain(TorickstabError):
    """An affine factor with negative exponent vanishes on the closed polytope."""


class CarriesResult(TorickstabError):
    """A failure that carries the partial result as `result`."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class MaxDepthExceeded(CarriesResult):
    """Adaptive quadrature hit its bisection depth cap (`MAX_DEPTH`) or its cap on
    the simplices one refinement may hold (`MAX_SIMPLICES`).

    Carries the best value and an honest error estimate.
    """


class NonFiniteIntegral(CarriesResult):
    """An integral's value or error estimate is not finite; carries the result."""


class NotPositive(TorickstabError):
    """A weight required to be positive on the polytope is not (or cannot be certified)."""


class IllConditioned(TorickstabError):
    """Gram system condition number above threshold."""


class OriginNotInterior(TorickstabError):
    """Properness precondition 0 in int(polytope) fails."""


class MaxIterations(CarriesResult):
    """Solver failed to converge within the iteration budget."""


class NotAdmissible(TorickstabError):
    """A fibration factor's affine function is not strictly positive on the fiber polytope."""

    def __init__(self, message, factor_index=None, vertex=None):
        super().__init__(message)
        self.factor_index = factor_index
        self.vertex = vertex


class NotPositiveDefinite(TorickstabError):
    """Symplectic potential Hessian is not positive definite at an evaluation point."""


class TooCloseToBoundary(TorickstabError):
    """Metric evaluation requested too close to the polytope boundary."""
