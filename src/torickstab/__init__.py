"""Weighted K-stability obstructions on toric data.

Exact Delzant polytope geometry, adaptive and closed-form integration,
weighted Futaki invariants, soliton and Reeb solvers, and Fano fibration
enumeration.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateSimplex,
    IllConditioned,
    MaxDepthExceeded,
    MaxIterations,
    NonFiniteIntegral,
    NotAdmissible,
    NotCanonicalFano,
    NotDelzant,
    NotFullDimensional,
    NotPositive,
    NotPositiveDefinite,
    OriginNotInterior,
    SingularOnDomain,
    TooCloseToBoundary,
    TorickstabError,
    Unbounded,
)
from .fibration import (
    BaseFactor,
    FibrationSpec,
    FibrationWeights,
    base_curvature_weight,
    enumerate_fano,
    extremal_fibration_weights,
    fano_check,
    fibration_weight,
    pv_soliton_pipeline,
    soliton_fibration_weights,
)
from .fibration import validate as validate_fibration
from .invariants import (
    ExtremalFunction,
    FutakiReport,
    barycenter,
    extremal_affine,
    futaki_boundary,
    futaki_fano,
)
from .polynomial import Polynomial
from .polytope import (
    AffineFunction,
    DelzantPolytope,
    HalfSpace,
    Simplex,
)
from .quadrature import (
    QuadratureResult,
    exp_affine_simplex_exact,
    integrate_boundary,
    integrate_monomial_simplex,
    integrate_poly,
    integrate_weighted,
)
from .solvers import SolverResult, msy_reeb, tian_zhu_soliton
from .toricmetrics import (
    GridSpec,
    SymplecticPotential,
    futaki_numeric,
    hess_inv,
    scal,
    scal_v_direct,
    scal_v_divergence,
    scaled_bump,
)
from .weights import (
    Positivity,
    WeightFn,
    WeightSum,
    as_weight,
    equivalent_sasaki_pair,
    sasaki_weight_pair,
    soliton_weight_pair,
)
