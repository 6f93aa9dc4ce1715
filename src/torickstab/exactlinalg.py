"""Small exact linear algebra over Fraction, sized for r <= 4 polytope work."""

from fractions import Fraction
from math import gcd


def frac(x) -> Fraction:
    """Coerce ints, Fractions, floats and 'p/q' strings to Fraction (floats exactly)."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _integer(x, name) -> int:
    """int(x); ValueError naming `name` unless x equals that integer."""
    n = int(x)
    if n != x:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return n


def det(rows) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination."""
    a = [[frac(x) for x in row] for row in rows]
    n = len(a)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        result *= p
        for i in range(col + 1, n):
            f = a[i][col] / p
            if f == 0:
                continue
            for j in range(col, n):
                a[i][j] -= f * a[col][j]
    return sign * result


def solve(rows, rhs):
    """Solve A x = b exactly; returns list of Fractions or None when A is singular."""
    n = len(rows)
    a = [[frac(x) for x in row] + [frac(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        for i in range(n):
            if i == col:
                continue
            f = a[i][col] / p
            if f == 0:
                continue
            for j in range(col, n + 1):
                a[i][j] -= f * a[col][j]
    return [a[i][n] / a[i][i] for i in range(n)]


def rank(rows) -> int:
    a = [[frac(x) for x in row] for row in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][col]
        for i in range(m):
            if i == r:
                continue
            f = a[i][col] / p
            for j in range(col, n):
                a[i][j] -= f * a[r][j]
        r += 1
        if r == m:
            break
    return r


def _xgcd(a: int, b: int):
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = gcd(*(int(x) for x in vec))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(int(x) // g for x in vec)


def unimodular_completion(u):
    """Unimodular integer matrix V (as columns) with u^T V = (1, 0, ..., 0).

    Requires u primitive. Column 0 satisfies <u, V[:,0]> = 1; columns 1..r-1
    form a lattice basis of the hyperplane u-perp intersected with Z^r.
    """
    u = [int(x) for x in u]
    r = len(u)
    cols = [[1 if i == j else 0 for i in range(r)] for j in range(r)]  # cols[j] = j-th column
    g = list(u)  # g[j] = <u, cols[j]>
    for j in range(1, r):
        a, b = g[0], g[j]
        if b == 0:
            continue
        d, s, t = _xgcd(a, b)
        c0 = [s * cols[0][i] + t * cols[j][i] for i in range(r)]
        cj = [(-b // d) * cols[0][i] + (a // d) * cols[j][i] for i in range(r)]
        cols[0], cols[j] = c0, cj
        g[0], g[j] = d, 0
    if g[0] == -1:
        cols[0] = [-x for x in cols[0]]
        g[0] = 1
    if g[0] != 1:
        raise ValueError("input vector is not primitive")
    # return as row-major matrix V with V[i][j] = cols[j][i]
    return [[cols[j][i] for j in range(r)] for i in range(r)]
