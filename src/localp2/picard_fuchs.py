"""Solution triple of the one-modulus hypergeometric system.

Near y = 0 the three solutions are read off a single series with values in
C[rho]/rho^3 (rho nilpotent): expanding

    sum_n  y^(n+rho) / ( Gamma(1+n+rho)^3 * Gamma(1-3(n+rho)) )

through second order in rho yields (w_0, w_1, w_2) = (1, log solution, double
log solution).  The n = 0 term is written out; every later term, here and
in the printed closed series, comes from one coefficient recurrence and its
harmonic gap (``_series_terms``), which the two routes assemble differently.
Mellin-Barnes contour integrals give the same numbers independently and also
provide the continuation to y = infinity.  An annihilating operator in
theta = y d/dy,

    L = theta^3 + 3y(3theta+1)(3theta+2)theta,

is, with x = -27y and f = theta w, the Gauss equation of
2F1(1/3, 2/3; 1; x); re-centred Taylor steps of it (``_taylor``) carry the
solution frame around y = 0 for the monodromy, and across the annulus
around |y| = 1/27, between the disc of the series at 0 and the region
|y| > 1/27 of the inverse series at infinity, with a bound of their error.
``_taylor`` and ``fractions`` (for the exact ``series_coefficient``) are
imported by the functions that use them, so a run that neither transports
nor asks for an exact coefficient, as ``reproduce`` does not, loads neither.

Branch conventions: principal logarithms everywhere; log(-y) means
log(y) - i*pi.  With that choice the double-log series matches the rho
expansion coefficient-for-coefficient, and its constant at infinity
continues to exactly 1/3.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .errors import ConvergenceError, DomainError, MonodromyError
from .mirror_geometry import _inv_cbrt, _ln_abs

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "SolutionTriple",
    "chf_expand",
    "series_w1",
    "series_w2",
    "mellin_barnes",
    "w_at_infinity",
    "annihilation_residual",
    "monodromy_around_origin",
    "continue_solutions",
    "series_coefficient",
    "series_order",
    "series_solutions",
]

_TWO_PI_I = 2j * math.pi
_SERIES_RADIUS = 1.0 / 27.0
# cap of ``series_order``: 2000 terms of ``chf_expand`` are a few array
# passes of that length
_SERIES_MAX_TERMS = 2000
# the margins of ``continue_solutions``: its default route sums the direct
# series on |y| <= 0.02 (27|y| <= 0.54), the inverse series on the circle's
# reflection |y| >= 1/(729 * 0.02) (27|y| >= 1/0.54), and transports across
# the annulus between
_LN_INNER = math.log(0.02)
_LN_OUTER = -math.log(729.0 * 0.02)


# The n-only arrays of ``_series_terms`` for m = 1.._SERIES_MAX_TERMS: the
# coefficient ratios C_m / C_(m-1) and the harmonic gaps H_(3m-1) - H_m.
_M = np.arange(1.0, _SERIES_MAX_TERMS + 1.0)
_RATIO = (3.0 * _M - 1.0) * (3.0 * _M - 2.0) * (3.0 * _M - 3.0) / _M ** 3
_GAP = 1.0 / (3.0 * _M - 2.0) + 1.0 / (3.0 * _M - 1.0) - 1.0 / _M
_GAP[1:] += 1.0 / (3.0 * _M[1:] - 3.0)
_GAP = np.cumsum(_GAP)
# The weights of the power sums of ``_series_rows``: columns m^k and
# m^k (H_(3m-1) - H_m), k = 0..3; complex, so that their product with
# complex terms needs no cast.
_MOMENTS = np.stack([_M ** k * w for k in range(4) for w in (1.0, _GAP)], axis=1).astype(complex)
# m^2, the weights of the rounding bound of ``_start_frame``
_SQUARES = _M ** 2


def _inverse_exponents(n: int) -> np.ndarray:
    """The exponents -(m + a) of y in the terms m = 0..n-1 of
    ``w_at_infinity``, one row per branch a = 1/3, 2/3."""
    return -(np.arange(float(n)) + [[1.0 / 3.0], [2.0 / 3.0]])


# Gamma(1/3)^3 and Gamma(2/3)^3, 2.6e-16 and 8.4e-17 relative off 30-digit
# values, in the n = 0 terms of ``w_at_infinity``.
_G13_CUBED = math.gamma(1.0 / 3.0) ** 3
_G23_CUBED = math.gamma(2.0 / 3.0) ** 3
# The term ratios of ``w_at_infinity`` for n = 0.._SERIES_MAX_TERMS - 1:
# y t_n^a / t_(n-1)^a, entry 0 the term t_0^a itself.
_INV_LEAD = np.array([_G13_CUBED, _G23_CUBED / 2.0])
_E = _inverse_exponents(_SERIES_MAX_TERMS - 1)
_INV_RATIO = np.hstack([_INV_LEAD[:, None],
                        _E * _E * _E / ((1.0 - 3.0 * _E) * (2.0 - 3.0 * _E) * (3.0 - 3.0 * _E))])

# The nodes t_k = _MB_STEP k of ``mellin_barnes``.
_MB_STEP = 0.08


def _mb_factors(n: int, weighted: bool = True) -> tuple:
    """The y-independent factors of the contour integrand at t_0..t_(n-1):
    the log factor and, if ``weighted``, the digamma weight (else None)."""
    t = _MB_STEP * np.arange(n)
    s = -0.5 + 1j * t
    lg = (_kernels.lgamma_array(-3.0 * s) - 3.0 * _kernels.lgamma_array(1.0 - s)
          - math.pi * t - np.log1p(np.exp(-2.0 * math.pi * t)) + math.log(2.0))
    return lg, (_kernels.digamma_array(-3.0 * s) - _kernels.digamma_array(1.0 - s)
                if weighted else None)


def _mb_reflect(f: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """A factor given on t_0..t_K, K >= lo, hi, on the nodes t_k,
    k = -lo..hi: conjugated onto t_(-k) = -t_k."""
    return np.concatenate([f[lo:0:-1].conjugate(), f[:hi + 1]])


def _mb_sides(ln_y: complex) -> tuple:
    """The node counts K_- and K_+ past t = 0 of ``mellin_barnes``'s contour
    at log y: each side is cut where its envelope e^(-pi|t| + t arg y) has
    fallen by e^(-42), the side with t arg y > 0 at the slower decay
    pi - |arg y|, the other at pi + |arg y|."""
    arg = ln_y.imag
    slow = math.ceil(42.0 / (math.pi - abs(arg)) / _MB_STEP)
    fast = math.ceil(42.0 / (math.pi + abs(arg)) / _MB_STEP)
    return (fast, slow) if arg > 0 else (slow, fast)


def _mb_coefficients(n: int) -> tuple:
    """The coefficients A_k = e^(log factor) and A_k psi_k (digamma weight)
    of z^k on k = -K..K, K = n - 1."""
    lg, psi = _mb_factors(n)
    plain = np.exp(lg)
    return _mb_reflect(plain, n - 1, n - 1), _mb_reflect(plain * psi, n - 1, n - 1)


# The nodes t_0..t_(_MB_HALF - 1) that every modulus with pi - |arg y| >= 0.25
# needs, and the coefficients on the whole contour through them.
_MB_HALF = math.ceil(42.0 / 0.25 / _MB_STEP) + 1
_MB_PLAIN, _MB_DIGAMMA = _mb_coefficients(_MB_HALF)
# z^k = (z^32)^j z^i, k = 32 j + i, i = -16..15: the exponents 32 j and i
# of z over the whole table; complex, so that their product with log z
# needs no cast
_MB_BLOCK = 32
_MB_J = (_MB_HALF - 1 + _MB_BLOCK // 2) // _MB_BLOCK
_MB_OUTER = _MB_BLOCK * np.arange(-_MB_J, _MB_J + 1.0, dtype=complex)
_MB_INNER = np.arange(-(_MB_BLOCK // 2), _MB_BLOCK // 2, dtype=complex)
for _table in (_RATIO, _GAP, _MOMENTS, _SQUARES, _INV_RATIO, _MB_PLAIN, _MB_DIGAMMA,
               _MB_OUTER, _MB_INNER):
    _table.setflags(write=False)
del _M, _E, _table


class SolutionTriple(namedtuple("SolutionTriple", "w0 w1 w2 y err_estimate")):
    """The solution triple at y, with the bound of its error; every route
    builds it from Python scalars, which reports write as they are.

    w0, w1, w2    complex: the solutions
    y             complex: the modulus
    err_estimate  float: the bound of their error
    """

    __slots__ = ()

    def as_vector(self) -> np.ndarray:
        return np.array([self.w0, self.w1, self.w2], dtype=complex)


def series_coefficient(m: int) -> Fraction:
    """m-th Taylor coefficient (3m-1)! / (m!)^3 of the regular series part.

    Not integral in general (m = 3 gives 1680/9), hence the exact rational.
    """
    from fractions import Fraction

    if m < 1:
        raise DomainError("coefficient index starts at 1")
    return Fraction(math.factorial(3 * m - 1), math.factorial(m) ** 3)


def _finite_modulus(y) -> complex:
    y = complex(y)
    if not cmath.isfinite(y):
        raise DomainError(f"modulus must be finite, got {y}")
    return y


def _check_series_domain(y: complex) -> complex:
    y = _finite_modulus(y)
    if y == 0:
        raise DomainError("series solutions need y != 0 (logarithms)")
    if abs(y) >= _SERIES_RADIUS:
        raise DomainError(f"|y| = {abs(y):g} is outside the series disc |y| < 1/27")
    return y


def _check_term_count(n) -> None:
    """DomainError unless the term count n of ``_series_terms`` or
    ``_inverse_terms`` is an integer, numpy's included, from 1 to
    ``_SERIES_MAX_TERMS``."""
    try:
        if 1 <= operator.index(n) <= _SERIES_MAX_TERMS:
            return
    except TypeError:
        pass
    raise DomainError(f"series terms must number 1 to {_SERIES_MAX_TERMS}, got {n}")


def _series_terms(y, n: int, lead: float) -> tuple[np.ndarray, np.ndarray]:
    """The arrays (t_m, H_{3m-1} - H_m) for m = 1..n, where
    t_m = (lead/2) C_m (-y)^m.

    C_m = (3m-1)!/(m!)^3 follows C_m / C_{m-1} = (3m-1)(3m-2)(3m-3)/m^3 from
    C_1 = 2, so t is one cumulative product of lead (-y) and the ratios times
    (-y).  C_m and y^m are never formed apart: C_m overflows past m ~ 215,
    while inside the disc |t_m| stays below lead (27|y|)^m.  The harmonic
    gap H_{3m-1} - H_m = psi(3m) - psi(m+1) is a cumulative sum of its
    increments.  Both n-only arrays are slices of tables built once, up to
    ``_SERIES_MAX_TERMS``.  A float y keeps the terms real.
    """
    _check_term_count(n)
    ratio = _RATIO[:n] * (-y)
    ratio[0] = lead * (-y)
    return np.cumprod(ratio), _GAP[:n]


def chf_expand(y: complex, n_max: int = 80) -> SolutionTriple:
    """Sum the rho-valued series and read off the solution triple.

    The n = 0 term y^rho * (1 - pi^2 rho^2) = 1 + log y * rho
    + (log^2 y / 2 - pi^2) * rho^2 is written out.  For n >= 1 the reciprocal
    Gamma at negative argument is rewritten by reflection, leaving

        3 * C_n * (-y)^n * rho * (1 + rho*(log y + 3 psi(3n) - 3 psi(n+1)))

    with C_n = (3n-1)!/(n!)^3, so every n >= 1 term starts at order rho.
    Components are extracted against the charge classes: with J = 2 pi i rho
    the three probes are 1, J + J^2/2, J^2.
    """
    y = _check_series_domain(y)
    ln_y = cmath.log(y)
    t, dpsi = _series_terms(y, n_max, 6.0)                # t_n = 3 C_n (-y)^n
    s_plain, s_psi = complex(t.sum()), complex(t @ dpsi)
    c1 = ln_y + s_plain
    c2 = -math.pi ** 2 + ln_y * ln_y / 2.0 + ln_y * s_plain + 3.0 * s_psi
    # geometric tail bound past the truncation point
    q = 27.0 * abs(y)
    err = float(abs(t[-1])) * q / (1.0 - q) if q < 1.0 else math.inf

    w1 = c1 / _TWO_PI_I
    w2 = -c2 / (4.0 * math.pi ** 2) - c1 / (4j * math.pi)
    return SolutionTriple(1.0 + 0j, w1, w2, y, err)


def series_order(y: complex, err_80: float, err_target: float) -> int:
    """Truncation order at which ``chf_expand(y, ...)`` meets err_target,
    given err_80, its err_estimate at the default 80 terms.

    Each term is less than q = 27|y| times the one before, and so is the
    tail bound err_estimate, so 80 + ceil(log(err_target / err_80) / log q)
    terms meet the target.  Returns 80 when err_80 already does, and at most
    2000 (``_SERIES_MAX_TERMS``): close to the rim of the disc a row can
    need more, and its estimate stays above the target.
    """
    y = _check_series_domain(y)
    if not err_target > 0:
        raise DomainError(f"error target must be positive, got {err_target}")
    if not 0 <= err_80 < math.inf:
        raise DomainError(f"err_80 must be finite and >= 0, got {err_80}")
    if err_80 <= err_target:
        return 80
    extra = math.ceil(math.log(err_target / err_80) / math.log(27.0 * abs(y)))
    return min(_SERIES_MAX_TERMS, 80 + extra)


def _nearer_series(y: complex, err_target: float, ln_inner: float) -> SolutionTriple | None:
    """The exact series that answers at y, or None: from the outer margin
    log|y| >= ``_LN_OUTER`` on, ``w_at_infinity`` to the rounding level; for
    log|y| <= ln_inner, ``chf_expand`` at its default 80 terms, or at the
    ``series_order`` that meets err_target when those fall short."""
    ln_abs = _ln_abs(y)
    if ln_abs >= _LN_OUTER:
        return w_at_infinity(y)
    if ln_abs > ln_inner:
        return None
    t = chf_expand(y)
    if t.err_estimate <= err_target:
        return t
    return chf_expand(y, series_order(y, t.err_estimate, err_target))


def series_solutions(y: complex, err_target: float) -> SolutionTriple:
    """The exact series at y, the direct one summed to err_target inside the
    disc |y| < 1/27, the inverse one from the outer margin
    |y| = 1/(729 * 0.02) of ``continue_solutions`` on; a DomainError
    between."""
    t = _nearer_series(_finite_modulus(y), err_target, math.log(_SERIES_RADIUS))
    if t is None:
        raise DomainError(f"|y| = {abs(y):g} lies between the series disc |y| < 1/27 and "
                          f"the large-|y| series' margin |y| >= {math.exp(_LN_OUTER):.4g}; "
                          "use continue")
    return t


def series_w1(y: complex, n_terms: int = 80) -> complex:
    """Single-log solution: (1/2 pi i) [ log y + 3 sum C_m (-y)^m ]."""
    y = _check_series_domain(y)
    return _series_rows(y, _series_terms(y, n_terms, 2.0)[0], 1)[1][0]


def series_w2(y: complex, n_terms: int = 80) -> complex:
    """Double-log solution, summed exactly as printed:

        -(1/8 pi^2) log(-y)^2 + 1/8 - (3/4 pi^2) log(-y) * sum C_m (-y)^m
        - (9/4 pi^2) * sum C_m [psi(3m) - psi(m+1)] (-y)^m

    with log(-y) = log(y) - i pi.
    """
    y = _check_series_domain(y)
    return _series_rows(y, _series_terms(y, n_terms, 2.0)[0], 1)[2][0]


def _printed_rows(ln_y: complex, s, d) -> list[list[complex]]:
    """Rows w_0, w_1, w_2 of (theta^k w), k < len(s) <= 4, of the printed
    solutions of ``series_w1`` and ``series_w2``, given the power sums
    S_k = sum m^k t_m and D_k = sum m^k t_m (H_{3m-1} - H_m) of the terms
    t_m = C_m (-y)^m (from ``_series_rows``, or S_0 and D_0 from
    ``mellin_barnes``).  theta y^m = m y^m and theta log y =
    theta log(-y) = 1, so theta^k (log(-y) S) = log(-y) S_k + k S_(k-1).
    """
    ln_my = ln_y - 1j * math.pi
    pi2 = 4.0 * math.pi ** 2
    rows = [[1.0 + 0j], [(ln_y + 3.0 * s[0]) / _TWO_PI_I],
            [0.125 - (ln_my * ln_my / 2.0 + 3.0 * (ln_my * s[0] + 3.0 * d[0])) / pi2]]
    for k in range(1, len(s)):
        rows[0].append(0j)
        rows[1].append(((1.0, 0.0, 0.0)[k - 1] + 3.0 * s[k]) / _TWO_PI_I)
        rows[2].append(-((ln_my, 1.0, 0.0)[k - 1]
                         + 3.0 * (ln_my * s[k] + k * s[k - 1] + 3.0 * d[k])) / pi2)
    return rows


def _series_rows(y: complex, t: np.ndarray, order: int) -> list[list[complex]]:
    """``_printed_rows`` at y from the sums S_k, D_k, k < order, over the
    terms t of ``_series_terms`` (lead 2): one product with ``_MOMENTS``."""
    sd = (t @ _MOMENTS[:len(t), :2 * order]).tolist()
    return _printed_rows(cmath.log(y), sd[::2], sd[1::2])


def _series_frame(y0: complex, t: np.ndarray, order: int = 3) -> np.ndarray:
    """3 x order matrix of the rows (w_i, theta w_i, ..., theta^(order-1) w_i)
    at y0 from the printed series over the terms t of ``_series_terms``
    (lead 2)."""
    return np.array(_series_rows(y0, t, order), dtype=complex)


def mellin_barnes(y: complex, which: str = "plain") -> complex:
    """Contour-integral value of the regular series part.

    Integrates Gamma(-3s)Gamma(s)/Gamma(1-s)^2 * y^(-s) (optionally weighted
    by psi(-3s) - psi(1-s)) along s = -1/2 + it.  For |y| < 1/27 this equals
    sum C_m (-y)^m (resp. the digamma-weighted sum).  The integrand's
    envelope is exp(-pi|t| + t arg y), so each half of the contour is cut
    at its own decay, where the envelope reaches e^-42 (about 1e-18) of its
    value at t = 0: the half where t arg y > 0 at t = 42/(pi - |arg y|), the
    other at t = 42/(pi + |arg y|) (``_mb_sides``).  The sum runs over the
    nodes t_k = 0.08 k, k = -K_-..K_+, K = ceil(t/0.08) on each side.

    By reflection Gamma(s) = pi / (sin(pi s) Gamma(1-s)), and on this line
    sin(pi s) = -cosh(pi t), so the node value is -pi e^(x) with

        x = log Gamma(-3s) - log cosh(pi t) - 3 log Gamma(1-s) + (1/2 - it) log y,

    log cosh(pi t) = pi t + log1p(exp(-2 pi t)) - log 2 for t >= 0: two
    ``lgamma_array`` calls, both at Re = 3/2, on the nodes t >= 0 only,
    since at t_(-k) every argument is the conjugate of its value at t_k
    (``_mb_reflect``).  Everything but the last term of x, and the digamma
    weight, is independent of y, so the sum is y^(1/2) sum_k A_k z^k with
    z = y^(-0.08i) and A_k = e^(log factor) (times the weight for the
    digamma variant).  Both coefficient tables are built at import on the
    whole contour t_(-2100)..t_2100 that every modulus with
    pi - |arg y| >= 0.25 needs; such a call makes no kernel call and forms
    no node by an exp of its own: z^k = (z^32)^j z^i, k = 32 j + i,
    i = -16..15, is one product of two short tables of exps, with the
    blocks centred on k = 0, so that the rounding of z^k grows with |k|
    only where the integrand has decayed, and the sum is one dot product
    with a slice of the table.  Closer to the cut, A_k underflows where
    |z|^k = e^(0.08 k arg y) overflows, so such a call forms each node as
    one exp of x, with t arg y inside the exponent, on its own grid with
    the same per-side cut; no factor then leaves the double range before
    the product is formed.  The checks read the plain integrand's modulus
    pi |y|^(1/2) |A_k| |z|^k = pi e^(Re x) (the digamma weight adds a factor
    that grows only like log t): its decay at the two ends against its
    value at t = 0, and the sum, which a non-finite node leaves non-finite.

    Working range: pi - |arg y| > 0.05 at every finite |y|; closer to the
    negative real axis the call raises ConvergenceError, and so does an end
    of the contour where pi e^(Re x) has not decayed to 1e-12 of its value
    at t = 0, or a non-finite node value.
    """
    if not (isinstance(which, str) and which in {"plain", "digamma"}):
        raise DomainError(f"unknown variant {which!r}")
    y = _finite_modulus(y)
    if y == 0 or (y.real <= 0 and y.imag == 0):
        raise DomainError("contour representation needs y off (-inf, 0]")
    ln_y = cmath.log(y)
    if math.pi - abs(ln_y.imag) <= 0.05:
        raise ConvergenceError("arg y too close to pi for the truncated contour")
    lo, hi = _mb_sides(ln_y)                                        # k = -lo..hi
    if max(lo, hi) < _MB_HALF:
        # z^k = (z^32)^j z^i, z = y^(-0.08i), on the blocks j that hold k
        log_z = -1j * _MB_STEP * ln_y
        j_lo, j_hi = (_MB_BLOCK // 2 - lo) // _MB_BLOCK, (_MB_BLOCK // 2 + hi) // _MB_BLOCK
        outer = np.exp(log_z * _MB_OUTER[_MB_J + j_lo:_MB_J + j_hi + 1])
        powers = (outer[:, None] * np.exp(log_z * _MB_INNER)).ravel()
        first = _MB_BLOCK // 2 - _MB_BLOCK * j_lo - lo               # k = -lo
        table = _MB_PLAIN if which == "plain" else _MB_DIGAMMA
        c = _MB_HALF - 1                                             # k = 0
        total = np.dot(table[c - lo:c + hi + 1], powers[first:first + lo + hi + 1])
        total *= -math.pi * cmath.sqrt(y)
        # the log of the plain envelope |A_k| |z|^k at t = 0 and at the ends
        slope = _MB_STEP * ln_y.imag
        top = math.log(abs(_MB_PLAIN[c]))
        ends = max(math.log(abs(_MB_PLAIN[c - lo])) - slope * lo,
                   math.log(abs(_MB_PLAIN[c + hi])) + slope * hi)
    else:
        lg, wgt = _mb_factors(max(lo, hi) + 1, which == "digamma")
        x = _mb_reflect(lg, lo, hi)
        x += (0.5 - 1j * _MB_STEP * np.arange(-lo, hi + 1.0)) * ln_y
        # the log of the envelope pi e^(Re x) at t = 0 and at the ends
        top, ends = x[lo].real, max(x[0].real, x[-1].real)
        vals = np.exp(x, out=x)
        if which == "digamma":
            np.multiply(vals, _mb_reflect(wgt, lo, hi), out=vals)
        total = -math.pi * np.sum(vals)
    if not cmath.isfinite(total):
        raise ConvergenceError("contour integrand left the double range")
    # the truncation must sit deep in the decayed region
    if ends > top + math.log(1e-12):
        raise ConvergenceError("contour truncation reached before integrand decay")
    return complex(total * _MB_STEP / (2.0 * math.pi))


def _inverse_terms(y: complex, n: int) -> np.ndarray:
    """The 2 x n array t_m^a, m = 0..n-1, of ``w_at_infinity``: one cumulative
    product along each row of the ratios over y, from the n = 0 terms."""
    _check_term_count(n)
    ratio = _INV_RATIO[:, :n] * (1.0 / y)
    ratio[:, 0] = _INV_LEAD
    return np.cumprod(ratio, axis=1)


def _inverse_rows(u: complex, m13, m23) -> list[list[complex]]:
    """Rows w_0, w_1, w_2 of the large-|y| combination of u S_1/3 and
    u^2 S_2/3, entry by entry over the paired sums m13, m23 (S_a, or S_a and
    its theta-derivatives)."""
    r3 = math.sqrt(3.0)
    x = [(u * a / (4.0 * math.pi ** 2), u * u * b / (4.0 * math.pi ** 2))
         for a, b in zip(m13, m23)]
    rows = [[1.0 + 0j] + [0j] * (len(x) - 1),
            [3.0 / _TWO_PI_I * (x23 - x13) for x13, x23 in x],
            [r3 / (4.0 * math.pi) * ((-1.0 + 1j * r3) * x23 - (1.0 + 1j * r3) * x13)
             for x13, x23 in x]]
    rows[2][0] += 1.0 / 3.0
    return rows


def w_at_infinity(y: complex, n_terms: int | None = None) -> SolutionTriple:
    """Large-|y| solution triple from the two Gamma-cubed inverse series.

    With u = y^(-1/3) (principal branch, ``mirror_geometry._inv_cbrt``),

        S_a = sum_n t_n^a,  t_n^a = Gamma(n+a)^3 (-1)^n / (3n+3a)! / y^n,

    a = 1/3, 2/3, enter as  w_1 = (3/2 pi i)(-u/4pi^2 * S_1/3 + u^2/4pi^2 * S_2/3)
    and w_2 = 1/3 + (sqrt3/4pi)(-(1+i sqrt3) u/4pi^2 * S_1/3
                                 + (-1+i sqrt3) u^2/4pi^2 * S_2/3).
    Each S_a is one cumulative product of tabled ratios over y.  They
    converge on |y| > 1/27: |t_(n+1)^a| < q |t_n^a|, q = 1/(27|y|), so the
    tails past the last term t_(N-1) are below |t_(N-1)^a| q / (1 - q).
    err_estimate bounds the error of w_1 and of w_2: that tail bound
    weighted by |u|^(3a) / 4 pi^2, plus 2^-48 (1/3 + E_0 / (1 - q)) for the
    rounding, E_0 the weighted n = 0 terms.  The rounding term, which also
    covers the 2.6e-16 relative error of Gamma(1/3)^3 from math.gamma, is
    21 times the largest error left past the tail bound against 30-digit
    mpmath sums, at 3000 seeded moduli from 27|y| = 1/0.54 to |y| = 1e300.

    ``n_terms`` fixes the order (1 to 2000).  Left out, the order is the
    least at which the a-priori tail bound E_0 q^N / (1 - q) falls to the
    rounding level 2^-53 E_0: one term from |y| = 1e17 on, 12 at |y| = 1,
    61 at 27|y| = 1/0.54, and close to |y| = 1/27 at most 2000, where the
    estimate stays above that level.  |y| is read from log y and u from the
    scaled root, so no |y| up to the largest double overflows.
    """
    y = _finite_modulus(y)
    ln_27y = _ln_abs(y) + math.log(27.0)
    if not ln_27y > 0.0:
        raise DomainError(f"|y| = {abs(y):g} is outside the large-|y| region |y| > 1/27")
    u = _inv_cbrt(y)
    weight = (abs(u) / (4.0 * math.pi ** 2), abs(u) ** 2 / (4.0 * math.pi ** 2))
    e0 = _INV_LEAD[0] * weight[0] + _INV_LEAD[1] * weight[1]
    one_minus_q = -math.expm1(-ln_27y)
    if n_terms is None:
        n_terms = math.ceil(math.log(2.0 ** -53 * one_minus_q) / -ln_27y)
        n_terms = max(1, min(_SERIES_MAX_TERMS, n_terms))
    t = _inverse_terms(y, n_terms)
    err = ((abs(t[0, -1]) * weight[0] + abs(t[1, -1]) * weight[1])
           * math.exp(-ln_27y) / one_minus_q + 2.0 ** -48 * (1.0 / 3.0 + e0 / one_minus_q))
    (w0,), (w1,), (w2,) = _inverse_rows(u, *t.sum(axis=1, keepdims=True).tolist())
    return SolutionTriple(w0, w1, w2, y, float(err))


def _inverse_frame(y0: complex, t: np.ndarray, order: int = 3) -> np.ndarray:
    """3 x order matrix of the rows (w_i, theta w_i, ..., theta^(order-1) w_i)
    at y0 from the sums of ``w_at_infinity`` over the terms t of
    ``_inverse_terms``: theta multiplies its term u^(3a) t_n^a, a multiple
    of y^-(n+a), by -(n + a)."""
    e = _inverse_exponents(t.shape[1])[:, None]
    m = (t[:, None] * e ** np.arange(float(order))[:, None]).sum(axis=2).tolist()  # m[a][k]
    return np.array(_inverse_rows(_inv_cbrt(y0), *m), dtype=complex)


def annihilation_residual(y_samples, n_terms: int = 40) -> float:
    """Apply L = theta^3 + 3y(3theta+1)(3theta+2)theta to the n_terms-term
    exact series of all three solutions and evaluate the leftover at the
    samples: L w = theta^3 w + y (27 theta^3 w + 27 theta^2 w + 6 theta w)
    from the theta^3 frame of ``_series_frame`` inside the disc |y| < 1/27,
    of ``_inverse_frame`` outside it; a sample on |y| = 1/27 or at 0 is a
    DomainError.

    The recurrence kills every interior term exactly, so what remains is
    the truncation boundary term, of order (27|y|)^(+-n_terms), plus
    rounding.  The y (...) part multiplies that rounding by |y|, so each
    sample's leftover is divided by max(1, |y|), with |y| read from log y;
    the returned number is the max of those magnitudes over samples and
    solutions.
    """
    samples = [_finite_modulus(v) for v in y_samples]
    if not samples:
        raise DomainError("need at least one sample")
    worst = 0.0
    for y in samples:
        ln_abs = _ln_abs(y)
        if -math.inf < ln_abs < math.log(_SERIES_RADIUS):
            f = _series_frame(y, _series_terms(y, n_terms, 2.0)[0], 4)
        elif ln_abs > math.log(_SERIES_RADIUS):
            f = _inverse_frame(y, _inverse_terms(y, n_terms), 4)
        else:
            raise DomainError(f"annihilator samples need 0 < |y| != 1/27, got {y}")
        scale = math.exp(-max(0.0, ln_abs))                    # 1 / max(1, |y|)
        lw = scale * f[:, 3] + scale * y * (27.0 * f[:, 3] + 27.0 * f[:, 2] + 6.0 * f[:, 1])
        worst = max(worst, float(np.max(np.abs(lw))))
    return worst


def _start_frame(y0: complex) -> tuple[np.ndarray, np.ndarray]:
    """The frame (w, theta w, theta^2 w) of the three solutions at y0, off
    the circle |y| = 1/27, from the series that converges there, and the
    bounds of its entries.

    Each term t_m of either series is less than q = 27|y0| (or 1/(27|y0|))
    times the one before and at most q^m (outside, its lead times q^m), so
    the n-term sums of m^k t_m, k <= 2, leave tails below g q^n (n+1)^2,
    g = (1 + q)/(1 - q)^3, which n puts below 2^-60, and rounding below
    2^-52 n sum m^2 |t_m|.  The rows weigh the sums by at most
    3 (|log(-y0)| + 6)/(4 pi^2) inside and 3 |u|^(3a)/(8 pi^3) outside; the
    assembly adds _ROUND |frame|.  The frame and the rounding bound share
    one array of terms.
    """
    from . import _taylor

    ln_27y = _ln_abs(y0) + math.log(27.0)
    q = math.exp(-abs(ln_27y))
    g = (1.0 + q) / (1.0 - q) ** 3
    n = min(_SERIES_MAX_TERMS, math.ceil(
        (math.log(2.0 ** -60 / g) - 2.0 * math.log(_SERIES_MAX_TERMS + 1.0)) / math.log(q)))
    if ln_27y < 0.0:
        t = _series_terms(y0, n, 2.0)[0]
        frame = _series_frame(y0, t)
        weight = np.full(1, 3.0 * (abs(cmath.log(y0) - 1j * math.pi) + 6.0) / (4.0 * math.pi ** 2))
        lead, terms = np.ones(1), np.abs(t[None])
    else:
        t = _inverse_terms(y0, n)
        frame = _inverse_frame(y0, t)
        u = abs(_inv_cbrt(y0))
        weight = 3.0 * np.array([u, u * u]) / (8.0 * math.pi ** 3)
        lead, terms = _INV_LEAD, np.abs(t)
    bound = weight @ (lead * g * q ** n * (n + 1.0) ** 2
                      + 2.0 ** -52 * n * (terms @ _SQUARES[:n]))
    return frame, bound * np.array([[0.0], [1.0], [1.0]]) + _taylor._ROUND * np.abs(frame)


def _origin_loop(radius: float, err_target: float) -> tuple[np.ndarray, float]:
    """The loop matrix of ``monodromy_around_origin`` before rounding, and
    the bound of the error of its entries: with F_0 the start frame and
    E_0, E its bounds before and after the loop, (E + |M| E_0) |F_0^-1|."""
    from . import _taylor

    start, err0 = _start_frame(complex(radius))
    s0 = math.log(radius)
    frame, err = _taylor.transport(s0, s0 + _TWO_PI_I, start, err0, err_target)
    inv = np.linalg.inv(start)
    m = frame @ inv
    bound = (err + np.abs(np.rint(m.real)) @ err0) @ np.abs(inv)
    return m, float(bound.max())


def monodromy_around_origin(radius: float = 1e-3, err_target: float = 1e-8) -> list[list[int]]:
    """Transport the solution frame around y = radius * e^(i theta), theta
    from 0 to 2 pi, and return the integer matrix M with w_after = M w_before.

    The loop is frozen: it starts at y = radius on the positive axis and
    runs counter-clockwise once round the circle |y| = radius, the straight
    segment from log radius to log radius + 2 pi i in s = log y.  Its
    Taylor steps (``_taylor``) carry the frame to err_target.  Entries must
    land within 1e-6 of integers, and within the loop's own bound of its
    error (``_origin_loop``), else the bound failed: MonodromyError either
    way.  The rounded matrix is returned.

    Every loop inside |y| < 1/27 gives the same matrix.  At the default
    err_target: steps x terms, the largest distance of an entry from its
    integer, and the bound of that distance (``_origin_loop``):

        r = 1e-2   18 x 32   3.2e-12   9.1e-12
        r = 2e-3   15 x 32   1.7e-11   4.2e-11
        r = 1e-3   15 x 32   2.8e-11   6.8e-11   (the default)
        r = 1e-4   15 x 32   6.1e-11   1.5e-10
    """
    if not 0 < radius < _SERIES_RADIUS:
        raise DomainError("loop radius must sit inside the series disc")
    if not 0.0 < err_target < math.inf:
        raise DomainError(f"err_target must be finite and positive, got {err_target}")
    m, bound = _origin_loop(radius, err_target)
    rounded = np.rint(m.real).astype(int)
    dev = np.max(np.abs(m - rounded))
    if dev > 1e-6:
        raise MonodromyError(f"monodromy entries off integers by {dev:.2e}")
    if dev > bound:
        raise MonodromyError(f"monodromy entries off integers by {dev:.2e}, "
                             f"beyond the loop's error bound {bound:.2e}")
    return rounded.tolist()


def continue_solutions(y_target: complex, y_start: complex | None = None,
                       err_target: float = 1e-8) -> SolutionTriple:
    """The solution triple at y_target, from the nearer exact series.

    Left to its default, y_start = None, the route depends on 27|y_target|:

        <= q = 0.54       ``chf_expand(y_target)``, 80 terms or more to
                          meet err_target
        >= 1/q            ``w_at_infinity(y_target)``, to the rounding level
        in between        the transport along the target's ray in log y,
                          from |y| = q/27 = 0.02 inside the circle
                          |y| = 1/27 and from |y| = 1/(27 q) outside it

    The margin keeps the default 80 terms of the direct series.  Measured
    at the phases k pi/8, the largest relative error of w_1 or w_2 against
    30-digit sums (terms, error; the inverse series' includes the 2.6e-16
    of its Gamma(1/3)^3) is, at 27|y| = q and 1/q:

        q = 0.54    80  3.1e-16       61  2.6e-15
        q = 0.8    137  6.6e-16      172  5.0e-15

    An explicit y_start in the disc |y| < 1/27 transports from there along
    the straight segment in log y: the independent cross-check.

    The Taylor steps of ``_taylor`` carry the frame (w, theta w, theta^2 w)
    of all three solutions from the start frame of ``_start_frame``, sized
    for err_target.  A transported triple's err_estimate bounds its error:
    the start frame's bounds and each step's tails and rounding, carried
    through the later steps.  Steps x terms at the default err_target, at
    arg y = 0 and next to the conifold, at pi - 0.001, where they shrink:

        27|y| = 0.8    2 x 29    2 x 29
        27|y| = 0.99   3 x 30    7 x 31
        27|y| = 1.01   3 x 26   11 x 31

    A series triple reports its tail bound.  A path that meets the conifold
    y = -1/27 is refused.
    """
    y_target = _finite_modulus(y_target)
    if y_target == 0:
        raise DomainError("cannot continue into the origin")
    if not 0.0 < err_target < math.inf:
        raise DomainError(f"err_target must be finite and positive, got {err_target}")
    s1 = cmath.log(y_target)
    if y_start is None:
        t = _nearer_series(y_target, err_target, _LN_INNER)
        if t is not None:
            return t
        s0 = complex(_LN_INNER if s1.real < math.log(_SERIES_RADIUS) else _LN_OUTER, s1.imag)
        y_start = cmath.exp(s0)
    else:
        y_start = _check_series_domain(y_start)
        s0 = cmath.log(y_start)
    # imported here, past the series routes, which most calls take
    from . import _taylor

    frame, err = _taylor.transport(s0, s1, *_start_frame(y_start), err_target)
    return SolutionTriple(*frame[:, 0].tolist(), y_target, float(err[:, 0].max()))
