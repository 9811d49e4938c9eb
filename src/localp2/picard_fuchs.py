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

drives the ODE transport used for monodromy around y = 0 and for numeric
continuation out to the large-|y| regime.

Branch conventions: principal logarithms everywhere; log(-y) means
log(y) - i*pi.  With that choice the double-log series matches the rho
expansion coefficient-for-coefficient, and its constant at infinity
continues to exactly 1/3.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _dop853, _kernels
from .errors import ConvergenceError, DomainError, MonodromyError

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
    "continuation_rtol",
    "series_coefficient",
    "series_order",
]

_TWO_PI_I = 2j * math.pi
_SERIES_RADIUS = 1.0 / 27.0
# cap of ``series_order``: 2000 terms of ``chf_expand`` are a few array
# passes of that length
_SERIES_MAX_TERMS = 2000
# Gamma(1/3)^3 and Gamma(2/3)^3, the leading terms of ``w_at_infinity``
_G13_CUBED = complex(_kernels.gamma_array(1.0 / 3.0)[0]) ** 3
_G23_CUBED = complex(_kernels.gamma_array(2.0 / 3.0)[0]) ** 3


@dataclass(frozen=True)
class SolutionTriple:
    w0: complex
    w1: complex
    w2: complex
    y: complex
    err_estimate: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.w0, self.w1, self.w2], dtype=complex)


def series_coefficient(m: int) -> Fraction:
    """m-th Taylor coefficient (3m-1)! / (m!)^3 of the regular series part.

    Not integral in general (m = 3 gives 1680/9), hence the exact rational.
    """
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


def _series_terms(y, n: int, lead: float) -> tuple[np.ndarray, np.ndarray]:
    """The arrays (t_m, H_{3m-1} - H_m) for m = 1..n, where
    t_m = (lead/2) C_m (-y)^m.

    C_m = (3m-1)!/(m!)^3 follows C_m / C_{m-1} = (3m-1)(3m-2)(3m-3)/m^3 from
    C_1 = 2, so t is one cumulative product of lead (-y) and the ratios times
    (-y).  C_m and y^m are never formed apart: C_m overflows past m ~ 215,
    while inside the disc |t_m| stays below lead (27|y|)^m.  The harmonic
    gap H_{3m-1} - H_m = psi(3m) - psi(m+1) is a cumulative sum of its
    increments.  A float y keeps the terms real.
    """
    m = np.arange(1.0, n + 1.0)
    ratio = (3.0 * m - 1.0) * (3.0 * m - 2.0) * (3.0 * m - 3.0) / m ** 3
    ratio[0] = lead
    gap = 1.0 / (3.0 * m - 2.0) + 1.0 / (3.0 * m - 1.0) - 1.0 / m
    gap[1:] += 1.0 / (3.0 * m[1:] - 3.0)
    return np.cumprod(ratio * (-y)), np.cumsum(gap)


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
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
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
    if err_80 <= err_target:
        return 80
    extra = math.ceil(math.log(err_target / err_80) / math.log(27.0 * abs(y)))
    return min(_SERIES_MAX_TERMS, 80 + extra)


def series_w1(y: complex, n_terms: int = 80) -> complex:
    """Single-log solution: (1/2 pi i) [ log y + 3 sum C_m (-y)^m ]."""
    y = _check_series_domain(y)
    s = complex(_series_terms(y, n_terms, 2.0)[0].sum())
    return (cmath.log(y) + 3.0 * s) / _TWO_PI_I


def series_w2(y: complex, n_terms: int = 80) -> complex:
    """Double-log solution, summed exactly as printed:

        -(1/8 pi^2) log(-y)^2 + 1/8 - (3/4 pi^2) log(-y) * sum C_m (-y)^m
        - (9/4 pi^2) * sum C_m [psi(3m) - psi(m+1)] (-y)^m

    with log(-y) = log(y) - i pi.
    """
    y = _check_series_domain(y)
    ln_my = cmath.log(y) - 1j * math.pi
    t, dpsi = _series_terms(y, n_terms, 2.0)
    s_plain, s_psi = complex(t.sum()), complex(t @ dpsi)
    pi2 = math.pi ** 2
    return (-(ln_my * ln_my) / (8.0 * pi2) + 0.125
            - 3.0 * ln_my * s_plain / (4.0 * pi2)
            - 9.0 * s_psi / (4.0 * pi2))


def mellin_barnes(y: complex, which: str = "plain") -> complex:
    """Contour-integral value of the regular series part.

    Integrates Gamma(-3s)Gamma(s)/Gamma(1-s)^2 * y^(-s) (optionally weighted
    by psi(-3s) - psi(1-s)) along s = -1/2 + it.  For |y| < 1/27 this equals
    sum C_m (-y)^m (resp. the digamma-weighted sum).  The integrand decays
    like exp(-(pi - |arg y|)|t|), so the contour is truncated at
    t_max = 42/(pi - |arg y|), where that envelope reaches 1e-18 of its
    center value, and summed over the nodes t_k = 0.08 k, |k| <= K =
    ceil(t_max/0.08).

    The integrand is formed in the log domain.  By reflection
    Gamma(s) = pi / (sin(pi s) Gamma(1-s)), and on this line
    sin(pi s) = -cosh(pi t), so the factor in front of y^(-s) is

        -pi exp(log Gamma(-3s) - log cosh(pi t) - 3 log Gamma(1-s)),

    log cosh(pi t) = pi t + log1p(exp(-2 pi t)) - log 2 for t >= 0: two
    ``lgamma_array`` calls, both at Re = 3/2.  Only half the contour is
    evaluated: at t_(-k) every argument is the conjugate of its value at t_k,
    so the log factor (and the digamma weight) is the conjugate there.  Each
    node then costs one exp of that log plus (1/2 - it) log y, and no factor
    leaves the double range before the product is formed.

    Working range: pi - |arg y| > 0.05 at every finite |y|; closer to the
    negative real axis the call raises ConvergenceError, and so does a
    truncation point where the integrand has not decayed to 1e-12 of its
    largest value, or a non-finite node value.
    """
    if which not in {"plain", "digamma"}:
        raise DomainError(f"unknown variant {which!r}")
    y = _finite_modulus(y)
    if y == 0 or (y.real <= 0 and y.imag == 0):
        raise DomainError("contour representation needs y off (-inf, 0]")
    decay = math.pi - abs(cmath.phase(y))
    if decay <= 0.05:
        raise ConvergenceError("arg y too close to pi for the truncated contour")
    step = 0.08
    t = step * np.arange(math.ceil(42.0 / decay / step) + 1)      # t_k, k = 0..K
    s = -0.5 + 1j * t
    lg = (_kernels.lgamma_array(-3.0 * s) - 3.0 * _kernels.lgamma_array(1.0 - s)
          - math.pi * t - np.log1p(np.exp(-2.0 * math.pi * t)) + math.log(2.0))
    k = np.arange(1 - len(t), len(t))                                 # k = -K..K
    vals = -math.pi * np.exp(np.concatenate([lg[:0:-1].conjugate(), lg])
                             + (0.5 - 1j * step * k) * cmath.log(y))
    if which == "digamma":
        wgt = _kernels.digamma_array(-3.0 * s) - _kernels.digamma_array(1.0 - s)
        vals = vals * np.concatenate([wgt[:0:-1].conjugate(), wgt])
    if not np.isfinite(vals).all():
        raise ConvergenceError("contour integrand left the double range")
    # endpoint check: the truncation must sit deep in the decayed region
    center = np.max(np.abs(vals))
    if abs(vals[0]) > 1e-12 * center or abs(vals[-1]) > 1e-12 * center:
        raise ConvergenceError("contour truncation reached before integrand decay")
    return complex(np.sum(vals) * step / (2.0 * math.pi))


def w_at_infinity(y: complex, n_terms: int = 16) -> SolutionTriple:
    """Large-|y| solution triple from the two Gamma-cubed inverse series.

    With u = y^(-1/3) (principal branch),

        S_a = sum_n Gamma(n+a)^3 (-1)^n / (3n+3a-1)! / y^n,   a = 1/3, 2/3

    enter as  w_1 = (3/2 pi i)(-u/4pi^2 * S_1/3 + u^2/4pi^2 * S_2/3)  and
    w_2 = 1/3 + (sqrt3/4pi)(-(1+i sqrt3) u/4pi^2 * S_1/3
                            + (-1+i sqrt3) u^2/4pi^2 * S_2/3).
    """
    y = _finite_modulus(y)
    if abs(y) <= 27.0:
        raise DomainError(f"|y| = {abs(y):g} is not in the large-|y| regime (need > 27)")
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    u = y ** (-1.0 / 3.0)

    s13 = 0j
    s23 = 0j
    t13 = _G13_CUBED            # n = 0 term: Gamma(1/3)^3 / 1!
    t23 = _G23_CUBED / 2.0      # n = 0 term: Gamma(2/3)^3 / 2!
    for n in range(n_terms):
        s13 += t13
        s23 += t23
        t13 *= -((n + 1.0 / 3.0) ** 3) / ((3 * n + 2) * (3 * n + 3) * (3 * n + 4)) / y
        t23 *= -((n + 2.0 / 3.0) ** 3) / ((3 * n + 3) * (3 * n + 4) * (3 * n + 5)) / y
    err = (abs(t13) * abs(u) + abs(t23) * abs(u) ** 2) / (4.0 * math.pi ** 2)

    pi2 = 4.0 * math.pi ** 2
    w1 = 3.0 / _TWO_PI_I * (-u / pi2 * s13 + u * u / pi2 * s23)
    r3 = math.sqrt(3.0)
    w2 = (1.0 / 3.0
          + r3 / (4.0 * math.pi) * (-(1.0 + 1j * r3) * u / pi2 * s13
                                    + (-1.0 + 1j * r3) * u * u / pi2 * s23))
    return SolutionTriple(1.0 + 0j, w1, w2, y, err)


# ---------------------------------------------------------------------------
# log-polynomial coefficient arrays: w = sum_{j,m} arr[j][m] * y^m * (log y)^j
# ---------------------------------------------------------------------------


def _solution_arrays(n_terms: int) -> list[np.ndarray]:
    """Coefficient arrays (3 x (n_terms+1)) for w_0, w_1, w_2 over log-powers.

    The printed log(-y) form of w_2 is rewritten over log y using
    log(-y) = log y - i pi, which moves i pi pieces into lower rows.
    """
    mpow = n_terms + 1
    w0 = np.zeros((3, mpow), dtype=complex)
    w0[0, 0] = 1.0

    w1 = np.zeros((3, mpow), dtype=complex)
    w1[1, 0] = 1.0 / _TWO_PI_I
    w2 = np.zeros((3, mpow), dtype=complex)
    pi2 = math.pi ** 2
    w2[2, 0] = -1.0 / (8.0 * pi2)
    w2[1, 0] = 1j / (4.0 * math.pi)          # cross term of (log y - i pi)^2
    w2[0, 0] = 0.25                          # 1/8 printed + 1/8 from (i pi)^2

    # y = 1.0 leaves the real coefficients C_m (-1)^m
    t, dpsi = _series_terms(1.0, n_terms, 2.0)
    w1[0, 1:] = 3.0 * t / _TWO_PI_I
    w2[1, 1:] = -3.0 * t / (4.0 * pi2)
    w2[0, 1:] = 3.0 * t * (1j * math.pi) / (4.0 * pi2) - 9.0 * t * dpsi / (4.0 * pi2)
    return [w0, w1, w2]


def _theta_shift(arr: np.ndarray) -> np.ndarray:
    """theta = y d/dy acting on a log-polynomial coefficient array."""
    out = np.zeros_like(arr)
    m = np.arange(arr.shape[1])
    for j in range(arr.shape[0]):
        out[j] += m * arr[j]
        if j + 1 < arr.shape[0]:
            out[j] += (j + 1) * arr[j + 1]
    return out


def _eval_array(arr: np.ndarray, y: complex, ln_y: complex) -> complex:
    powers = y ** np.arange(arr.shape[1])
    logs = np.array([1.0, ln_y, ln_y * ln_y], dtype=complex)[: arr.shape[0]]
    return complex(logs @ (arr @ powers))


def annihilation_residual(y_samples, n_terms: int = 40) -> float:
    """Apply L = theta^3 + 3y(3theta+1)(3theta+2)theta to the truncated
    series of all three solutions and evaluate the leftover at the samples.

    The recurrence kills every interior coefficient exactly, so what remains
    is the truncation boundary term of order y^(n_terms+1); the returned
    number is the max magnitude over samples and solutions.
    """
    samples = [_check_series_domain(v) for v in y_samples]
    if not samples:
        raise DomainError("need at least one sample")
    worst = 0.0
    for arr in _solution_arrays(n_terms):
        t1 = _theta_shift(arr)
        t2 = _theta_shift(t1)
        t3 = _theta_shift(t2)
        # residual = t3 + y*(27 t3 + 27 t2 + 6 t1); the y factor shifts columns
        res = np.zeros((3, arr.shape[1] + 1), dtype=complex)
        res[:, :-1] = t3
        res[:, 1:] += 27.0 * t3 + 27.0 * t2 + 6.0 * t1
        for y in samples:
            val = _eval_array(res, y, cmath.log(y))
            worst = max(worst, abs(val))
    return worst


# ---------------------------------------------------------------------------
# ODE transport in s = log y:  u = (w, theta w, theta^2 w),
# u' = (u2, u3, -(27 y u3 + 6 y u2)/(1 + 27 y))
# ---------------------------------------------------------------------------

# complex copies of the DOP853 rows [1, A] and [E5; E3]: complex products
# skip numpy's mixed-type path
_DOP_W = np.hstack([np.ones((13, 1)), _dop853.A]).astype(complex)
_DOP_E = np.array([_dop853.E5, _dop853.E3], dtype=complex)
# Past |y| = e^690 ~ 1e299 the coefficients 27y/(1 + 27y) and 6y/(1 + 27y)
# equal their limits 1 and 2/9 in double precision (1/(27y) < 1e-300), and
# forming them from y would overflow before |y| reaches the largest double.
_FLAT_LOG_Y = 690.0


def _transport_segment(s0: complex, s1: complex, u: np.ndarray, rtol: float) -> np.ndarray:
    """DOP853 transport of the 3x3 frame u along s0 -> s1 in log y.

    The frame is carried flattened row by row, so the right-hand side of all
    three solutions is one product u @ (I_3 kron hC) with the companion matrix
    C = direction * [[0, 0, 0], [1, 0, -b], [0, 1, -a]], a = 27y/(1 + 27y),
    b = 6y/(1 + 27y), scaled by the step h; only the a and b entries change
    from stage to stage.  The state and the twelve scaled stage derivatives
    h k are stacked as the rows of one 13 x 9 array, so stage i's state
    u + A[i, :i] @ (h k[:i]) is one product with the row [1, A[i, :i]], and
    the thirteenth row of A (the eighth-order weights b) gives the new
    solution.  An accepted step evaluates the right-hand side there and hands
    it on, rescaled to the next step, as that step's first (FSAL): eleven
    right-hand sides per attempt and one more per accepted step, none after
    the last.  Both error vectors come from one product with the [E5; E3]
    rows; with their norms e5, e3 against atol + rtol*|u| (atol = rtol),
    err = h e5^2 / sqrt(9 (e5^2 + e3^2/100)) sets the step factor
    0.9 err^(-1/8), clamped to [0.2, 5], from a first step of min(0.1,
    length).  A step still needed that falls below 1e-13 of the length
    raises ConvergenceError.  For log|y| >= 690 the a and b entries are
    their limits 1 and 2/9, so every finite target can be reached without
    overflow.
    """
    length = abs(s1 - s0)
    if length == 0:
        return u
    direction = (s1 - s0) / length
    t = 0.0
    h = h1 = min(0.1, length)        # h1: the step that row 1 of uk is scaled by
    hd = h1 * direction
    # block (r, r) of the 9x9 matrix is hC: its entry (j, i) sits at flat
    # index 30r + 9j + i
    flat = np.zeros(90, dtype=complex)
    blocks = flat.reshape(3, 30)
    unit, minus_db, minus_da = blocks[:, 9:20:10], blocks[:, 11], blocks[:, 20]
    unit.fill(hd)
    m = flat[:81].reshape(9, 9)

    def rhs(s: complex, ui: np.ndarray, out: np.ndarray) -> None:
        if s.real < _FLAT_LOG_Y:
            y = cmath.exp(s)
            a, b = 27.0 * y / (1.0 + 27.0 * y), 6.0 * y / (1.0 + 27.0 * y)
        else:
            a, b = 1.0, 2.0 / 9.0
        minus_da.fill(-hd * a)
        minus_db.fill(-hd * b)
        np.dot(ui, m, out)

    # row 0: the state at t; row 1 + j: h k_j
    uk = np.empty((13, 9), dtype=complex)
    stage_rows = [(_DOP_W[i, :i + 1], uk[:i + 1]) for i in range(13)]
    nodes = _dop853.C
    ui = np.empty(9, dtype=complex)
    uk[0] = u.reshape(9)
    abs_u = np.abs(uk[0])
    rhs(s0, uk[0], uk[1])
    while True:
        step = min(h, length - t)
        last = step == length - t
        if step != h1:
            uk[1] *= step / h1
            h1, hd = step, step * direction
            unit.fill(hd)
        for i in range(1, 12):
            np.dot(*stage_rows[i], out=ui)
            rhs(s0 + (t + nodes[i] * step) * direction, ui, uk[i + 1])
        u_new = np.dot(*stage_rows[12])
        abs_new = np.abs(u_new)
        # |E @ (h k)| / (1 + max(|u|, |u_new|)) is h * rtol times the scaled error
        q = np.abs(np.dot(_DOP_E, uk[1:]))
        q /= np.maximum(abs_u, abs_new) + 1.0
        q *= q
        q5, q3 = q.sum(axis=1).tolist()
        err = q5 / (rtol * math.sqrt(9.0 * (q5 + 0.01 * q3))) if q5 != 0.0 else 0.0
        if err <= 1.0:
            t += step
            if last:
                return u_new.reshape(3, 3)
            uk[0] = u_new
            abs_u = abs_new
            rhs(s0 + t * direction, uk[0], uk[1])
        h = step * min(5.0, max(0.2, 0.9 * max(err, 1e-16) ** -0.125))
        if h < 1e-13 * length:
            raise ConvergenceError("transport step size underflow")


def _initial_frame(y0: complex, n_terms: int) -> np.ndarray:
    """3x3 matrix of (w_i, theta w_i, theta^2 w_i) rows at y0 from the series.

    The arrays of ``_series_terms`` give S_k = sum m^k t_m and
    D_k = sum m^k t_m (H_{3m-1} - H_m), k = 0, 1, 2, with t_m = C_m (-y0)^m,
    as one product with the rows m^0, m^1, m^2; theta y^m = m y^m turns them
    into the printed w_1, w_2 and their first two theta-derivatives, with
    theta log(-y) = 1.
    """
    t, dpsi = _series_terms(y0, n_terms, 2.0)
    m_pow = np.arange(1.0, n_terms + 1.0) ** np.arange(3.0)[:, None]
    (s0, s1, s2), (d0, d1, d2) = (m_pow @ np.stack([t, t * dpsi], axis=1)).T.tolist()
    ln_y = cmath.log(y0)
    ln_my = ln_y - 1j * math.pi
    pi2 = 4.0 * math.pi ** 2
    return np.array([
        [1.0, 0.0, 0.0],
        [(ln_y + 3.0 * s0) / _TWO_PI_I, (1.0 + 3.0 * s1) / _TWO_PI_I, 3.0 * s2 / _TWO_PI_I],
        [-ln_my * ln_my / (2.0 * pi2) + 0.125 - 3.0 * (ln_my * s0 + 3.0 * d0) / pi2,
         -(ln_my + 3.0 * (ln_my * s1 + s0 + 3.0 * d1)) / pi2,
         -(1.0 + 3.0 * (ln_my * s2 + 2.0 * s1 + 3.0 * d2)) / pi2],
    ], dtype=complex)


def monodromy_around_origin(radius: float = 1e-3, n_terms: int = 80,
                            rtol: float = 1e-10) -> list[list[int]]:
    """Transport the solution frame around y = radius * e^(i theta), theta
    from 0 to 2 pi, and return the integer matrix M with w_after = M w_before.

    In s = log y the loop is the straight segment from log radius to
    log radius + 2 pi i (the ODE coefficients are single-valued in y = e^s),
    carried by one ``_transport_segment`` run.  Entries must land within
    1e-6 of integers; the rounded matrix is returned.

    Every loop inside |y| < 1/27 gives the same matrix.  Near 0 the frame
    is log-polynomial up to a relative 27 r, so a small loop is cheap; at
    rtol 1e-10, right-hand sides and the largest distance of an entry from
    its integer:

        r = 1e-2   259   2.9e-10
        r = 5e-3   178   8.0e-10
        r = 2e-3   131   2.5e-10
        r = 1e-3   108   2.1e-10   (the default)
        r = 1e-4    84   1.8e-11
    """
    if not 0 < radius < _SERIES_RADIUS:
        raise DomainError("loop radius must sit inside the series disc")
    y0 = complex(radius)
    start = _initial_frame(y0, n_terms)
    s0 = cmath.log(y0)
    frame = _transport_segment(s0, s0 + _TWO_PI_I, start, rtol)
    m = frame @ np.linalg.inv(start)
    rounded = np.rint(m.real).astype(int)
    dev = np.max(np.abs(m - rounded))
    if dev > 1e-6:
        raise MonodromyError(f"monodromy entries off integers by {dev:.2e}")
    return rounded.tolist()


def continue_solutions(y_target: complex, y_start: complex = 0.01,
                       n_terms: int = 80, rtol: float = 1e-10) -> SolutionTriple:
    """Numeric continuation of the solution triple from the series disc to
    y_target by transporting along the straight segment in log y.

    The frame (w, theta w, theta^2 w) of all three solutions starts from the
    series at y_start and is carried by one DOP853 run
    (``_transport_segment``) at relative and absolute tolerance rtol.  The
    reported err_estimate is 100 * rtol: against the inverse series past
    |y| = 100 and the direct series inside |y| <= 0.02, at rtol 1e-10 and
    1e-14, the largest distance measured was 0.0047 of it.

    The lone finite singular point away from the origin is y = -1/27; paths
    whose log-segment passes within 0.05 of its logarithm are refused.
    """
    y_start = _check_series_domain(y_start)
    y_target = _finite_modulus(y_target)
    if y_target == 0:
        raise DomainError("cannot continue into the origin")
    s0 = cmath.log(y_start)
    s1 = cmath.log(y_target)
    s_sing = cmath.log(complex(-1.0 / 27.0))  # log(1/27) + i pi
    seg = s1 - s0
    if abs(seg) > 0:
        tproj = max(0.0, min(1.0, ((s_sing - s0) / seg).real))
        if abs(s0 + tproj * seg - s_sing) < 0.05:
            raise DomainError("continuation path passes too close to y = -1/27")
    u = _initial_frame(y_start, n_terms)
    u = _transport_segment(s0, s1, u, rtol)
    return SolutionTriple(u[0, 0], u[1, 0], u[2, 0], y_target,
                          err_estimate=100.0 * rtol)


def continuation_rtol(err_target: float) -> float:
    """rtol = min(1e-10, err_target / 100), the default rtol or tighter,
    lowered by a few ulps where needed so that the err_estimate of
    ``continue_solutions``, 100 * rtol, is at most err_target once rounded
    (100 * (err_target / 100) exceeds err_target for some targets)."""
    if not err_target > 0:
        raise DomainError(f"error target must be positive, got {err_target}")
    rtol = min(1e-10, err_target / 100.0)
    while 100.0 * rtol > err_target:
        rtol = math.nextafter(rtol, 0.0)
    return rtol
