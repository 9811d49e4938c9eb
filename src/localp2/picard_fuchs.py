"""Solution triple of the one-modulus hypergeometric system.

Near y = 0 the three solutions are assembled from a single series with values
in C[rho]/rho^3 (rho nilpotent): expanding

    sum_n  y^(n+rho) / ( Gamma(1+n+rho)^3 * Gamma(1-3(n+rho)) )

through second order in rho yields (w_0, w_1, w_2) = (1, log solution, double
log solution).  The same numbers come from explicit closed series and from
Mellin-Barnes contour integrals, which also provide the continuation to
y = infinity.  An annihilating operator in theta = y d/dy,

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

from . import _kernels
from .errors import ConvergenceError, DomainError, MonodromyError

__all__ = [
    "RhoSeries",
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
]

_TWO_PI_I = 2j * math.pi
_SERIES_RADIUS = 1.0 / 27.0


@dataclass(frozen=True)
class RhoSeries:
    """Element c0 + c1*rho + c2*rho^2 of C[rho]/rho^3."""

    c0: complex = 0j
    c1: complex = 0j
    c2: complex = 0j

    def __add__(self, other):
        o = _as_rho(other)
        return RhoSeries(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_rho(other)
        return RhoSeries(self.c0 - o.c0, self.c1 - o.c1, self.c2 - o.c2)

    def __neg__(self):
        return RhoSeries(-self.c0, -self.c1, -self.c2)

    def __mul__(self, other):
        o = _as_rho(other)
        return RhoSeries(
            self.c0 * o.c0,
            self.c0 * o.c1 + self.c1 * o.c0,
            self.c0 * o.c2 + self.c1 * o.c1 + self.c2 * o.c0,
        )

    __rmul__ = __mul__

    def exp(self) -> "RhoSeries":
        e = cmath.exp(self.c0)
        return RhoSeries(e, e * self.c1, e * (self.c2 + self.c1 * self.c1 / 2.0))

    def log(self) -> "RhoSeries":
        if self.c0 == 0:
            raise DomainError("log of a RhoSeries needs a nonzero constant term")
        u1 = self.c1 / self.c0
        u2 = self.c2 / self.c0
        return RhoSeries(cmath.log(self.c0), u1, u2 - u1 * u1 / 2.0)


def _as_rho(x) -> RhoSeries:
    if isinstance(x, RhoSeries):
        return x
    return RhoSeries(complex(x))


@dataclass(frozen=True)
class SolutionTriple:
    w0: complex
    w1: complex
    w2: complex
    y: complex
    truncation_order: int
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


def chf_expand(y: complex, n_max: int = 80) -> SolutionTriple:
    """Sum the rho-valued series and read off the solution triple.

    The n = 0 term is y^rho * (1 - pi^2 rho^2).  For n >= 1 the reciprocal
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

    acc = RhoSeries(1.0, ln_y, ln_y * ln_y / 2.0) * RhoSeries(1.0, 0.0, -math.pi ** 2)

    term = 0j                # running 3 * C_n * (-y)^n
    h = [0.0, 0.0, 0.0]
    c1 = acc.c1
    c2 = acc.c2
    tail = 0.0
    for n in range(1, n_max + 1):
        # C_n / C_{n-1} = (3n-1)(3n-2)(3n-3) / n^3, C_1 = 2
        term = term * (3 * n - 1) * (3 * n - 2) * (3 * n - 3) / float(n ** 3) * (-y) \
            if n > 1 else 6.0 * (-y)
        dpsi = _harmonic_gap(n, h)
        c1 += term
        c2 += term * (ln_y + 3.0 * dpsi)
        tail = abs(term)
    # geometric tail bound past the truncation point
    q = 27.0 * abs(y)
    err = tail * q / (1.0 - q) if q < 1.0 else math.inf

    w1 = c1 / _TWO_PI_I
    w2 = -c2 / (4.0 * math.pi ** 2) - c1 / (4j * math.pi)
    return SolutionTriple(1.0 + 0j, w1, w2, y, n_max, err)


def _harmonic_gap(n: int, state: list[float]) -> float:
    """psi(3n) - psi(n+1) = H_{3n-1} - H_n, maintained incrementally."""
    while state[2] < n:
        m = int(state[2]) + 1
        state[0] += 1.0 / (3 * m - 2) + 1.0 / (3 * m - 1) + (1.0 / (3 * m - 3) if m > 1 else 0.0)
        state[1] += 1.0 / m
        state[2] = m
    return state[0] - state[1]


def series_w1(y: complex, n_terms: int = 80) -> complex:
    """Single-log solution: (1/2 pi i) [ log y + 3 sum C_m (-y)^m ]."""
    y = _check_series_domain(y)
    s = 0j
    term = 1.0 + 0j
    for m in range(1, n_terms + 1):
        term = term * (3 * m - 1) * (3 * m - 2) * (3 * m - 3) / float(m ** 3) * (-y) \
            if m > 1 else 2.0 * (-y)
        s += term
    return (cmath.log(y) + 3.0 * s) / _TWO_PI_I


def series_w2(y: complex, n_terms: int = 80) -> complex:
    """Double-log solution, summed exactly as printed:

        -(1/8 pi^2) log(-y)^2 + 1/8 - (3/4 pi^2) log(-y) * sum C_m (-y)^m
        - (9/4 pi^2) * sum C_m [psi(3m) - psi(m+1)] (-y)^m

    with log(-y) = log(y) - i pi.
    """
    y = _check_series_domain(y)
    ln_my = cmath.log(y) - 1j * math.pi
    s_plain = 0j
    s_psi = 0j
    term = 1.0 + 0j
    h = [0.0, 0.0, 0.0]
    for m in range(1, n_terms + 1):
        term = term * (3 * m - 1) * (3 * m - 2) * (3 * m - 3) / float(m ** 3) * (-y) \
            if m > 1 else 2.0 * (-y)
        s_plain += term
        s_psi += term * _harmonic_gap(m, h)
    pi2 = math.pi ** 2
    return (-(ln_my * ln_my) / (8.0 * pi2) + 0.125
            - 3.0 * ln_my * s_plain / (4.0 * pi2)
            - 9.0 * s_psi / (4.0 * pi2))


def mellin_barnes(y: complex, which: str = "plain") -> complex:
    """Contour-integral value of the regular series part.

    Integrates Gamma(-3s)Gamma(s)/Gamma(1-s)^2 * y^(-s) (optionally weighted
    by psi(-3s) - psi(1-s)) along Re s = -1/2.  For |y| < 1/27 this equals
    sum C_m (-y)^m (resp. the digamma-weighted sum).  The integrand decays
    like exp(-(pi - |arg y|)|Im s|), so the contour is truncated where that
    envelope reaches 1e-18 of its center value.
    """
    if which not in {"plain", "digamma"}:
        raise DomainError(f"unknown variant {which!r}")
    y = _finite_modulus(y)
    if y == 0 or (y.real <= 0 and y.imag == 0):
        raise DomainError("contour representation needs y off (-inf, 0]")
    decay = math.pi - abs(cmath.phase(y))
    if decay <= 0.05:
        raise ConvergenceError("arg y too close to pi for the truncated contour")
    t_max = 42.0 / decay
    step = 0.08
    t = np.arange(-t_max, t_max + step / 2, step)
    s = -0.5 + 1j * t
    g = (_kernels.gamma_array(-3.0 * s) * _kernels.gamma_array(s)
         / _kernels.gamma_array(1.0 - s) ** 2)
    vals = g * np.exp(-s * cmath.log(y))
    if which == "digamma":
        vals = vals * (_kernels.digamma_array(-3.0 * s) - _kernels.digamma_array(1.0 - s))
    # endpoint check: the truncation must sit deep in the decayed region
    center = np.max(np.abs(vals))
    if abs(vals[0]) > 1e-12 * center or abs(vals[-1]) > 1e-12 * center:
        raise ConvergenceError("contour truncation reached before integrand decay")
    return complex(np.sum(vals) * step / (2.0 * math.pi))


def w_at_infinity(y: complex, n_terms: int = 12) -> SolutionTriple:
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
    g13 = complex(_kernels.gamma_array(1.0 / 3.0)[0]) ** 3
    g23 = complex(_kernels.gamma_array(2.0 / 3.0)[0]) ** 3

    s13 = 0j
    s23 = 0j
    t13 = g13               # n = 0 term: Gamma(1/3)^3 / 1!
    t23 = g23 / 2.0         # n = 0 term: Gamma(2/3)^3 / 2!
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
    return SolutionTriple(1.0 + 0j, w1, w2, y, n_terms, err)


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

    term = 1.0
    h = [0.0, 0.0, 0.0]
    for m in range(1, mpow):
        term = term * (3 * m - 1) * (3 * m - 2) * (3 * m - 3) / float(m ** 3) * (-1.0) \
            if m > 1 else -2.0
        dpsi = _harmonic_gap(m, h)
        w1[0, m] = 3.0 * term / _TWO_PI_I
        w2[1, m] = -3.0 * term / (4.0 * pi2)
        w2[0, m] = (3.0 * term * (1j * math.pi) / (4.0 * pi2)
                    - 9.0 * term * dpsi / (4.0 * pi2))
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

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _transport_rhs(s: complex, u: np.ndarray) -> np.ndarray:
    y = cmath.exp(s)
    a = 27.0 * y / (1.0 + 27.0 * y)
    b = 6.0 * y / (1.0 + 27.0 * y)
    du = np.empty_like(u)
    du[..., 0] = u[..., 1]
    du[..., 1] = u[..., 2]
    du[..., 2] = -(a * u[..., 2] + b * u[..., 1])
    return du


def _rk45_segment(s0: complex, s1: complex, u: np.ndarray, rtol: float) -> np.ndarray:
    """Dormand-Prince step along the straight segment s0 -> s1 in log-y."""
    length = abs(s1 - s0)
    if length == 0:
        return u
    direction = (s1 - s0) / length
    t = 0.0
    h = min(0.1, length)
    atol = rtol
    while t < length:
        h = min(h, length - t)
        k = []
        for i in range(7):
            ui = u
            for j, a in enumerate(_DP_A[i]):
                ui = ui + h * a * k[j]
            k.append(direction * _transport_rhs(s0 + (t + _DP_C[i] * h) * direction, ui))
        u5 = u + h * sum(b * ki for b, ki in zip(_DP_B5, k))
        u4 = u + h * sum(b * ki for b, ki in zip(_DP_B4, k))
        scale = atol + rtol * np.maximum(np.abs(u), np.abs(u5))
        err = np.sqrt(np.mean(np.abs((u5 - u4) / scale) ** 2))
        if err <= 1.0:
            t += h
            u = u5
        h *= min(5.0, max(0.2, 0.9 * (1.0 / max(err, 1e-16)) ** 0.2))
        if h < 1e-13 * length:
            raise ConvergenceError("transport step size underflow")
    return u


def _initial_frame(y0: complex, n_terms: int) -> np.ndarray:
    """3x3 matrix of (w_i, theta w_i, theta^2 w_i) rows at y0 from the series."""
    frame = np.empty((3, 3), dtype=complex)
    ln_y = cmath.log(y0)
    for i, arr in enumerate(_solution_arrays(n_terms)):
        t1 = _theta_shift(arr)
        t2 = _theta_shift(t1)
        frame[i, 0] = _eval_array(arr, y0, ln_y)
        frame[i, 1] = _eval_array(t1, y0, ln_y)
        frame[i, 2] = _eval_array(t2, y0, ln_y)
    return frame


def monodromy_around_origin(radius: float = 0.01, n_terms: int = 80,
                            rtol: float = 1e-10, n_arcs: int = 8) -> list[list[int]]:
    """Transport the solution frame around y = radius * e^(i theta), theta
    from 0 to 2 pi, and return the integer matrix M with w_after = M w_before.

    Entries must land within 1e-6 of integers; the rounded matrix is returned.
    """
    if not 0 < radius < _SERIES_RADIUS:
        raise DomainError("loop radius must sit inside the series disc")
    y0 = complex(radius)
    frame = _initial_frame(y0, n_terms)
    start = frame.copy()
    s0 = cmath.log(y0)
    # polygonal loop in s-space: straight pieces lose no generality since the
    # ODE coefficients are single-valued in y = e^s
    for a in range(n_arcs):
        seg0 = s0 + 2j * math.pi * a / n_arcs
        seg1 = s0 + 2j * math.pi * (a + 1) / n_arcs
        frame = _rk45_segment(seg0, seg1, frame, rtol)
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
    u = _rk45_segment(s0, s1, u, rtol)
    return SolutionTriple(u[0, 0], u[1, 0], u[2, 0], y_target, n_terms,
                          err_estimate=100.0 * rtol)
