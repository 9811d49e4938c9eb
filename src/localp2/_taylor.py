"""Transport of the Picard-Fuchs frame by re-centred Taylor steps (van der
Hoeven, "Fast evaluation of holonomic functions", TCS 1999; Mezzarobba and
Salvy, arXiv:0904.2452).

With x = -27y and f = theta w the annihilator of ``picard_fuchs`` is the
Gauss equation of 2F1(1/3, 2/3; 1; x),

    x(1-x) f'' + (1-2x) f' - (2/9) f = 0,        w' = f / x,

so the frame (w, theta w, theta^2 w) = (w, f, x f') of every solution goes
from x0 to x0 + h by one 3 x 3 matrix.  Its entries come from two runs of
the recurrence for the scaled Taylor coefficients u_n = f_n h^n at x0, with
p = h/x0 and q = h/(1 - x0),

    u_(n+2) = -(p - q) (n+1)/(n+2) u_(n+1) + p q (n+1/3)(n+2/3)/((n+1)(n+2)) u_n,

from (u_0, u_1) = (1, 0) and (0, p), the solutions with (f, x f') = (1, 0)
and (0, 1) at x0: f(x0 + h) = sum u_n, x f' = (1 + p)/p sum n u_n, and w
gains sum gamma_n/(n+1), gamma_n = p (u_n - gamma_(n-1)).  Both factors grow
with n towards alpha = |p - q| and beta = |p q|, so with r the positive
root of r^2 = alpha r + beta, |u_n| / r^n never exceeds the larger of its
two previous values: past the last terms u_N, u_(N+1) every |u_n| is at most
M r^n, M r^(N+2) = max(|u_N| r^2, |u_(N+1)| r), which bounds every tail.
r < 1 is at least max(|p|, |q|).

In s = log y the path is a straight segment, cut into steps with r at most
``_RATIO``, so |h| <= _RATIO min(|x0|, |1 - x0|); x0, p and q come from s
through e^(+-s) and expm1, so nothing overflows up to the largest doubles.

Every array pass covers all steps of the path at once.  The recurrence
takes two per term, a product and a sum; the rest of ``steps`` takes a
fixed number, the term count N one over the a-priori tails of every N up
to _MAX_TERMS, and ``transport`` one ``_scan`` of log2(steps) rounds.
"""

import cmath
import math

import numpy as np

from .errors import DomainError

# the majorant ratio r that every step is sized for
_RATIO = 0.45
# the largest term count N; with r <= _RATIO its a-priori tail is 1e-33
_MAX_TERMS = 100
# the rounding unit of the error bounds, twice the unit roundoff
_ROUND = 2.0 ** -52

_N = np.arange(_MAX_TERMS + 2.0)
# the n-only factors of the recurrence; 1/(i+j+1), and the 0/1 mask of
# i + j <= _MAX_TERMS + 1, whose rows from _MAX_TERMS - N on mask i + j <=
# N + 1; and the weights 1/(n+1), 1 and n of the sums of ``steps``
_GROW_0 = (_N + 1.0 / 3.0) * (_N + 2.0 / 3.0) / ((_N + 1.0) * (_N + 2.0))
_GROW_1 = (_N + 1.0) / (_N + 2.0)
_HANKEL = 1.0 / (np.add.outer(_N, _N) + 1.0)
_HANKEL_CUT = (np.add.outer(_N, _N) <= _MAX_TERMS + 1.0) * 1.0
_MOMENTS = np.stack([1.0 / (_N + 1.0), np.ones_like(_N), _N], axis=1).astype(complex)


def _path(s0: complex, s1: complex) -> tuple[list, list]:
    """The step ends s0, ..., s1 along the segment, and c = x0/(1 - x0) at
    each step's start, from e^s where |x0| <= 1 and from e^-s beyond.  A
    step is as long as |expm1(step)| <= _RATIO / kappa allows, kappa = r/|p|
    = (|1 - c| + sqrt(|1 - c|^2 + 4|c|)) / 2; near y = -1/27 the steps
    shrink, and a path that meets it (a step start within 2^-50 |x0| of
    x = 1, or a step that no longer moves) is a DomainError."""
    length = abs(s1 - s0)
    direction = (s1 - s0) / length
    ends, ratios = [s0], []
    t, outward, ln_27 = 0.0, direction.real > 0.0, math.log(27.0)
    while t < length:
        s = ends[-1]
        if s.real + ln_27 <= 0.0:
            c = -27.0 * cmath.exp(s)
            c /= 1.0 - c
        else:
            c = 1.0 / (-cmath.exp(-s) / 27.0 - 1.0)
        a, b = abs(1.0 - c), abs(c)
        step = 2.0 * _RATIO / (a + math.sqrt(a * a + 4.0 * b))
        if outward:                         # |expm1(z)| <= |z| while Re z <= 0
            step = math.log1p(step)
        if t + step == t or not b < 2.0 ** 50:
            raise DomainError("continuation path meets y = -1/27")
        t = min(length, t + step)
        ends.append(s0 + t * direction if t < length else s1)
        ratios.append(c)
    return ends, ratios


def coefficients(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """u_0..u_(n+1) of both runs at each step (one entry of p and q per
    step), indexed [n, run, step].  u_(i+2) is one product of the window
    (u_i, u_(i+1)), a view into u, with the factors of term i, laid out
    alike, and one sum of that pair."""
    k = len(p)
    grow = np.empty((n, 2, 2, k), dtype=complex)            # factors of u_i, u_(i+1)
    np.multiply.outer(_GROW_0[:n], p * q, out=grow[:, 0, 0])
    np.multiply.outer(_GROW_1[:n], q - p, out=grow[:, 1, 0])
    grow[:, :, 1] = grow[:, :, 0]
    u = np.zeros((n + 2, 2, k), dtype=complex)
    u[0, 0] = 1.0
    u[1, 1] = p
    windows = np.ndarray((n, 2, 2, k), complex, u, 0, u.strides[:1] + u.strides)
    pair = np.empty((2, 2, k), dtype=complex)
    first, second = pair
    for window, factors, term in zip(windows, grow, u[2:]):
        np.multiply(window, factors, pair)
        np.add(first, second, term)
    return u


def steps(s0: complex, s1: complex, err_target: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The steps of the path s0 -> s1: the stack of matrices R_k, frame_k =
    frame_(k-1) @ R_k; the stack of T_k, |frame_(k-1)| @ T_k bounding what
    step k adds to the error of frame_k (its tails, and _ROUND (N + 3) times
    the sums of the moduli of its terms); and the term count N, the least at
    which the a-priori tail of x f' with M <= 1, r^(N+1) (N+3)/(1 - r)^2 at
    the largest r, meets err_target over the number of steps.

    The increment of w, summed to gamma_(N+1), is sum_(j <= N+1) u_j w_j,
    w_j = p sum_(i <= N+1-j) (-p)^i / (i+j+1).  Past gamma_(N+1),
    |gamma_n| <= |p|^(n-N-1) |gamma_(N+1)| + |p| (n-N-1) M r^n, as |p| <= r,
    which bounds the tail of w."""
    ends, ratios = _path(s0, s1)
    ends = np.array(ends)
    p = np.expm1(ends[1:] - ends[:-1])
    q = p * np.array(ratios)
    k = len(p)
    alpha, beta = np.abs(p - q), np.abs(p * q)
    r = 0.5 * (alpha + np.sqrt(alpha * alpha + 4.0 * beta))
    r_max = float(r.max())
    # the tail falls with N (r <= _RATIO), so the N below _MAX_TERMS whose
    # tails miss the target are the first ones
    n = int(np.count_nonzero(r_max ** _N[1:_MAX_TERMS + 1] * (_N[:_MAX_TERMS] + 3.0)
                             > err_target / k * (1.0 - r_max) ** 2))
    u = coefficients(p, q, n)
    powers = np.empty((n + 2, k), dtype=complex)            # p (-p)^i
    powers[0] = p
    powers[1:] = -p
    np.cumprod(powers, axis=0, out=powers)
    abs_p, au = np.abs(p), np.abs(u)
    scale = np.abs(1.0 + p) / abs_p                         # |x1 / h|
    # per step, the rows of the runs: the sums (increment of w, f, x f') and
    # their bounds; the row of w keeps w, up to rounding
    rt, t = np.zeros((k, 3, 3), dtype=complex), np.zeros((k, 3, 3))
    rt[:, 0, 0], t[:, 0, 0] = 1.0, _ROUND * (n + 3)
    sums, bound = rt[:, 1:], t[:, 1:]
    # the sums of u_n and n u_n, and of u_j w_j, the weights w_j from the
    # entries i + j <= N + 1 of the Hankel matrix
    sums[..., 1:] = u.T @ _MOMENTS[:n + 2, 1:]
    weights = (_HANKEL[:n + 2, :n + 2] * _HANKEL_CUT[_MAX_TERMS - n:, :n + 2]) @ powers
    sums[..., 0] = (u * weights[:, None]).sum(axis=0).T
    sums[..., 2] *= ((1.0 + p) / p)[:, None]
    bound[:] = au.T @ _MOMENTS[:n + 2].real * (_ROUND * (n + 3))
    tail = (np.maximum(au[n] * r * r, au[n + 1] * r) / (1.0 - r)).T
    gamma = np.abs((u * powers[::-1, None]).sum(axis=0)).T
    bound[..., 0] = ((bound[..., 0] + gamma / (n + 3)) * (abs_p / (1.0 - abs_p))[:, None]
                     + tail * abs_p[:, None])
    bound[..., 1] += tail
    bound[..., 2] = (bound[..., 2] + tail * ((n + 2) + r / (1.0 - r))[:, None]) * scale[:, None]
    return rt, t, n


def _scan(m: np.ndarray) -> np.ndarray:
    """The products m[i, 0] @ ... @ m[i, j] of each stack m[i], for every j,
    in log2(len(m[i])) rounds of pairs."""
    d = 1
    while d < m.shape[1]:
        m[:, d:] = m[:, :-d] @ m[:, d:]
        d *= 2
    return m


def transport(s0: complex, s1: complex, frame: np.ndarray, err: np.ndarray,
              err_target: float) -> tuple[np.ndarray, np.ndarray]:
    """The 3 x 3 frame (rows: solutions; columns: w, theta w, theta^2 w) at
    y = e^s0, with the bounds err of its entries, carried to e^s1: the frame
    there and the bounds of its entries.  err and each step's error reach
    the end through the modulus of the product of the later steps.  One
    ``_scan`` forms the products of the earlier steps and, transposed, of
    the later ones; the frames before and after every step fill one array."""
    if s1 == s0:
        return frame, err
    rt, t, _ = steps(s0, s1, err_target)
    k = len(rt)
    m = np.empty((2, k, 3, 3), dtype=complex)
    m[0], m[1] = rt, rt[::-1].transpose(0, 2, 1)
    upto, later = _scan(m)
    frames = np.empty((k + 1, 3, 3), dtype=complex)
    frames[0] = frame
    np.matmul(frame, upto, out=frames[1:])
    later = np.abs(later[::-1].transpose(0, 2, 1))          # |R_k @ ... @ R_K|
    local = np.abs(frames[:-1]) @ t
    total = local[-1] + np.einsum("kij,kjl->il", local[:-1], later[1:])
    return frames[-1], total + err @ later[0]
