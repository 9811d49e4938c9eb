"""Low-level numeric kernels, vectorized over numpy arrays.

Complex log-gamma, gamma and digamma, AGM elliptic integrals and
2F1(1/2,1/2;1;.), Cardano root solving with continuity tracking, and
Gauss-Chebyshev segment quadrature of dX/sqrt(cubic) on the Euler branch.
Each kernel has one implementation, written as array operations so a whole
batch of inputs costs one call; the one exception is ``agm_fixed``, the AGM
on fixed-point Gaussian integers (pairs of Python ints) behind extended
precision.

Log-gamma and digamma share one body: Stirling's series (and its derivative)
past |w| = 12, reached by one upward shift of the entries below it, with the
shift's factors formed in one broadcast over those entries only.  Gamma is
the exp of log-gamma, reflected in the log domain for Re z < 1/2, so it
neither overflows before its value does nor returns NaN where Gamma only
over- or underflows.

Every public function here is deterministic and allocation-light.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# The one numeric backend.  Kept only because the benchmark's provenance
# record (``perfbench/run.py``) reads it.
BACKEND = "numpy"

# B_2, B_4, ..., B_14: the Stirling coefficients B_2k/(2k(2k-1)) of log Gamma
# and the digamma tail -B_2k/(2k) both come from these.  Past |w| = 12 the
# first omitted term is below 2e-18.
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
              -691.0 / 2730.0, 7.0 / 6.0)
_STIRLING = tuple(b / ((2 * k) * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, 1))
_DIGAMMA_TAIL = tuple(-b / (2 * k) for k, b in enumerate(_BERNOULLI, 1))
# entries of modulus below 12 are shifted up by 12 before the tail, which
# for Re w >= 1/2 takes them past |w| = 12.5
_SHIFT = 12.0
_SHIFTS = np.arange(_SHIFT)
_EXP_SHIFT = math.exp(_SHIFT)
_LN_2PI = math.log(2.0 * math.pi)
_AGM_MAX_ITER = 64
# slightly above one ulp of the sum: the iteration may settle into a one-ulp
# limit cycle instead of exact equality
_AGM_RTOL = 2.5e-16
# ``agm_fixed`` stops once both parts of a - b are at most this many units
# of 2^-q: its roots and halvings round down, by under a unit each
_AGM_FIXED_UNITS = 8
_ZETA = complex(-0.5, 0.8660254037844386467637232)
_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_PERM_INDEX = np.array(_PERMS)
# _COMPOSE[a][b] is the index of the permutation j -> _PERMS[a][_PERMS[b][j]].
_COMPOSE = tuple(tuple(_PERMS.index(tuple(pa[j] for j in pb)) for pb in _PERMS)
                 for pa in _PERMS)


def _c128(z) -> np.ndarray:
    return np.atleast_1d(np.asarray(z, dtype=np.complex128))


def _horner(u: np.ndarray, coeffs) -> np.ndarray:
    """sum_k coeffs[k] u^k."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * u + c
    return acc


def _shift_up(w: np.ndarray):
    """(w with 12 added to each entry of modulus below 12, the indices of
    those entries, and their factors w + j, one row per j = 0..11)."""
    idx = np.flatnonzero(np.abs(w) < _SHIFT)
    factors = _SHIFTS[:, None] + w[idx]
    w = w.copy()
    w[idx] += _SHIFT
    return w, idx, factors


def lgamma_array(w) -> np.ndarray:
    """A logarithm of Gamma(w) for Re w >= 1/2 (any branch: callers use its
    exp).  Stirling's series at W = w + 12 for the entries with |w| < 12
    (W = w elsewhere), arranged so that no term is a large multiple of
    log W and no two large terms cancel:

        log Gamma(w) = (w - 1/2) log W - w + log(2 pi)/2 + S(W)
                       - (W - 12 - w) - log(e^12 prod_j (w + j)/W),

    S the Bernoulli tail, j = 0..11; the last two terms only on the shifted
    entries, where W - 12 - w is the rounding error of W.  This is
    log Gamma(W) - log prod_j (w + j) rearranged.
    """
    w = _c128(w)
    big, idx, factors = _shift_up(w)
    r = 1.0 / big
    out = (w - 0.5) * np.log(big) - w + 0.5 * _LN_2PI + r * _horner(r * r, _STIRLING)
    out[idx] -= ((big[idx] - _SHIFT - w[idx])
                 + np.log(_EXP_SHIFT * np.prod(factors / big[idx], axis=0)))
    return out


def gamma_array(z) -> np.ndarray:
    """Complex gamma on an array (no pole screening; wrappers do that): the
    exp of ``lgamma_array``, reflected for Re z < 1/2 in the log domain,

        log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z).

    With z = x + iy and m = expm1(-2 pi |y|), 2 e^(-pi |y|) sin(pi z) is
    (2 + m) sin(pi x') - i sign(y) m cos(pi x'), x' = fmod(x, 2) (x itself
    for |x| < 2): log sin(pi z) stays finite for any finite z off the poles,
    and a real z keeps a real Gamma on (0, 1/2).  Past the double range the
    value is inf or 0, without a warning: 0 wherever exp(Re log Gamma) is,
    and a NaN-free inf wherever it overflows, also where the phase
    Im log Gamma has overflowed.
    """
    z = _c128(z)
    refl = np.flatnonzero(z.real < 0.5)
    zr = z[refl]
    w = z.copy()
    w[refl] = 1.0 - zr
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, y = np.pi * np.fmod(zr.real, 2.0), np.pi * np.abs(zr.imag)
        m = np.expm1(-2.0 * y)
        scaled_sin = (2.0 + m) * np.sin(x) - 1j * np.sign(zr.imag) * m * np.cos(x)
        lg = lgamma_array(w)
        lg[refl] = _LN_2PI - y - np.log(scaled_sin) - lg[refl]
        out = np.exp(lg)
        size = np.exp(lg.real)
        out[size == 0.0] = 0.0
        out[(size == np.inf) & np.isnan(out)] = np.inf
        return out


def digamma_array(z) -> np.ndarray:
    """Complex digamma on an array: reflection of the entries with Re z < 1/2,
    the upward shift of ``lgamma_array``, and the asymptotic tail."""
    z = _c128(z)
    acc = np.zeros(z.shape, dtype=np.complex128)
    refl = np.flatnonzero(z.real < 0.5)
    zr = z[refl]
    with np.errstate(invalid="ignore", divide="ignore"):
        acc[refl] = -np.pi / np.tan(np.pi * zr)
    z = z.copy()
    z[refl] = 1.0 - zr
    w, idx, factors = _shift_up(z)
    acc[idx] -= np.sum(1.0 / factors, axis=0)
    r = 1.0 / w
    u = r * r
    return acc + np.log(w) - 0.5 * r + u * _horner(u, _DIGAMMA_TAIL)


def _agm(a: np.ndarray, b: np.ndarray, s) -> tuple[np.ndarray, np.ndarray, bool]:
    """Optimal AGM of the arrays ``a``, ``b``, with the companion sum
    ``s + sum_n 2^(n-1) c_n^2``, c_n = (a_(n-1) - b_(n-1))/2, that gives E;
    the bool reports convergence.  Its callers start from a = 1 and the
    principal sqrt(1 - x), from which the principal root of a_n b_n is the
    optimal AGM's root (see ``agm_fixed``), so the loop has no sign test."""
    pow2 = 0.5
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(_AGM_MAX_ITER):
            done = np.abs(a - b) <= _AGM_RTOL * (np.abs(a) + np.abs(b))
            if done.all():
                return a, s, True
            c = 0.5 * (a - b)
            pow2 *= 2.0
            s = s + np.where(done, 0.0, pow2 * c * c)
            an = 0.5 * (a + b)
            bn = np.sqrt(a * b)
            a = np.where(done, a, an)
            b = np.where(done, b, bn)
    return a, s, bool(np.all(np.abs(a - b) <= 1e-14 * (np.abs(a) + np.abs(b))))


def ellipke_array(k) -> tuple[np.ndarray, np.ndarray, bool]:
    """(K(k), E(k)) for an array of moduli from one AGM run with the companion
    sum; the bool reports AGM convergence."""
    k = _c128(k)
    a, s, ok = _agm(np.ones(k.shape, dtype=np.complex128), np.sqrt(1.0 - k * k),
                    0.5 * k * k)
    kk = np.pi / (2.0 * a)
    return kk, kk * (1.0 - s), ok


def hyp2f1_half_array(z) -> tuple[np.ndarray, bool]:
    """2F1(1/2,1/2;1;z) on an array via the AGM representation."""
    z = _c128(z)
    m, _, ok = _agm(np.ones(z.shape, dtype=np.complex128), np.sqrt(1.0 - z), 0.0)
    return 1.0 / m, ok


def ellipke_hyp2f1_half_array(k, z) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """(K(k), E(k)) at an array of moduli and 2F1(1/2,1/2;1;z) at an array
    of points from one AGM run over both, the moduli's companion sums
    started at k^2/2 and the points' at 0; the bool reports convergence.
    Each entry's iterates stop where its own do, so every value is the one
    ``ellipke_array`` or ``hyp2f1_half_array`` gives."""
    k, z = _c128(k), _c128(z)
    n = len(k)
    a, s, ok = _agm(np.ones(n + len(z), dtype=np.complex128),
                    np.sqrt(1.0 - np.concatenate([k * k, z])),
                    np.concatenate([0.5 * k * k, np.zeros(len(z))]))
    kk = np.pi / (2.0 * a[:n])
    return kk, kk * (1.0 - s[:n]), 1.0 / a[n:], ok


def _gauss_sqrt(x: int, y: int) -> tuple[int, int]:
    """The principal square root of x + iy, rounded down: for x + iy in
    units of 2^(-2q), the root in units of 2^-q.  The larger part of the
    root comes from ``math.isqrt`` and the other from y = 2 re im, so
    neither cancels."""
    r = math.isqrt(x * x + y * y)
    if x >= 0:
        re = math.isqrt((r + x) >> 1)
        return re, (y // (2 * re) if re else 0)
    im = math.isqrt((r - x) >> 1)
    return abs(y) // (2 * im), (im if y >= 0 else -im)


def agm_fixed(u: tuple[int, int], q: int) -> tuple[tuple, tuple, bool]:
    """The optimal AGM of 1 and sqrt(u), with its companion sum, on
    fixed-point Gaussian integers: ``_agm`` at q fractional bits.  From
    a = 1 and the principal sqrt(u), a_n and b_n stay in the closed right
    half-plane, and the principal root of a_n b_n lies in the angle between
    them, as their mean does; so that root keeps Re(b conj a) >= 0, the
    optimal AGM's sign, and this loop and ``_agm`` take it with no sign
    test.

    ``u`` holds u 2^(2q) as a (real, imaginary) pair of ints.  Returns
    (M, R, ok): M = AGM(1, sqrt u) 2^q and R = (1 - k^2/2 - sum_n 2^(n-1)
    c_n^2) 2^(2q+2) with k^2 = 1 - u, c_n = (a_(n-1) - b_(n-1))/2, so that
    1/M is 2F1(1/2, 1/2; 1; 1 - u) and E(k) = K(k) R once scaled back.
    R starts from (1 + u)/2 = 1 - k^2/2 and takes each term exactly, so it
    does not cancel as k -> 1.  Each halving and root rounds down, so
    |a - b| settles within a few units of 2^-q, where the loop stops;
    ``ok`` reports that it did.
    """
    ar, ai = 1 << q, 0
    br, bi = _gauss_sqrt(*u)
    rr, ri = (1 << (2 * q + 1)) + 2 * u[0], 2 * u[1]
    for n in range(_AGM_MAX_ITER):
        cr, ci = ar - br, ai - bi
        if max(abs(cr), abs(ci)) <= _AGM_FIXED_UNITS:
            return (ar, ai), (rr, ri), True
        rr -= (cr * cr - ci * ci) << n
        ri -= (2 * cr * ci) << n
        g = _gauss_sqrt(ar * br - ai * bi, ar * bi + ai * br)
        ar, ai = (ar + br) >> 1, (ai + bi) >> 1
        br, bi = g
    return (ar, ai), (rr, ri), False


def _fiber_roots(zs) -> np.ndarray:
    """Cardano roots of X^3 + h^2 X^2 + h X + 1/4 with h = z/2, for every z
    in ``zs``; shape (..., 3), in arbitrary order."""
    h = 0.5 * np.asarray(zs, dtype=np.complex128)
    b, c, d = h * h, h, 0.25
    p = c - b * b / 3.0
    q = 2.0 * b * b * b / 27.0 - b * c / 3.0 + d
    s = np.sqrt(0.25 * q * q + p * p * p / 27.0)
    u3a = -0.5 * q + s
    u3b = -0.5 * q - s
    u3 = np.where(np.abs(u3a) >= np.abs(u3b), u3a, u3b)
    degen = u3 == 0.0
    u = np.where(degen, 1.0, u3) ** (1.0 / 3.0)
    roots = []
    w = u
    for _ in range(3):
        x = w - p / (3.0 * w) - b / 3.0
        roots.append(np.where(degen, -b / 3.0, x))
        w = w * _ZETA
    return np.stack(roots, axis=-1)


def cubic_roots(z: complex) -> np.ndarray:
    """Roots of X^3 + (z/2)^2 X^2 + (z/2) X + 1/4, arbitrary order."""
    return _fiber_roots(complex(z))


def track_roots(zs, seed) -> np.ndarray:
    """Root triples along a z-sample array, labels continued from ``seed``:
    each triple is the reordering of the fresh roots closest, in total
    squared distance, to the triple before it.

    Relabelling two triples alike leaves their distance unchanged, so the
    best reordering against the tracked previous triple is the best one
    against the raw previous triple, composed with the previous labels.
    Every step is matched raw to raw in one array pass (``argmin`` keeps
    the first of tied permutations); only the composition of the labels is
    a scan over small integers.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    raw = _fiber_roots(zs)
    prev = np.concatenate([np.asarray(seed, dtype=np.complex128)[None], raw[:-1]])
    d2 = np.abs(raw[:, _PERM_INDEX] - prev[:, None, :]) ** 2
    step = np.argmin(d2[..., 0] + d2[..., 1] + d2[..., 2], axis=1)
    labels = itertools.accumulate(step.tolist(), lambda lab, q: _COMPOSE[q][lab])
    return np.take_along_axis(raw, _PERM_INDEX[list(labels)], axis=1)


def segment_integrals(xa, xb, xc, n: int) -> np.ndarray:
    """n-node Gauss-Chebyshev quadrature of dX/sqrt((X-xa)(X-xb)(X-xc)) from
    xa to xb on the Euler branch, one value per entry of the equal-length
    arrays ``xa``, ``xb``, ``xc``.

    With X = xa + (xb-xa) t the integral is Int_0^1 dt / sqrt(t(1-t)) times
    (1 - sigma t)^(-1/2) / sqrt(xc-xa), sigma = (xb-xa)/(xc-xa): the
    Chebyshev weight is the segment's own pair of roots, so the rule sums
    (1 - sigma t_i)^(-1/2) alone.  Principal roots give the branch that is
    continuous along the open segment, because 1 - sigma t, a straight
    segment from 1 to 1 - sigma, meets the cut (-inf, 0] only when xc lies
    on the segment itself; no sign is continued from node to node.
    """
    xa, xb, xc = (_c128(v) for v in (xa, xb, xc))
    t = 0.5 * (1.0 + np.cos((2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n)))
    sigma = (xb - xa) / (xc - xa)
    total = np.sum(1.0 / np.sqrt(1.0 - sigma[:, None] * t), axis=1)
    return total * (np.pi / n) / np.sqrt(xc - xa)


def segment_integral(xa, xb, xc, n: int) -> complex:
    """Euler-branch quadrature of dX/sqrt(cubic) along the segment xa -> xb
    (one segment of ``segment_integrals``)."""
    return complex(segment_integrals(xa, xb, xc, int(n))[0])
