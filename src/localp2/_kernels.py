"""Low-level numeric kernels, vectorized over numpy arrays.

Complex Lanczos gamma, digamma, AGM elliptic integrals and 2F1(1/2,1/2;1;.),
Cardano root solving with continuity tracking, and Gauss-Chebyshev segment
quadrature of dX/sqrt(cubic) on the Euler branch.  Each kernel has one
implementation, written as array operations so a whole batch of inputs costs
one call.

Every public function here is deterministic and allocation-light.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# The one numeric backend.  Kept only because the benchmark's provenance
# record (``perfbench/run.py``) reads it.
BACKEND = "numpy"

# Lanczos coefficients, g = 607/128, 15 terms.  Relative error of the rational
# part is ~1e-15 on the right half plane, which keeps gamma below 1e-13
# relative error for |z| <= 30 after the reflection step.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        0.33994649984811888699e-4,
        0.46523628927048575665e-4,
        -0.98374475304879564677e-4,
        0.15808870322491248884e-3,
        -0.21026444172410488319e-3,
        0.21743961811521264320e-3,
        -0.16431810653676389022e-3,
        0.84418223983852743293e-4,
        -0.26190838401581408670e-4,
        0.36899182659531622704e-5,
    ]
)

# Asymptotic digamma tail: -B_{2n}/(2n) as multipliers of z^{-2n}.
_DIGAMMA_TAIL = np.array(
    [
        -1.0 / 12.0,
        1.0 / 120.0,
        -1.0 / 252.0,
        1.0 / 240.0,
        -1.0 / 132.0,
        691.0 / 32760.0,
        -1.0 / 12.0,
    ]
)

_DIGAMMA_SHIFT_RADIUS = 12.0
_AGM_MAX_ITER = 64
# slightly above one ulp of the sum: the iteration may settle into a one-ulp
# limit cycle instead of exact equality
_AGM_RTOL = 2.5e-16
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_ZETA = complex(-0.5, 0.8660254037844386467637232)
_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_PERM_INDEX = np.array(_PERMS)
# _COMPOSE[a][b] is the index of the permutation j -> _PERMS[a][_PERMS[b][j]].
_COMPOSE = tuple(tuple(_PERMS.index(tuple(pa[j] for j in pb)) for pb in _PERMS)
                 for pa in _PERMS)


def _c128(z) -> np.ndarray:
    return np.atleast_1d(np.asarray(z, dtype=np.complex128))


def gamma_array(z) -> np.ndarray:
    """Complex gamma on an array (no pole screening; wrappers do that)."""
    z = _c128(z)
    refl = z.real < 0.5
    zz = np.where(refl, 1.0 - z, z) - 1.0
    x = np.full(zz.shape, _LANCZOS_C[0], dtype=np.complex128)
    for k in range(1, 15):
        x += _LANCZOS_C[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    g = _SQRT_2PI * t ** (zz + 0.5) * np.exp(-t) * x
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        reflected = np.pi / (np.sin(np.pi * z) * g)
    return np.where(refl, reflected, g)


def digamma_array(z) -> np.ndarray:
    """Complex digamma on an array: reflection, upward shift, asymptotic tail."""
    z = _c128(z)
    acc = np.zeros(z.shape, dtype=np.complex128)
    refl = z.real < 0.5
    with np.errstate(invalid="ignore", divide="ignore"):
        acc = np.where(refl, -np.pi / np.tan(np.pi * z), acc)
    z = np.where(refl, 1.0 - z, z)
    for _ in range(14):
        small = np.abs(z) < _DIGAMMA_SHIFT_RADIUS
        if not small.any():
            break
        acc = np.where(small, acc - 1.0 / z, acc)
        z = np.where(small, z + 1.0, z)
    inv2 = 1.0 / (z * z)
    tail = np.zeros(z.shape, dtype=np.complex128)
    p = inv2.copy()
    for k in range(7):
        tail += _DIGAMMA_TAIL[k] * p
        p = p * inv2
    return acc + np.log(z) - 0.5 / z + tail


def _agm(a: np.ndarray, b: np.ndarray, s) -> tuple[np.ndarray, np.ndarray, bool]:
    """Optimal AGM of the arrays ``a``, ``b``, with the companion sum
    ``s + sum_n 2^(n-1) c_n^2``, c_n = (a_(n-1) - b_(n-1))/2, that gives E;
    the bool reports convergence."""
    pow2 = 0.5
    for _ in range(_AGM_MAX_ITER):
        done = np.abs(a - b) <= _AGM_RTOL * (np.abs(a) + np.abs(b))
        if done.all():
            return a, s, True
        c = 0.5 * (a - b)
        pow2 *= 2.0
        s = s + np.where(done, 0.0, pow2 * c * c)
        an = 0.5 * (a + b)
        bn = np.sqrt(a * b)
        # the "optimal" AGM: the root's sign keeps |a-b| <= |a+b|, and ties
        # break toward Im(b/a) > 0
        d_minus = np.abs(an - bn)
        d_plus = np.abs(an + bn)
        with np.errstate(invalid="ignore", divide="ignore"):
            tie = (d_minus == d_plus) & (an != 0) & ((bn / np.where(an == 0, 1, an)).imag < 0)
        bn = np.where((d_minus > d_plus) | tie, -bn, bn)
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
