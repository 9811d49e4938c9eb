"""Low-level numeric kernels, vectorized over numpy arrays.

Complex Lanczos gamma, digamma, AGM elliptic integrals and 2F1(1/2,1/2;1;.),
Cardano root solving with continuity tracking, and branch-tracked segment
quadrature of dX/sqrt(cubic).  Each kernel has one implementation, written
as array operations so a whole batch of inputs costs one call.

Every public function here is deterministic and allocation-light.
"""

from __future__ import annotations

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


def _agm_sign_fix(an: np.ndarray, bn: np.ndarray) -> np.ndarray:
    """Square-root sign keeping |a-b| <= |a+b| (the "optimal" AGM); ties
    break toward Im(b/a) > 0."""
    d_minus = np.abs(an - bn)
    d_plus = np.abs(an + bn)
    flip = d_minus > d_plus
    with np.errstate(invalid="ignore", divide="ignore"):
        tie = (d_minus == d_plus) & (an != 0) & ((bn / np.where(an == 0, 1, an)).imag < 0)
    return np.where(flip | tie, -bn, bn)


def _agm(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    a = np.array(a, dtype=np.complex128)
    b = np.array(b, dtype=np.complex128)
    for _ in range(_AGM_MAX_ITER):
        done = np.abs(a - b) <= _AGM_RTOL * (np.abs(a) + np.abs(b))
        if done.all():
            return a, True
        an = 0.5 * (a + b)
        bn = _agm_sign_fix(an, np.sqrt(a * b))
        a = np.where(done, a, an)
        b = np.where(done, b, bn)
    return a, bool(np.all(np.abs(a - b) <= 1e-14 * (np.abs(a) + np.abs(b))))


def ellipke_array(k) -> tuple[np.ndarray, np.ndarray, bool]:
    """(K(k), E(k)) for an array of moduli from one AGM run with the companion
    sum; the bool reports AGM convergence."""
    k = _c128(k)
    a = np.ones(k.shape, dtype=np.complex128)
    b = np.sqrt(1.0 - k * k)
    s = 0.5 * k * k
    pow2 = 0.5
    for _ in range(_AGM_MAX_ITER):
        done = np.abs(a - b) <= _AGM_RTOL * (np.abs(a) + np.abs(b))
        if done.all():
            ok = True
            break
        c = 0.5 * (a - b)
        pow2 *= 2.0
        s = s + np.where(done, 0.0, pow2 * c * c)
        an = 0.5 * (a + b)
        bn = _agm_sign_fix(an, np.sqrt(a * b))
        a = np.where(done, a, an)
        b = np.where(done, b, bn)
    else:
        ok = bool(np.all(np.abs(a - b) <= 1e-14 * (np.abs(a) + np.abs(b))))
    kk = np.pi / (2.0 * a)
    return kk, kk * (1.0 - s), ok


def hyp2f1_half_array(z) -> tuple[np.ndarray, bool]:
    """2F1(1/2,1/2;1;z) on an array via the AGM representation."""
    z = _c128(z)
    m, ok = _agm(np.ones(z.shape, dtype=np.complex128), np.sqrt(1.0 - z))
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
    squared distance, to the triple before it."""
    zs = np.asarray(zs, dtype=np.complex128)
    raw = _fiber_roots(zs)
    out = np.empty_like(raw)
    prev = np.asarray(seed, dtype=np.complex128)
    for i in range(raw.shape[0]):
        r = raw[i]
        best = None
        best_d = np.inf
        for p in _PERMS:
            d = (abs(r[p[0]] - prev[0]) ** 2 + abs(r[p[1]] - prev[1]) ** 2
                 + abs(r[p[2]] - prev[2]) ** 2)
            if d < best_d:
                best_d = d
                best = p
        prev = r[list(best)]
        out[i] = prev
    return out


def segment_integrals(xa, xb, xc, n: int) -> np.ndarray:
    """Gauss-Chebyshev quadrature of dX/sqrt((X-xa)(X-xb)(X-xc)) from xa to
    xb, one value per entry of the equal-length arrays ``xa``, ``xb``, ``xc``.

    The square root of the cubic is evaluated at the n nodes of each segment
    and its sign is continued from node to node along the segment.  The
    branch is seeded at the first node against the product of principal
    square roots in the scaled variable, which is the continuous (Euler
    integral) branch on the open segment.
    """
    xa, xb, xc = (_c128(v) for v in (xa, xb, xc))
    t = 0.5 * (1.0 + np.cos((2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n)))
    w = np.sqrt(t * (1.0 - t))
    span = xb - xa
    x = xa[:, None] + span[:, None] * t
    sq = np.sqrt((x - xa[:, None]) * (x - xb[:, None]) * (x - xc[:, None]))
    ref0 = span * np.sqrt(xc - xa) * w[0] * np.sqrt(1.0 - span / (xc - xa) * t[0])
    sq0 = sq[:, 0]
    sq[:, 0] = np.where(np.abs(sq0 - ref0) > np.abs(sq0 + ref0), -sq0, sq0)
    # The principal value jumps branch between nodes i-1 and i exactly when
    # |sq_i - sq_{i-1}| > |sq_i + sq_{i-1}|, and a flip of either side only
    # swaps the two, so the continued signs are a running product of jumps.
    jump = np.abs(np.diff(sq, axis=1)) > np.abs(sq[:, 1:] + sq[:, :-1])
    sq[:, 1:] *= np.cumprod(np.where(jump, -1.0, 1.0), axis=1)
    return np.sum(w / sq, axis=1) * span * np.pi / n


def segment_integral(xa, xb, xc, n: int) -> complex:
    """Branch-tracked quadrature of dX/sqrt(cubic) along the segment xa -> xb
    (one segment of ``segment_integrals``)."""
    return complex(segment_integrals(xa, xb, xc, int(n))[0])
