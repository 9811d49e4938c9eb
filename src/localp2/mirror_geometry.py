"""Elliptic-fibration periods over the base coordinate of the mirror curve.

The fiber over z is the double cover Y^2 = X^3 + (z/2)^2 X^2 + (z/2) X + 1/4.
Along a sampled ray from the origin its branch roots are tracked with
continuous labels (``_kernels.track_roots``, seeded by the exact roots at
z = 0 and guarded by ``_check_tracked``).  Each segment family, twice the
integral of dX/sqrt(cubic) between two labeled roots, is Euler's complete
elliptic integral on the segment's branch; all three, at every ray node,
come from one AGM run (``_kernels.segment_integrals``), sign-threaded along
the ray from z = 0.  The three-cycle periods are contour integrals of a fixed
two-segment fiber combination h_k(z) from the degeneration point
z_* = -y^(-1/3) through the origin to the critical value 3 OMEGA^k.

The contour splits at the origin.  The critical ray 0 -> 3 OMEGA^k does not
depend on y and is worth exactly -8 pi^2 (-1)^k / 3, so

    I_k(y) = (-1)^k/3 + (1/8 pi^2) Int_0^{z_*} h_k(z) dz.

The degeneration ray is short (|z_*| < 1/3 for |y| > 27) and far from the
critical values, so one 6-node Gauss-Legendre rule integrates it to
rounding, and its error has an a-priori bound (``_ray_error_bound``) from a
pinned majorant of |h_k| on the disc |z| <= 3/2; the critical ray, whose
endpoint is a root collision, is integrated only as a check
(``critical_ray_constants``, tanh-sinh).

Conventions frozen here (measured, not assumed):
  * internal primitive cube root ``OMEGA = exp(2 pi i/3)``; critical values
    are ``3 * OMEGA**k`` and the cycle with index k ends at exactly that
    point;
  * per-cycle segment combinations and their signs are seeded at z = 0 and
    normalized so the alternating sum of the three periods equals +1.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import DomainError, QuadratureError, RootCollisionError
from .specfun import PrecisionConfig

__all__ = [
    "OMEGA",
    "PeriodVector",
    "CRITICAL_VALUES",
    "critical_points",
    "periods",
    "critical_ray_constants",
]

OMEGA = cmath.exp(2j * cmath.pi / 3)

# Critical values of the elliptic fibration: the fiber degenerates at 3 OMEGA^k.
CRITICAL_VALUES = (3.0 + 0.0j, 3.0 * OMEGA, 3.0 * OMEGA ** 2)

_ROOT_SCALE = 2.0 ** (-2.0 / 3.0)

PATH_CLEARANCE = 1e-6
COLLISION_TOL = 1e-9
VIETA_TOL = 1e-12
MAX_ROOT_STEP = 0.25

# Fiber-cycle combination entering the period contour for each cycle index:
# list of (sign, segment family) pairs, where family m is the Euler-branch
# integral 2*Int dX/sqrt(cubic) from root m to root m+1, sign-threaded along
# the ray.  Signs are the once-per-cycle seeds at z = 0; they are fixed by
# the torus normalization (alternating period sum = +1) and by the large-|y|
# solution series, which the periods match through the integer transfer matrix.
_CYCLE_SEGMENTS = {
    0: ((-1, 0), (-1, 2)),
    1: ((+1, 1), (-1, 2)),
    2: ((+1, 0), (+1, 1)),
}

_EIGHT_PI_SQ = 8.0 * math.pi ** 2

# Newton steps of a Gauss-Legendre node solve: from Tricomi's nodes two
# reach about 1e-9, the third rounding, for every n from 2 to 100.
_GL_NEWTON_STEPS = 3
# Rounding level of a period value; no error estimate reports less.
_ROUNDING_FLOOR = 1e-15
# A disc about the origin and a majorant of every |h_k| on it.  The largest
# |h_k| sampled on |z| <= 3/2 is 12.4.  No root crosses a family's segment
# in the disc (sampled: every sigma stays 0.29 from the cut [1, inf)), so
# the threaded values there are h_k's analytic continuation; past
# |z| = 1.9 a root crosses one on the critical rays.
_H_DISC_RADIUS = 1.5
_H_MAJORANT = 16.0
# Tanh-sinh step and half-width (in steps) of the critical-ray check.
_TS_STEP = 1.0 / 16.0
_TS_LEVELS = 64


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class PeriodVector(NamedTuple):
    """The three contour periods at one modulus value, with error estimates."""

    i0: complex
    i1: complex
    i2: complex
    y: complex
    err: tuple

    def as_vector(self) -> list:
        return [self.i0, self.i1, self.i2]

    def alternating_sum(self) -> complex:
        return self.i0 - self.i1 + self.i2


# ---------------------------------------------------------------------------
# critical points and root tracking
# ---------------------------------------------------------------------------


def critical_points(y: complex):
    """Degeneration point z_* and the three elliptic critical values.

    z_* = -y^(-1/3) (principal root) is where the ambient C*-fiber pinches;
    the elliptic fiber itself degenerates at the cube roots 3*OMEGA**k.
    """
    y = complex(y)
    if not cmath.isfinite(y):
        raise DomainError(f"critical points need a finite modulus, got {y}")
    if y == 0:
        raise DomainError("critical points undefined at y = 0")
    return (-_inv_cbrt(y), *CRITICAL_VALUES)


def _inv_cbrt(y: complex) -> complex:
    """y^(-1/3), principal branch, for finite y != 0.

    Each part of y is scaled by 2^(-3k), exactly and keeping the sign of a
    zero part, so that the larger lies in [1/2, 4); the root of the scaled
    value is scaled back by 2^(-k).  No |y| up to the largest double
    overflows, and the rounded exponent -1.0/3.0 acts on a modulus near 1:
    unscaled it costs |ln|y|| * 1.9e-17 relative, 1.3e-14 at 1e307, and
    exp(-log(y)/3) costs the rounding of log y over 3, 1.0e-14 there.
    """
    k = math.frexp(max(abs(y.real), abs(y.imag)))[1] // 3
    w = complex(math.ldexp(y.real, -3 * k), math.ldexp(y.imag, -3 * k))
    return w ** (-1.0 / 3.0) * 2.0 ** -k


def _ln_abs(y: complex) -> float:
    """log|y|, -inf at y = 0; |y| itself overflows near the largest complex
    doubles."""
    return cmath.log(y).real if y != 0 else -math.inf


def _origin_triple() -> np.ndarray:
    """Exact labeled roots at z = 0: x_j = -2^(-2/3) OMEGA^j."""
    return np.array([-_ROOT_SCALE * OMEGA ** j for j in range(3)],
                    dtype=np.complex128)


def _check_tracked(zs: np.ndarray, roots: np.ndarray, endpoints) -> None:
    """Vieta, collision and step-bound guards on a tracked root array."""
    h = 0.5 * zs
    e1 = np.abs(roots.sum(axis=1) + h * h)
    e2 = np.abs(roots[:, 0] * roots[:, 1] + roots[:, 0] * roots[:, 2]
                + roots[:, 1] * roots[:, 2] - h)
    e3 = np.abs(roots.prod(axis=1) + 0.25)
    scale = np.maximum(1.0, np.abs(h) ** 2)
    worst = max(np.max(e1 / scale), np.max(e2 / scale), np.max(e3 / scale))
    if worst > 10.0 * VIETA_TOL:
        raise DomainError(f"cubic solve lost precision: vieta residual {worst:.3e}")
    gaps = np.minimum(
        np.abs(roots[:, 0] - roots[:, 1]),
        np.minimum(np.abs(roots[:, 0] - roots[:, 2]),
                   np.abs(roots[:, 1] - roots[:, 2])))
    tight = gaps < COLLISION_TOL
    if tight.any():
        for z in zs[tight]:
            if min(abs(z - complex(e)) for e in endpoints) > PATH_CLEARANCE:
                raise RootCollisionError(
                    f"roots collide at z = {z:.6g}, away from any declared "
                    "endpoint; path runs into the discriminant")
    if len(roots) > 1:
        step = np.max(np.abs(np.diff(roots, axis=0)))
        if step > MAX_ROOT_STEP:
            raise DomainError(
                f"root step {step:.3g} exceeds bound {MAX_ROOT_STEP}; "
                "refine the path sampling")


# ---------------------------------------------------------------------------
# period quadrature
# ---------------------------------------------------------------------------


def _gauss_legendre(n: int):
    """n-node Gauss-Legendre rule on [0, 1]: (nodes ascending, weights).

    Newton's method in theta = arccos(x) on the cosine series
    P_n(cos theta) = sum_k a_k a_(n-k) cos((n - 2k) theta), with
    a_k = (2k)! / (4^k k!^2) (Swarztrauber 2002), from Tricomi's asymptotic
    nodes for a fixed ``_GL_NEWTON_STEPS`` steps.  In theta the weight on
    [0, 1] is 1 / (dP_n/dtheta)^2.
    """
    m = np.arange(n, -n - 1, -2.0)
    a = np.cumprod(np.concatenate(([1.0], 1.0 - 0.5 / np.arange(1.0, n + 1))))
    c = a * a[::-1]
    cm = c * m
    theta = np.pi * (4.0 * np.arange(n, 0, -1.0) - 1.0) / (4.0 * n + 2.0)
    for _ in range(_GL_NEWTON_STEPS):
        mt = np.multiply.outer(theta, m)
        theta = theta + (np.cos(mt) * c).sum(axis=1) / (np.sin(mt) * cm).sum(axis=1)
    dp = (np.sin(np.multiply.outer(theta, m)) * cm).sum(axis=1)
    return 0.5 * (1.0 + np.cos(theta)), 1.0 / (dp * dp)


# The degeneration-ray rule, built once per process.  At |y| = 27, the
# longest ray, its ``_ray_error_bound`` is 5.4e-16, under the rounding floor.
_RAY_GRID = _gauss_legendre(6)


def _ray_error_bound(z_star: complex, m: int) -> float:
    """A-priori error of the m-node Gauss-Legendre rule on 0 -> z_*, over 8 pi^2.

    Trefethen, *Approximation Theory and Approximation Practice*, Thm 19.3:
    if f is analytic with |f| <= M inside the Bernstein ellipse E_rho of
    [-1, 1], the (n+1)-point Gauss rule errs by at most
    (64/15) M rho^(-2n) / (rho^2 - 1); here n = m - 1, and the ray's
    half-length |z_*|/2 scales [-1, 1] onto it.  rho is the largest with
    the ellipse about [0, z_*] inside the disc |z| <= R where |h_k| <= M:
    (|z_*|/2)(1 + (rho + 1/rho)/2) = R.
    """
    half = 0.5 * abs(z_star)
    c = _H_DISC_RADIUS / half - 1.0
    rho = c + math.sqrt(c * c - 1.0)
    return (64.0 / 15.0 * _H_MAJORANT * rho ** (2 - 2 * m) / (rho * rho - 1.0)
            * half / _EIGHT_PI_SQ)


def _tanh_sinh():
    """Tanh-sinh rule on [0, 1] (Takahasi & Mori 1974): nodes ascending, at
    step ``_TS_STEP`` and half-width ``_TS_LEVELS`` steps.

    The nodes crowd double-exponentially into both ends, which resolves the
    endpoint where two branch roots collide.  Nodes that round onto an end
    (t = 1 is the collision itself) are dropped; at step 1/16 their weights
    sum to 8e-17 per end.
    """
    j = np.arange(-_TS_LEVELS, _TS_LEVELS + 1) * _TS_STEP
    u = 0.5 * math.pi * np.sinh(j)
    t = 0.5 * (1.0 + np.tanh(u))
    w = 0.25 * math.pi * _TS_STEP * np.cosh(j) / np.cosh(u) ** 2
    keep = (t > 0.0) & (t < 1.0)
    return t[keep], w[keep]


def _threaded_families(roots: np.ndarray) -> np.ndarray:
    """Segment-family values along tracked rays, sign-threaded from z = 0.

    ``roots`` holds the labeled root triples of one ray, shape (N, 3), or
    of several stacked rays, shape (..., N, 3), with the nodes of a ray on
    the next-to-last axis; column m of the result is family m at each node.
    The z = 0 anchor heads every ray in one AGM run over all rays, rows and
    families (QuadratureError if it does not converge); each entry's
    iterates stop where its own do, so a value does not depend on what else
    shares the run.  Each value takes the sign that keeps it closer to its
    predecessor than to its negative; a flip of the predecessor only swaps
    the two distances, so the signs are a running product of flips between
    the raw values.

    A sign continues a family only while no root crosses its segment.  On
    each critical ray the third root crosses one family's segment, between
    t = 0.64 and 0.69 (family 1 on the ray to 3, family 0 to 3 OMEGA,
    family 2 to 3 OMEGA^2): sigma crosses the cut [1, inf) of 2F1, the raw
    value turns by 90 degrees, and an exact tie of the two distances, broken
    by rounding, picks its sign from there on.  That family is not continued
    past the crossing, and no cycle read on that ray uses it
    (``_CYCLE_SEGMENTS``).
    """
    origin = np.broadcast_to(_origin_triple(), roots.shape[:-2] + (1, 3))
    rows = np.concatenate([origin, roots], axis=-2)
    vals, ok = _kernels.segment_integrals(rows, np.roll(rows, -1, axis=-1),
                                          np.roll(rows, -2, axis=-1))
    if not ok:
        raise QuadratureError("the fiber segment AGM did not converge")
    vals = 2.0 * vals
    prev, vals = vals[..., :-1, :], vals[..., 1:, :]
    flip = np.abs(vals - prev) > np.abs(vals + prev)
    return vals * np.cumprod(np.where(flip, -1.0, 1.0), axis=-2)


def _tracked_ray(endpoint: complex, t: np.ndarray) -> np.ndarray:
    """Labeled root triples at the parameters ``t`` of the ray 0 -> endpoint,
    continued from z = 0 and checked by ``_check_tracked``."""
    zs = t * endpoint
    tracked = _kernels.track_roots(zs, _origin_triple())
    _check_tracked(zs, tracked, (0.0j, endpoint))
    return tracked


def _ray_integrals(endpoint: complex, t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Integrals of the three segment families along the ray 0 -> endpoint.

    ``t`` and ``weights`` are a quadrature rule on [0, 1], nodes ascending;
    entry m of the result is family m's integral.
    """
    return weights @ _threaded_families(_tracked_ray(endpoint, t)) * endpoint


def _cycle_combination(family_values: np.ndarray, k: int):
    (sa, a), (sb, b) = _CYCLE_SEGMENTS[k]
    return sa * family_values[..., a] + sb * family_values[..., b]


def _period_modulus(y) -> complex:
    y = complex(y)
    if not cmath.isfinite(y):
        raise DomainError(f"period modulus must be finite, got {y}")
    # |y| decides near 27, where log|y| rounds; far out |y| can overflow
    if _ln_abs(y) < 4.0 and not abs(y) > 27.0:
        raise DomainError(f"periods require |y| > 27, got |y| = {abs(y):.4g}")
    return y


def periods(y: complex, quad: PrecisionConfig | None = None) -> PeriodVector:
    """All three periods at one modulus value, with error estimates.

    The contour z_* -> 0 -> 3 OMEGA^k splits at the origin.  The critical
    ray 0 -> 3 OMEGA^k does not depend on y and contributes exactly
    (-1)^k/3 (``critical_ray_constants`` checks it by quadrature).  The
    degeneration ray 0 -> z_* has |z_*| < 1/3, far from the critical values
    at |z| = 3, so its integrand is analytic there and one 6-node
    Gauss-Legendre rule (``_RAY_GRID``) resolves it, on one tracked and
    sign-threaded pass over the three segment families.  ``err`` is that
    rule's a-priori bound (``_ray_error_bound``, at most 5.4e-16), floored
    at 1e-15.  Raises QuadratureError if an estimate exceeds
    ``quad.target_rel_err`` (default 1e-9) times max(1, |I_k|), or if the
    fiber AGM does not converge.
    """
    y = _period_modulus(y)
    tol = 1e-9 if quad is None else quad.target_rel_err
    z_star = critical_points(y)[0]
    fam = _ray_integrals(z_star, *_RAY_GRID)
    err = max(_ray_error_bound(z_star, len(_RAY_GRID[0])), _ROUNDING_FLOOR)
    vals = [(-1.0) ** k / 3.0 + complex(_cycle_combination(fam, k)) / _EIGHT_PI_SQ
            for k in range(3)]
    for k, value in enumerate(vals):
        if err > tol * max(1.0, abs(value)):
            raise QuadratureError(
                f"period {k} not converged on the degeneration ray "
                f"0 -> z_*: err {err:.3e} > tol {tol:.1e}")
    return PeriodVector(*vals, y, (err,) * 3)


def critical_ray_constants() -> tuple:
    """The constant terms of the three periods, by direct quadrature.

    Integrates the cycle-k fiber combination along the critical ray
    0 -> 3 OMEGA^k with a tanh-sinh rule and returns -1/(8 pi^2) times each
    integral.  The exact values are (-1)^k/3, which ``periods`` uses in
    their place; this is the check that the two agree.  The three rays are
    tracked one by one and sign-threaded in one AGM run.
    """
    t, w = _tanh_sinh()
    fam = _threaded_families(np.stack([_tracked_ray(end, t) for end in CRITICAL_VALUES]))
    return tuple(-complex(_cycle_combination(w @ fam[k] * end, k)) / _EIGHT_PI_SQ
                 for k, end in enumerate(CRITICAL_VALUES))
