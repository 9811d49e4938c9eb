"""Elliptic-fibration geometry over the base coordinate of the mirror curve.

The fiber over z is the double cover Y^2 = X^3 + (z/2)^2 X^2 + (z/2) X + 1/4.
Its branch roots are tracked with continuous labels along polyline paths, the
one-dimensional vanishing-cycle integrals are evaluated both through a
two-term hypergeometric closed form and through branch-tracked quadrature,
and the three-cycle periods are contour integrals of a fixed two-segment
fiber combination h_k(z) from the degeneration point z_* = -y^(-1/3) through
the origin to the critical value 3 OMEGA^k.

The contour splits at the origin.  The critical ray 0 -> 3 OMEGA^k does not
depend on y and is worth exactly -8 pi^2 (-1)^k / 3, so

    I_k(y) = (-1)^k/3 + (1/8 pi^2) Int_0^{z_*} h_k(z) dz.

The degeneration ray is short (|z_*| < 1/3 for |y| > 27) and far from the
critical values, so one Gauss-Legendre panel integrates it to rounding; the
critical ray, whose endpoint is a root collision, is integrated only as a
check (``critical_ray_constants``, tanh-sinh).

Conventions frozen here (measured, not assumed):
  * internal primitive cube root ``OMEGA = exp(2 pi i/3)``; critical values
    are ``3 * OMEGA**k`` and the cycle with index k ends at exactly that
    point;
  * per-cycle segment combinations and their signs are seeded at z = 0 and
    normalized so the alternating sum of the three periods equals +1;
  * the large-|y| tails of the periods carry sixth-root-of-unity phases
    ``TAIL_PHASE**k`` and ``TAIL_PHASE**(-k)`` on the y^(-1/3) and y^(-2/3)
    terms respectively.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, QuadratureError, RootCollisionError
from .specfun import PrecisionConfig, hyp2f1_half, f_prime_minus_omega

__all__ = [
    "OMEGA",
    "TAIL_PHASE",
    "CubicRoots",
    "PathZ",
    "PeriodVector",
    "CRITICAL_VALUES",
    "critical_points",
    "roots_at_origin",
    "cubic_roots_along",
    "vanishing_integral_Jk",
    "jk_quadrature",
    "period_Ik",
    "periods",
    "critical_ray_constants",
    "b_expansion",
    "expected_period_tail",
    "f_at_origin",
    "f_prime_at_origin",
]

OMEGA = cmath.exp(2j * cmath.pi / 3)

# Critical values of the elliptic fibration: the fiber degenerates at 3 OMEGA^k.
CRITICAL_VALUES = (3.0 + 0.0j, 3.0 * OMEGA, 3.0 * OMEGA ** 2)

# Phase base of the period tails.  A sixth root: the cube-root rotation of the
# fibration composed with the orientation flip of alternating cycles.
TAIL_PHASE = cmath.exp(1j * cmath.pi / 3)

_ROOT_SCALE = 2.0 ** (-2.0 / 3.0)
_G13 = math.gamma(1.0 / 3.0) ** 3
_G23 = math.gamma(2.0 / 3.0) ** 3

# |coefficients| of the y^(-1/3) and y^(-2/3) period tails.
TAIL_COEFF_1 = math.sqrt(3.0) * _G13 / (8.0 * math.pi ** 3)
TAIL_COEFF_2 = math.sqrt(3.0) * _G23 / (16.0 * math.pi ** 3)

PATH_CLEARANCE = 1e-6
COLLISION_TOL = 1e-9
VIETA_TOL = 1e-12
MAX_ROOT_STEP = 0.25

# Fiber-cycle combination entering the period contour for each cycle index:
# list of (sign, segment family) pairs, where family m is the branch-tracked
# integral 2*Int dX/sqrt(cubic) from root m to root m+1.  Signs are the
# once-per-cycle seeds at z = 0; they are fixed by the torus normalization
# (alternating period sum = +1) and by the measured degeneration tails.
_CYCLE_SEGMENTS = {
    0: ((-1, 0), (-1, 2)),
    1: ((+1, 1), (-1, 2)),
    2: ((+1, 0), (+1, 1)),
}

_TWO_PI = 2.0 * math.pi
_EIGHT_PI_SQ = 8.0 * math.pi ** 2

# Gauss-Legendre sizes on the degeneration ray: a period takes the last rule,
# its error estimate the distance from the first.
_RAY_NODES = (16, 32)
# Gauss-Chebyshev nodes of one fiber segment integral.
_SEG_N = 64
# Rounding level of a period value; no error estimate reports less.
_ROUNDING_FLOOR = 1e-15
# Tanh-sinh step and half-width (in steps) of the critical-ray check.
_TS_STEP = 1.0 / 16.0
_TS_LEVELS = 64


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubicRoots:
    """Labeled root triple of the fiber cubic at one base point."""

    x0: complex
    x1: complex
    x2: complex
    z: complex
    branch_seed: str = "origin"

    @property
    def triple(self) -> tuple[complex, complex, complex]:
        return (self.x0, self.x1, self.x2)

    def min_gap(self) -> float:
        a, b, c = self.triple
        return min(abs(a - b), abs(a - c), abs(b - c))

    def vieta_residual(self) -> float:
        a, b, c = self.triple
        h = 0.5 * self.z
        r1 = abs(a + b + c + h * h)
        r2 = abs(a * b + a * c + b * c - h)
        r3 = abs(a * b * c + 0.25)
        return max(r1, r2, r3)


@dataclass(frozen=True)
class PathZ:
    """Polyline in the base plane with a per-segment sampling density."""

    vertices: tuple
    refinement: int = 64

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise DomainError("path needs at least two vertices")
        if self.refinement < 2:
            raise DomainError("refinement must be at least 2")
        for a, b in zip(verts[:-1], verts[1:]):
            if abs(a - b) == 0.0:
                raise DomainError("consecutive path vertices must be distinct")

    def samples(self) -> np.ndarray:
        """All sample points, each interior vertex emitted once."""
        out = [np.array([self.vertices[0]], dtype=np.complex128)]
        t = np.linspace(0.0, 1.0, self.refinement + 1)[1:]
        for a, b in zip(self.vertices[:-1], self.vertices[1:]):
            out.append(a + (b - a) * t)
        return np.concatenate(out)

    def validate_clearance(self, critical) -> None:
        """Interior points must stay PATH_CLEARANCE away from critical z."""
        pts = self.samples()
        ends = (self.vertices[0], self.vertices[-1])
        for c in critical:
            d = np.abs(pts - complex(c))
            near = d < PATH_CLEARANCE
            if not near.any():
                continue
            for p in pts[near]:
                if min(abs(p - ends[0]), abs(p - ends[1])) > PATH_CLEARANCE:
                    raise DomainError(
                        f"path passes within {PATH_CLEARANCE} of critical "
                        f"point {c:.6g} at interior sample {p:.6g}")


@dataclass(frozen=True)
class PeriodVector:
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
    z_star = -(y ** (-1.0 / 3.0))
    return (z_star, *CRITICAL_VALUES)


def _origin_triple() -> np.ndarray:
    return np.array([-_ROOT_SCALE * OMEGA ** j for j in range(3)],
                    dtype=np.complex128)


def roots_at_origin() -> CubicRoots:
    """Exact labeled roots at z = 0: x_j = -2^(-2/3) OMEGA^j."""
    t = _origin_triple()
    return CubicRoots(complex(t[0]), complex(t[1]), complex(t[2]), 0.0j)


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


def cubic_roots_along(path: PathZ, seed: CubicRoots | None = None):
    """Labeled root triples at every sample of ``path``.

    The path must start at z = 0 (labels seeded by the exact origin roots)
    or a starting ``seed`` must be supplied.
    """
    if seed is None:
        if abs(path.vertices[0]) > 1e-12:
            raise DomainError("path must start at z = 0 unless a seed is given")
        seed_arr = _origin_triple()
        label = "origin"
    else:
        seed_arr = np.array(seed.triple, dtype=np.complex128)
        label = seed.branch_seed
    zs = path.samples()
    tracked = _kernels.track_roots(zs, seed_arr)
    _check_tracked(zs, tracked, (path.vertices[0], path.vertices[-1]))
    return [
        CubicRoots(complex(r[0]), complex(r[1]), complex(r[2]), complex(z), label)
        for z, r in zip(zs, tracked)
    ]


# ---------------------------------------------------------------------------
# vanishing-cycle integrals
# ---------------------------------------------------------------------------


def _seg_quad(xa, xb, xc, n) -> complex:
    return 2.0 * _kernels.segment_integral(xa, xb, xc, n)


def _hyp(z: complex) -> complex:
    vals, ok = _kernels.hyp2f1_half_array(np.array([z], dtype=np.complex128))
    if not ok:
        raise QuadratureError(f"hypergeometric AGM failed to converge at {z:.6g}")
    return complex(vals[0])


def _on_unit_cut(r: complex) -> bool:
    return abs(r.imag) < 1e-9 and r.real >= 1.0 - 1e-9


def jk_quadrature(roots: CubicRoots, k: int, n: int = 256) -> complex:
    """Vanishing-cycle integral by branch-tracked quadrature.

    Two double-cover segments joined at the root with the cycle's label:
    from root i = k+2 to root k, then from root k to root j = k+1, the
    second with reversed orientation.
    """
    i, j = (k + 2) % 3, (k + 1) % 3
    t = roots.triple
    return _seg_quad(t[i], t[k], t[j], n) - _seg_quad(t[k], t[j], t[i], n)


def vanishing_integral_Jk(roots: CubicRoots, k: int) -> complex:
    """Closed-form vanishing-cycle integral at one root configuration.

    Two hypergeometric terms built on the segments meeting at root k:

        2 pi F(r1)/sqrt(x_j - x_i)  -  eps * 2 pi F(r2)/sqrt(x_i - x_j)

    with r1 = (x_k - x_i)/(x_j - x_i), r2 = (x_k - x_j)/(x_i - x_j), and
    F = 2F1(1/2, 1/2; 1; .).  The factor eps (always +/-1) reconciles the
    principal square roots of the two prefactors with the branch that is
    continuous along the integration segments: it is the ratio between the
    principal root of a quotient and the quotient of principal roots.  With
    it the value agrees with ``jk_quadrature`` wherever neither argument
    touches the hypergeometric cut [1, oo); on the cut the closed form is
    abandoned for quadrature and a warning flags the fallback.
    """
    if k not in (0, 1, 2):
        raise DomainError(f"cycle index must be 0, 1 or 2, got {k}")
    if roots.min_gap() < COLLISION_TOL:
        raise RootCollisionError(
            f"degenerate root triple at z = {roots.z:.6g}: gap {roots.min_gap():.3e}")
    i, j = (k + 2) % 3, (k + 1) % 3
    t = roots.triple
    xi, xj, xk = t[i], t[j], t[k]
    r1 = (xk - xi) / (xj - xi)
    r2 = (xk - xj) / (xi - xj)
    if _on_unit_cut(r1) or _on_unit_cut(r2):
        warnings.warn(
            "hypergeometric argument on the cut [1, oo); "
            "falling back to segment quadrature", RuntimeWarning, stacklevel=2)
        return jk_quadrature(roots, k)
    term1 = _TWO_PI * _hyp(r1) / cmath.sqrt(xj - xi)
    term2 = _TWO_PI * _hyp(r2) / cmath.sqrt(xi - xj)
    eps = (((xi - xj) / (xi - xk)) ** -0.5
           * cmath.sqrt(xi - xj) / cmath.sqrt(xi - xk))
    eps = 1.0 if eps.real > 0.0 else -1.0
    return term1 - eps * term2


# ---------------------------------------------------------------------------
# period quadrature
# ---------------------------------------------------------------------------


def _gauss_legendre(n: int):
    """n-node Gauss-Legendre rule on [0, 1]: (nodes ascending, weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _tanh_sinh(step: float, levels: int):
    """Tanh-sinh rule on [0, 1] (Takahasi & Mori 1974): nodes ascending.

    The nodes crowd double-exponentially into both ends, which resolves the
    endpoint where two branch roots collide.  Nodes that round onto an end
    (t = 1 is the collision itself) are dropped; at step 1/16 their weights
    sum to 8e-17 per end.
    """
    j = np.arange(-levels, levels + 1) * step
    u = 0.5 * math.pi * np.sinh(j)
    t = 0.5 * (1.0 + np.tanh(u))
    w = 0.25 * math.pi * step * np.cosh(j) / np.cosh(u) ** 2
    keep = (t > 0.0) & (t < 1.0)
    return t[keep], w[keep]


def _threaded_family(roots: np.ndarray, m: int, seg_n: int) -> np.ndarray:
    """Segment-family values along a tracked ray, sign-threaded from z = 0.

    The z = 0 anchor is the first row of one batched kernel call.  Each
    value takes the sign that keeps it closer to its predecessor than to
    its negative; a flip of the predecessor only swaps the two distances,
    so the signs are a running product of flips between the raw values.
    """
    a, b, c = m, (m + 1) % 3, (m + 2) % 3
    rows = np.vstack([_origin_triple(), roots])
    vals = 2.0 * _kernels.segment_integrals(rows[:, a], rows[:, b], rows[:, c], seg_n)
    flip = np.abs(vals[1:] - vals[:-1]) > np.abs(vals[1:] + vals[:-1])
    return vals[1:] * np.cumprod(np.where(flip, -1.0, 1.0))


def _ray_integrals(endpoint: complex, families, t: np.ndarray,
                   weights: np.ndarray, seg_n: int) -> dict:
    """Integrals of segment families along the ray 0 -> endpoint.

    ``t`` holds the ray parameters in [0, 1], ascending, and ``weights`` one
    row of quadrature weights over them per rule (or a single row).  The
    result maps each family to its integral under each rule.
    """
    zs = t * endpoint
    tracked = _kernels.track_roots(zs, _origin_triple())
    _check_tracked(zs, tracked, (0.0j, endpoint))
    return {m: weights @ _threaded_family(tracked, m, seg_n) * endpoint
            for m in families}


def _cycle_combination(family_values: dict, k: int):
    (sa, a), (sb, b) = _CYCLE_SEGMENTS[k]
    return sa * family_values[a] + sb * family_values[b]


def _period_estimates(y: complex, nodes=_RAY_NODES, seg_n: int = _SEG_N):
    """(value, error estimate) of the three periods at y.

    I_k = (-1)^k/3 + (1/8 pi^2) * Int_0^{z_*} h_k dz.  The three segment
    families are integrated along the degeneration ray once, under every
    Gauss-Legendre rule in ``nodes`` on one merged, tracked and
    sign-threaded pass; the value takes the last rule, the error estimate
    its distance from the first, floored at the rounding level.
    """
    rules = [_gauss_legendre(n) for n in nodes]
    t = np.concatenate([r for r, _ in rules])
    weights = np.zeros((len(rules), len(t)))
    start = 0
    for row, (_, w) in enumerate(rules):
        weights[row, start:start + len(w)] = w
        start += len(w)
    order = np.argsort(t)
    fam = _ray_integrals(critical_points(y)[0], range(3), t[order],
                         weights[:, order], seg_n)
    out = []
    for k in range(3):
        b = _cycle_combination(fam, k)
        err = max(abs(b[-1] - b[0]) / _EIGHT_PI_SQ, _ROUNDING_FLOOR)
        out.append(((-1.0) ** k / 3.0 + complex(b[-1]) / _EIGHT_PI_SQ, err))
    return out


def _period_modulus(y) -> complex:
    y = complex(y)
    if not cmath.isfinite(y):
        raise DomainError(f"period modulus must be finite, got {y}")
    if abs(y) <= 27.0:
        raise DomainError(
            f"periods and their tails require |y| > 27, got |y| = {abs(y):.4g}")
    return y


def _validate_period_path(path: PathZ, y: complex, k: int) -> None:
    z_star, *crit = critical_points(y)
    if abs(path.vertices[0] - z_star) > 1e-9:
        raise DomainError(
            f"period path must start at the degeneration point {z_star:.6g}")
    if abs(path.vertices[-1] - crit[k]) > 1e-9:
        raise DomainError(
            f"period path for cycle {k} must end at {complex(crit[k]):.6g}")
    if not any(abs(v) < 1e-12 for v in path.vertices):
        raise DomainError("period path must pass through z = 0")
    path.validate_clearance([z_star] + [c for m, c in enumerate(crit) if m != k])


def period_Ik(y: complex, k: int, path: PathZ | None = None,
              quad: PrecisionConfig | None = None) -> complex:
    """Contour period of the three-cycle attached to critical value k.

    The contour runs from the degeneration point z_* through the origin to
    the k-th critical value; ``path``, if given, must be such a contour.
    The value is the k-th entry of ``periods(y, quad)``.
    """
    y = _period_modulus(y)
    if k not in (0, 1, 2):
        raise DomainError(f"cycle index must be 0, 1 or 2, got {k}")
    if path is not None:
        _validate_period_path(path, y, k)
    return periods(y, quad).as_vector()[k]


def periods(y: complex, quad: PrecisionConfig | None = None) -> PeriodVector:
    """All three periods at one modulus value, with error estimates.

    The contour z_* -> 0 -> 3 OMEGA^k splits at the origin.  The critical
    ray 0 -> 3 OMEGA^k does not depend on y and contributes exactly
    (-1)^k/3 (``critical_ray_constants`` checks it by quadrature).  The
    degeneration ray 0 -> z_* has |z_*| < 1/3, far from the critical values
    at |z| = 3, so its integrand is analytic there and one Gauss-Legendre
    panel resolves it: the value takes 32 nodes, and ``err`` is the
    difference from 16 nodes over 8 pi^2, floored at 1e-15.  Raises
    QuadratureError if an estimate exceeds ``quad.target_rel_err`` (default
    1e-9) times max(1, |I_k|).
    """
    y = _period_modulus(y)
    tol = 1e-9 if quad is None else quad.target_rel_err
    vals = []
    errs = []
    for k, (value, err) in enumerate(_period_estimates(y)):
        if err > tol * max(1.0, abs(value)):
            raise QuadratureError(
                f"period {k} not converged on the degeneration ray "
                f"0 -> z_*: err {err:.3e} > tol {tol:.1e}")
        vals.append(value)
        errs.append(err)
    return PeriodVector(vals[0], vals[1], vals[2], y, tuple(errs))


def critical_ray_constants() -> tuple:
    """The constant terms of the three periods, by direct quadrature.

    Integrates the cycle-k fiber combination along the critical ray
    0 -> 3 OMEGA^k with a tanh-sinh rule and returns -1/(8 pi^2) times each
    integral.  The exact values are (-1)^k/3, which ``periods`` uses in
    their place; this is the check that the two agree.
    """
    t, w = _tanh_sinh(_TS_STEP, _TS_LEVELS)
    out = []
    for k, end in enumerate(CRITICAL_VALUES):
        (_, a), (_, b) = _CYCLE_SEGMENTS[k]
        fam = _ray_integrals(end, (a, b), t, w, _SEG_N)
        out.append(-complex(_cycle_combination(fam, k)) / _EIGHT_PI_SQ)
    return tuple(out)


# ---------------------------------------------------------------------------
# degeneration-tail expansion
# ---------------------------------------------------------------------------


def f_at_origin(config: PrecisionConfig | None = None) -> complex:
    """Value at z = 0 of the tail-generating density f(z).

    f(z) = F(sigma(z)) / (4 pi sqrt(x0(z) - x1(z))) with
    sigma = (x2 - x1)/(x0 - x1); the principal branches at the origin make
    this the germ of the branch-tracked segment family, and the value equals
    -i Gamma(1/3)^3 / (8 pi^3).
    """
    t = _origin_triple()
    sigma = (t[2] - t[1]) / (t[0] - t[1])
    val = hyp2f1_half(complex(sigma), config)
    return val / (4.0 * math.pi * cmath.sqrt(complex(t[0] - t[1])))


def f_prime_at_origin(config: PrecisionConfig | None = None) -> complex:
    """d/dz at z = 0 of the tail-generating density, by the chain rule.

    Uses the exact root velocities dx_m/dz(0) = OMEGA^(2m)/(2^(1/3) * 3) and
    the closed-form derivative of F at the sixth root of unity; the value
    equals -i Gamma(2/3)^3 / (8 pi^3).
    """
    t = _origin_triple()
    dt = np.array([OMEGA ** (2 * m) / (2.0 ** (1.0 / 3.0) * 3.0)
                   for m in range(3)], dtype=np.complex128)
    sigma = (t[2] - t[1]) / (t[0] - t[1])
    d01 = complex(t[0] - t[1])
    f_val = hyp2f1_half(complex(sigma), config)
    # F has a real power series, so its derivative at the conjugate point is
    # the conjugate of the tabulated closed-form derivative.
    f_der = complex(f_prime_minus_omega("closed_form", config)).conjugate()
    dsigma = ((dt[2] - dt[1]) * d01 - (t[2] - t[1]) * (dt[0] - dt[1])) / d01 ** 2
    val = (-0.5 * d01 ** -1.5 * (dt[0] - dt[1]) * f_val
           + d01 ** -0.5 * f_der * dsigma)
    return complex(val) / (4.0 * math.pi)


def b_expansion(y: complex):
    """Two-term large-|y| tails of the three periods.

    Assembled from f(0) and f'(0); the per-cycle phase factors are the
    products of the cube-root rotation with the alternating cycle
    orientation, fixed against the measured quadrature.  Equivalent closed
    form: TAIL_PHASE^k * TAIL_COEFF_1 * y^(-1/3)
          + TAIL_PHASE^(-k) * TAIL_COEFF_2 * y^(-2/3).
    """
    y = _period_modulus(y)
    f0 = f_at_origin()
    fp0 = f_prime_at_origin()
    w = OMEGA ** 2  # conjugate cube root: the rotation seen by the labels
    u = y ** (-1.0 / 3.0)
    out = []
    for k in range(3):
        sign = (-1.0) ** k
        first = -u * f0 * sign * (w ** (k + 1) - w ** (k - 1))
        second = 0.5 * u * u * fp0 * sign * (w ** (2 * k + 2) - w ** (2 * k + 1))
        out.append(first + second)
    return tuple(out)


def expected_period_tail(y: complex, k: int) -> complex:
    """Constant term plus two-term tail: the large-|y| period prediction
    (finite |y| > 27, as for ``b_expansion`` and ``periods``)."""
    y = _period_modulus(y)
    if k not in (0, 1, 2):
        raise DomainError(f"cycle index must be 0, 1 or 2, got {k}")
    u = y ** (-1.0 / 3.0)
    return ((-1.0) ** k / 3.0
            + TAIL_PHASE ** k * TAIL_COEFF_1 * u
            + TAIL_PHASE ** (-k) * TAIL_COEFF_2 * u * u)
