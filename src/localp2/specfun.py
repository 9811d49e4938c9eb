"""Complex special functions used by the mirror-map computation.

Double precision goes through the numpy kernels in ``_kernels``; an
extended-precision mode (mpmath, >= 30 significant digits) backs the tightest
closed-form checks.  The closed forms tie complete elliptic integrals at the
third singular value pair k_- = (sqrt6 - sqrt2)/4, k_+ = (sqrt6 + sqrt2)/4 to
Gamma(1/3)^3, and give the value and derivative of

    F(z) := 2F1(1/2, 1/2; 1; z)

at z = e^{i pi/3}, the argument produced by the degenerate fiber of the
elliptic fibration at the origin of the base.

Every route, closed form or numeric, is written once against the numbers of
the precision mode (``_arith``): Python floats, the ``_kernels`` gamma and the
``_kernels`` AGM in double mode.  In extended mode the AGM is one fixed-point
loop on Gaussian integers (``_kernels.agm_fixed``) at the configured digits
plus guard bits, with E from its companion sum as in double mode; mpmath
supplies only the numbers, ``gamma``, ``digamma``, the cube root and
``hypot``.  mpmath is imported only on the first extended-precision request,
so a double-precision run never loads it.  The closed forms take Gamma(1/3)
and Gamma(2/3) from one gamma pass of the arithmetic, and write every power
of 2 and 3 they take as a product of integer powers of c = 2^(1/3) and
q = 3^(1/4), formed once per evaluation, so none of them calls a
transcendental power.  The numeric routes a closed form is checked against
(AGM, the elliptic chain rule, the finite difference, the splitting
identity) never call a closed form, and only the finite-difference stencil
differs by mode.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import _kernels
from .errors import BranchCutError, ConvergenceError, DomainError, PoleError

__all__ = [
    "PrecisionConfig",
    "default_config",
    "gamma",
    "digamma",
    "hyp2f1_half",
    "elliptic_K",
    "elliptic_E",
    "ramanujan_residual",
    "f_minus_omega",
    "f_prime_minus_omega",
    "closed_form_checks",
    "K_PLUS",
    "K_MINUS",
    "MINUS_OMEGA",
]

K_PLUS = (math.sqrt(6.0) + math.sqrt(2.0)) / 4.0
K_MINUS = (math.sqrt(6.0) - math.sqrt(2.0)) / 4.0

# argument of F produced by the z = 0 fiber: e^{i pi/3}
MINUS_OMEGA = complex(0.5, math.sqrt(3.0) / 2.0)

_POLE_TOL = 1e-13


def _env_mode() -> str:
    """``LOCALP2_PRECISION`` as given; PrecisionConfig rejects unknown modes,
    as the command line does."""
    return os.environ.get("LOCALP2_PRECISION", "double")


@dataclass(frozen=True)
class PrecisionConfig:
    """Evaluation settings shared by the special-function layer.

    mode             "double" (numpy kernels) or "extended" (mpmath numbers
                     and a fixed-point AGM)
    dps              working digits in extended mode (>= 30)
    target_rel_err   requested relative accuracy for iterative evaluations

    Series truncation is set where a series is summed (the ``n_terms`` and
    ``n_max`` arguments of ``picard_fuchs``), not here.
    """

    mode: str = field(default_factory=_env_mode)
    dps: int = 40
    target_rel_err: float = 1e-13

    def __post_init__(self) -> None:
        if self.mode not in {"double", "extended"}:
            raise DomainError(f"unknown precision mode {self.mode!r}")
        if self.mode == "extended" and self.dps < 30:
            raise DomainError("extended mode requires dps >= 30")
        if not (1e-15 <= self.target_rel_err <= 1e-6):
            raise DomainError("target_rel_err must lie in [1e-15, 1e-6]")


def default_config() -> PrecisionConfig:
    return PrecisionConfig()


def _cfg(config: PrecisionConfig | None) -> PrecisionConfig:
    return config if config is not None else default_config()


def _finite(name: str, z) -> complex:
    """z as a Python complex; DomainError unless both parts are finite."""
    zc = complex(z)
    if not (math.isfinite(zc.real) and math.isfinite(zc.imag)):
        raise DomainError(f"{name} needs a finite argument, got {zc}")
    return zc


def _near_nonpositive_integer(z: complex) -> bool:
    if z.real > 0.5:
        return False
    n = round(z.real)
    return n <= 0 and abs(z - n) < _POLE_TOL


def _on_cut_from_one(z: complex) -> bool:
    return abs(z.imag) < 1e-14 and z.real >= 1.0 - 1e-14


# ---------------------------------------------------------------------------
# the arithmetic of each precision mode
# ---------------------------------------------------------------------------


def _agm_pass(kernel, *points) -> list:
    """The values of an AGM kernel at its arrays of points, from one array
    call: one list per output of the kernel."""
    *vals, ok = kernel(*points)
    if not ok:
        raise ConvergenceError("AGM did not converge within 64 iterations")
    return [v.tolist() for v in vals]


def _double_gamma(zs) -> list:
    """The ``_kernels`` gamma at the points zs, from one array call: 0 where
    Gamma underflows, DomainError where any |Gamma| exceeds the double range."""
    gs = _kernels.gamma_array(zs).tolist()
    for z, g in zip(zs, gs):
        if not math.isfinite(abs(g)):
            raise DomainError(f"|gamma({z})| exceeds the double range")
    return gs


def _double_moduli(ks):
    """ks; DomainError where any |k^2| exceeds the double range, past which
    the AGM kernels' k^2 overflows."""
    for k in ks:
        kc = complex(k)
        size = math.hypot(kc.real, kc.imag)
        if not math.isfinite(size * size):
            raise DomainError(f"modulus {kc} has |k^2| beyond the double range")
    return ks


def _double_ellipke(ks) -> list:
    """(K(k), E(k)) at the moduli ks from one ``_kernels`` AGM pass."""
    return list(zip(*_agm_pass(_kernels.ellipke_array, _double_moduli(ks))))


def _double_agm(ks, zs) -> tuple[list, list]:
    """(K(k), E(k)) at the moduli ks and 2F1(1/2, 1/2; 1; z) at the points
    zs from one ``_kernels`` AGM pass over both."""
    kk, ee, f = _agm_pass(_kernels.ellipke_hyp2f1_half_array, _double_moduli(ks), zs)
    return list(zip(kk, ee)), f


class _Arith(NamedTuple):
    """The numbers of one precision mode, against which each numeric route
    is written once."""

    real: Callable         # float -> float or mpf
    cplx: Callable         # (re, im) -> complex or mpc
    sqrt: Callable
    cbrt: Callable         # x -> x^(1/3), x real
    hypot: Callable        # (x, y) -> sqrt(x^2 + y^2), without overflow
    pi: object
    gamma: Callable        # [z] -> [Gamma(z)]
    digamma: Callable
    hyp: Callable          # [z] -> [2F1(1/2, 1/2; 1; z) = 1/AGM(1, sqrt(1-z))]
    ellipke: Callable      # [k] -> [(K(k), E(k))]
    agm: Callable          # ([k], [z]) -> ([(K(k), E(k))], [2F1(...; z)]), one pass
    moduli: Callable       # () -> the singular moduli (k_+, k_-)
    minus_omega: Callable  # () -> e^{i pi/3}


_DOUBLE = _Arith(
    float, complex, math.sqrt, lambda x: x ** (1.0 / 3.0), math.hypot, math.pi,
    _double_gamma,
    lambda z: complex(_kernels.digamma_array(z)[0]),
    lambda zs: _agm_pass(_kernels.hyp2f1_half_array, zs)[0],
    _double_ellipke, _double_agm,
    lambda: (K_PLUS, K_MINUS), lambda: MINUS_OMEGA)


# fractional bits the fixed-point AGM keeps beyond mpmath's working precision
# (and beyond the bits by which 1 and sqrt(1 - x) differ in size)
_AGM_GUARD_BITS = 32


@contextmanager
def _arith(cfg: PrecisionConfig):
    """The arithmetic of ``cfg.mode``; extended mode imports mpmath (once per
    process) and works at ``cfg.dps`` digits inside the block.  Its AGM is
    ``_kernels.agm_fixed`` on fixed-point Gaussian integers, one point at a
    time, so its joint ``agm`` pass is the ``ellipke`` pass and the ``hyp``
    pass in turn: 2F1 is 1/M, K is pi/(2M) and E is K times the companion-sum
    factor, with M = AGM(1, sqrt(1 - x)), x = z or k^2.  mpmath supplies
    the numbers, 1 - x, ``gamma`` and ``digamma``.  A real argument with a
    real AGM gives an ``mpf``."""
    if cfg.mode != "extended":
        yield _DOUBLE
        return
    import mpmath as mp
    from mpmath import libmp

    def agm(u, wp):
        """(M, E/K) with M = AGM(1, sqrt u), for u = 1 - x at wp =
        mp.prec + _AGM_GUARD_BITS bits, x the argument of 2F1 or the k^2 of
        K and E.  The loop works wp bits below the larger of 1 and |sqrt u|,
        and as many more as they differ by in size, so the smaller keeps
        its relative precision too."""
        real = isinstance(u, mp.mpf)
        u = (u._mpf_, libmp.fzero) if real else u._mpc_
        # |sqrt(1 - x)| is about 2^half
        half = max((t[2] + t[3] for t in u if t[1]), default=0) // 2
        q = wp + max(-half, 0)
        m, ratio, ok = _kernels.agm_fixed(tuple(libmp.to_fixed(t, 2 * q) for t in u), q)
        if not ok:
            raise ConvergenceError("AGM did not converge within 64 iterations")
        # a real x below 1 keeps every iterate real
        real = real and not m[1]
        return num(m, -q, wp, real), num(ratio, -2 * q - 2, wp, real)

    def num(v, exp, wp, real):
        """The Gaussian integer v times 2^exp, rounded to wp bits."""
        re, im = (libmp.from_man_exp(p, exp, wp, libmp.round_nearest) for p in v)
        return mp.mp.make_mpf(re) if real else mp.mp.make_mpc((re, im))

    def hyp(zs):
        wp = mp.mp.prec + _AGM_GUARD_BITS
        return [1 / agm(mp.fsub(1, z, prec=wp), wp)[0] for z in zs]

    def ellipke(ks):
        wp = mp.mp.prec + _AGM_GUARD_BITS
        out = []
        for k in ks:
            # 1 - k^2 from k itself, so it keeps its relative precision as k -> 1
            m, ratio = agm(mp.fmul(mp.fsub(1, k, prec=wp), mp.fadd(1, k, prec=wp), prec=wp), wp)
            kk = mp.pi / (2 * m)
            out.append((kk, kk * ratio))
        return out

    with mp.workdps(cfg.dps):
        yield _Arith(
            mp.mpf, mp.mpc, mp.sqrt, mp.cbrt, mp.hypot, mp.pi,
            lambda zs: [mp.gamma(z) for z in zs], mp.digamma, hyp, ellipke,
            lambda ks, zs: (ellipke(ks), hyp(zs)),
            lambda: ((mp.sqrt(6) + mp.sqrt(2)) / 4, (mp.sqrt(6) - mp.sqrt(2)) / 4),
            lambda: mp.exp(mp.mpc(0, mp.pi / 3)))


# ---------------------------------------------------------------------------
# public special functions
# ---------------------------------------------------------------------------


def gamma(z, config: PrecisionConfig | None = None):
    """Gamma function for complex argument.

    In double mode the relative error measured on grids of |z| <= 30 that
    keep 0.05 from the poles is below 4e-14; within d < 0.05 of a pole it
    grows like 1e-16 |z| / d.  A value below the double range is 0, and one
    above it raises DomainError."""
    zc = _finite("gamma", z)
    if _near_nonpositive_integer(zc):
        raise PoleError(f"gamma pole at z = {zc}")
    with _arith(_cfg(config)) as ar:
        # a real argument stays real, so extended mode returns an mpf
        return ar.gamma([ar.cplx(z) if zc.imag else ar.real(zc.real)])[0]


def digamma(z, config: PrecisionConfig | None = None):
    """Digamma function for complex argument (|z| <= 100 contract in double mode)."""
    zc = _finite("digamma", z)
    if _near_nonpositive_integer(zc):
        raise PoleError(f"digamma pole at z = {zc}")
    with _arith(_cfg(config)) as ar:
        # a real argument stays real, so extended mode returns an mpf
        return ar.digamma(ar.cplx(z) if zc.imag else ar.real(zc.real))


def hyp2f1_half(z, config: PrecisionConfig | None = None):
    """2F1(1/2, 1/2; 1; z) on the cut plane C minus [1, oo), via 1/AGM(1, sqrt(1-z))."""
    zc = _finite("hyp2f1_half", z)
    if _on_cut_from_one(zc):
        raise BranchCutError(f"hyp2f1_half argument {zc} lies on the cut [1, oo)")
    with _arith(_cfg(config)) as ar:
        return ar.hyp([z])[0]


def _ellipke(name: str, k, config: PrecisionConfig | None):
    kc = _finite(name, k)
    if _on_cut_from_one(kc * kc):
        raise BranchCutError(f"{name} modulus {kc} has k^2 on [1, oo)")
    with _arith(_cfg(config)) as ar:
        return ar.ellipke([k])[0]


def elliptic_K(k, config: PrecisionConfig | None = None):
    """Complete elliptic integral K(k) (modulus convention) by the AGM.

    In double mode a modulus whose |k^2| exceeds the double range, |k|
    above about 1.34e154, raises DomainError; extended mode answers there."""
    return _ellipke("elliptic_K", k, config)[0]


def elliptic_E(k, config: PrecisionConfig | None = None):
    """Complete elliptic integral E(k) from the companion sum of the AGM
    that gives K, on the domain of ``elliptic_K``."""
    return _ellipke("elliptic_E", k, config)[1]


def _ramanujan(ar: _Arith, x):
    """The three arguments of F in the splitting identity at x, and the
    step that turns F at them into |LHS - RHS|."""
    r = ar.hypot(1, x)

    def defect(f):
        lhs = ar.sqrt(r) * f[0]
        rhs = ar.cplx(1, 1) / 2 * f[1] + ar.cplx(1, -1) / 2 * f[2]
        return abs(lhs - rhs)

    return [ar.cplx(1, x) / 2, (1 + x / r) / 2, (1 - x / r) / 2], defect


def ramanujan_residual(x, config: PrecisionConfig | None = None):
    """Defect of the quarter-power splitting identity

        (1+x^2)^{1/4} F((1+ix)/2)
            = (1+i)/2 F((1 + x/sqrt(1+x^2))/2) + (1-i)/2 F((1 - x/sqrt(1+x^2))/2)

    at real x >= 0.  Returns |LHS - RHS|.

    The node (1 + x/sqrt(1+x^2))/2 tends to 1, the branch point of F, as x
    grows.  Where it rounds to 1 in the arithmetic of the precision mode,
    from about x = 4.5e7 in double mode and 2e20 in extended mode at 40
    digits, BranchCutError is raised.  sqrt(1+x^2) is formed by ``hypot``,
    so it does not overflow.

    Well before that threshold the double-mode residual measures the
    rounding of that node, not the identity: 1 - node is about 1/(4x^2),
    so one rounding of the node moves it by up to 4x^2 2^-53 of itself,
    and F is log-singular there.  Measured: 1.7e-13 at x = 1e2, 1.6e-11
    at 1e3, 1.9e-8 at 1e5, 2.0e-5 at 1e6 and 5.2e-3 at 1e7.  Extended mode
    at 40 digits gives 2.7e-28 at x = 1e7; use it for large x.
    """
    xf = float(x)
    if xf < 0.0 or not math.isfinite(xf):
        raise DomainError("ramanujan_residual expects real x >= 0")
    with _arith(_cfg(config)) as ar:
        nodes, defect = _ramanujan(ar, ar.real(xf))
        if nodes[1] >= 1:
            raise BranchCutError(f"ramanujan_residual at x = {xf}: the node "
                                 "(1 + x/sqrt(1+x^2))/2 rounds to 1, the branch point of F")
        return defect(ar.hyp(nodes))


# ---------------------------------------------------------------------------
# closed forms at the third singular value and at -omega = e^{i pi/3}
# ---------------------------------------------------------------------------


def _consts(ar: _Arith):
    """(pi, sqrt3, gamma(1/3)^3, gamma(2/3)^3, c, q) in the arithmetic ``ar``,
    the ``consts`` argument of each closed form below.  Gamma(1/3) and
    Gamma(2/3) come from one gamma pass.  c = 2^(1/3) and q = 3^(1/4) =
    sqrt(sqrt3) are the two algebraic numbers the closed forms are written
    in: every power of 2 and 3 they take is a product of integer powers of
    c, q and sqrt3 = q^2, so none of them calls a transcendental power."""
    s3 = ar.sqrt(ar.real(3))
    g13, g23 = ar.gamma([ar.real(1) / 3, ar.real(2) / 3])
    return ar.pi, s3, g13 ** 3, g23 ** 3, ar.cbrt(ar.real(2)), ar.sqrt(s3)


def _k_closed(ar: _Arith, consts, sign: int):
    """K(k_+) (sign=+1) or K(k_-) (sign=-1): 2^(-7/3) 3^(3/4 or 1/4)
    Gamma(1/3)^3 / pi, with 2^(-7/3) = 1/(4c)."""
    pi, s3, g3, _, c, q = consts
    q_pow = s3 * q if sign > 0 else q
    return q_pow * g3 / (4 * c * pi)


def _e_closed(ar: _Arith, consts, sign: int):
    """E(k_+) (sign=+1) or E(k_-) (sign=-1):

        E(k_+) = 2^(1/3) 3^(-1/4) pi^2 / G + 2^(-10/3) 3^(1/4) (sqrt3 - 1) G / pi
        E(k_-) = 2^(1/3) 3^(-3/4) pi^2 / G + 2^(-10/3) 3^(-1/4) (sqrt3 + 1) G / pi

    with G = Gamma(1/3)^3 and 2^(-10/3) = c^2/16."""
    pi, s3, g3, _, c, q = consts
    if sign > 0:
        return c / q * pi * pi / g3 + c * c / 16 * q * (s3 - 1) / pi * g3
    return c / (s3 * q) * pi * pi / g3 + c * c / (16 * q) * (s3 + 1) / pi * g3


def _f_closed(ar: _Arith, consts):
    """F(e^{i pi/3}) = e^{i pi/4} a + e^{-i pi/4} b, with b = K(k_-)/pi and
    a = K(k_+)/pi = sqrt3 b."""
    pi, s3, g3, _, c, q = consts
    b = q * g3 / (4 * c * pi * pi)
    r2 = ar.sqrt(ar.real(2))
    return ar.cplx(1, 1) / r2 * (s3 * b) + ar.cplx(1, -1) / r2 * b


def _f_prime_closed(ar: _Arith, consts):
    """F'(e^{i pi/3}) =   2^(-7/3) 3^(-1/4) G (e4 - sqrt3 e4c) / (2 pi^2)
                        + 2^(-8/3) 3^(3/4) G' (e4 + sqrt3 e4c) / pi^2

    with G = Gamma(1/3)^3, G' = Gamma(2/3)^3, e4 = e^{i pi/4}, e4c its
    conjugate, 2^(-7/3) = 1/(4c) and 2^(-8/3) = c/8."""
    pi, s3, g3, g23, c, q = consts
    r2 = ar.sqrt(ar.real(2))
    e4, e4c = ar.cplx(1, 1) / r2, ar.cplx(1, -1) / r2  # e^{+-i pi/4}
    return (g3 / (4 * c * q) * (e4 - s3 * e4c) / (2 * pi * pi)
            + g23 * s3 * q * c / 8 * (e4 + s3 * e4c) / (pi * pi))


def f_minus_omega(route: str = "closed_form", config: PrecisionConfig | None = None):
    """F(e^{i pi/3}) either from its Gamma(1/3)^3 closed form or numerically by AGM."""
    if route not in ("closed_form", "agm"):
        raise DomainError(f"unknown route {route!r}")
    with _arith(_cfg(config)) as ar:
        if route == "closed_form":
            return _f_closed(ar, _consts(ar))
        return ar.hyp([ar.minus_omega()])[0]


def _f_prime_elliptic(ar: _Arith, moduli, ke_plus, ke_minus, f_at):
    """F'(e^{i pi/3}) by differentiating the splitting identity at x = sqrt3.

    Uses dK/dk = E/(k(1-k^2)) - K/k at the two real singular moduli, so the
    route is independent of the Gamma(1/3)^3 closed form.  The values it
    rests on are arguments, so a caller that already has them computes none
    of them again: ``moduli`` is (k_+, k_-), ``ke_plus`` and ``ke_minus``
    are (K, E) at k_+ and k_-, and ``f_at`` is F(e^{i pi/3}).
    """
    fp = []
    for k, (kk, ee) in zip(moduli, (ke_plus, ke_minus)):
        kprime = ee / (k * (1 - k * k)) - kk / k
        fp.append(kprime / (ar.pi * k))
    rhs_prime = (ar.cplx(1, 1) / 2 * fp[0] - ar.cplx(1, -1) / 2 * fp[1]) / 16
    lhs_drift = ar.sqrt(ar.real(3) / 32) * f_at
    return -ar.cplx(0, 1) * ar.sqrt(2) * (rhs_prime - lhs_drift)


def _finite_difference(ar: _Arith, cfg: PrecisionConfig, z):
    """The stencil of the finite-difference route around z = e^{i pi/3}, and
    the step that turns F at its nodes into F': a 4th-order stencil at
    h = 1e-3 in double mode (a plain central difference at an h small enough
    for 1e-10 would already be dominated by roundoff there), a central
    difference at h = 10^(-dps/3) in extended mode."""
    if cfg.mode == "extended":
        h = ar.real(10) ** (-cfg.dps // 3)
        return [z + h, z - h], lambda f: (f[0] - f[1]) / (2 * h)
    h = 1e-3
    return ([z + k * h for k in (-2, -1, 1, 2)],
            lambda f: (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h))


def f_prime_minus_omega(route: str = "closed_form",
                        config: PrecisionConfig | None = None):
    """F'(e^{i pi/3}) by the requested route.

    route = "closed_form"       Gamma(1/3)^3 / Gamma(2/3)^3 expression
    route = "elliptic"          chain rule through K and E at k_+/-
    route = "finite_difference" central difference of the AGM evaluation
    """
    cfg = _cfg(config)
    if route not in ("closed_form", "elliptic", "finite_difference"):
        raise DomainError(f"unknown route {route!r}")
    with _arith(cfg) as ar:
        if route == "closed_form":
            return _f_prime_closed(ar, _consts(ar))
        if route == "elliptic":
            moduli = ar.moduli()
            ke, (f_at,) = ar.agm(moduli, [ar.minus_omega()])
            return _f_prime_elliptic(ar, moduli, *ke, f_at)
        nodes, derivative = _finite_difference(ar, cfg, ar.minus_omega())
        return derivative(ar.hyp(nodes))


def closed_form_checks(config: PrecisionConfig | None = None) -> list[dict]:
    """Evaluate each closed form against an independent numeric route.

    Returns one row per identity: name, the numerically computed value, the
    closed form, and their relative difference, taken in the arithmetic of
    the precision mode.  Every numeric route goes through the AGM (plus a
    finite difference for the derivative), never through the Gamma(1/3)^3
    expressions being checked.  Each AGM value is computed once: K and E at
    k_+ and k_- and F(e^{i pi/3}) are the K, E and F(-omega) rows and also
    the inputs of the elliptic F' row.  The Ramanujan identity at x = sqrt3
    takes F at (1 + i sqrt3)/2 = e^{i pi/3}, and at (1 +- sqrt3/2)/2 =
    k_+-^2, where F is 2K(k_+-)/pi, so its row runs no AGM of its own.  The
    checks make one AGM pass of the arithmetic (``agm``) over the two
    moduli, F(-omega) and the finite-difference stencil: 7 points in double
    mode (4-point stencil), one ``_kernels.ellipke_hyp2f1_half_array``
    call, and 5 in extended mode (2-point stencil), one
    ``_kernels.agm_fixed`` call per point.  The singular moduli and
    e^{i pi/3} are formed once too.  The closed forms share one gamma pass
    over 1/3 and 2/3 (one ``_kernels.gamma_array`` call in double mode), and
    write every power of 2 and 3 as integer powers of one 2^(1/3) and one
    3^(1/4).
    """
    cfg = _cfg(config)
    with _arith(cfg) as ar:
        moduli, z = ar.moduli(), ar.minus_omega()
        stencil, derivative = _finite_difference(ar, cfg, z)
        ke_pm, (f_at, *f) = ar.agm(moduli, [z, *stencil])
        (kkp, eep), (kkm, eem) = ke_pm
        # the Ramanujan arguments at x = sqrt3 are (1 + i sqrt3)/2 = -omega
        # itself and (1 +- sqrt3/2)/2 = k_+-^2, where F is 2K/pi
        _, ram_defect = _ramanujan(ar, ar.sqrt(ar.real(3)))
        consts = _consts(ar)
        fp_closed = _f_prime_closed(ar, consts)
        rows = [
            ("K(k_plus)", kkp, _k_closed(ar, consts, +1)),
            ("K(k_minus)", kkm, _k_closed(ar, consts, -1)),
            ("E(k_plus)", eep, _e_closed(ar, consts, +1)),
            ("E(k_minus)", eem, _e_closed(ar, consts, -1)),
            ("F(-omega)", f_at, _f_closed(ar, consts)),
            ("Fprime(-omega) elliptic", _f_prime_elliptic(ar, moduli, *ke_pm, f_at),
             fp_closed),
            ("Fprime(-omega) finite difference", derivative(f), fp_closed),
        ]
        out = [{"name": name, "computed": complex(computed),
                "closed_form": complex(closed),
                "rel_err": float(abs(computed - closed) / abs(closed))}
               for name, computed, closed in rows]
        r = float(ram_defect([f_at, 2 * kkp / ar.pi, 2 * kkm / ar.pi]))
    out.append({"name": "ramanujan x=sqrt3", "computed": complex(r, 0.0),
                "closed_form": 0j, "rel_err": r})
    return out
