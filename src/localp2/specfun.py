"""Complex special functions used by the mirror-map computation.

The public functions work in double precision, through the numpy kernels in
``_kernels``.  Extended precision (mpmath, at ``_EXTENDED_DPS`` = 40 digits)
is the arithmetic of the closed-form checks alone.  They tie complete
elliptic integrals at the third singular value pair k_- = (sqrt6 - sqrt2)/4,
k_+ = (sqrt6 + sqrt2)/4 to Gamma(1/3)^3, and give the value and derivative of

    F(z) := 2F1(1/2, 1/2; 1; z)

at z = e^{i pi/3}, the argument produced by the degenerate fiber of the
elliptic fibration at the origin of the base.  Each closed form and each
numeric route it is checked against has one entry, its row of
``closed_form_checks``.

Every route, closed form or numeric, is written once against the numbers of
the precision mode (``_arith``): Python floats, the ``_kernels`` gamma and the
``_kernels`` AGM in double mode.  In extended mode the AGM is one fixed-point
loop on Gaussian integers (``_extended.agm_fixed``) at the working digits
plus guard bits, with E from its companion sum as in double mode; mpmath
supplies only the numbers, ``gamma``, the cube root and ``hypot``.  mpmath
and ``_extended`` are imported only on the first extended-precision request,
so a double-precision run loads neither.  The closed forms take Gamma(1/3)
and Gamma(2/3) from one gamma pass of the arithmetic, and write every power
of 2 and 3 they take as a product of integer powers of c = 2^(1/3) and
q = 3^(1/4), formed once per evaluation, so none of them calls a
transcendental power.  The numeric routes a closed
form is checked against (AGM, the elliptic chain rule, the finite
difference, the splitting identity) never call a closed form, and only the
finite-difference stencil differs by mode.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from contextlib import contextmanager

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
# working digits of extended precision
_EXTENDED_DPS = 40


class PrecisionConfig(namedtuple("PrecisionConfig", "mode target_rel_err")):
    """Evaluation settings of a library call; the CLI builds none.

    mode             str: "double" (numpy kernels) or "extended" (mpmath
                     numbers at ``_EXTENDED_DPS`` digits and a fixed-point
                     AGM); only ``closed_form_checks`` reads it
    target_rel_err   float: the error-estimate threshold of
                     ``mirror_geometry.periods``, read only when the config
                     is passed there as its ``quad``

    DomainError unless mode is one of those two strings and target_rel_err
    a number in [1e-15, 1e-6].
    """

    __slots__ = ()

    def __new__(cls, mode: str = "double", target_rel_err: float = 1e-13):
        if not (isinstance(mode, str) and mode in {"double", "extended"}):
            raise DomainError(f"unknown precision mode {mode!r}")
        if not (isinstance(target_rel_err, numbers.Real) and 1e-15 <= target_rel_err <= 1e-6):
            raise DomainError(f"target_rel_err must lie in [1e-15, 1e-6], got {target_rel_err!r}")
        return super().__new__(cls, mode, target_rel_err)

    # _replace builds through _make, so both check what __new__ checks
    _make = classmethod(lambda cls, fields: cls(*fields))


def default_config() -> PrecisionConfig:
    """The settings of a call made without a config: double precision."""
    return PrecisionConfig()


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


def _double_agm(ks, zs) -> tuple[list, list]:
    """(K(k), E(k)) at the moduli ks and 2F1(1/2, 1/2; 1; z) at the points
    zs from one ``_kernels`` AGM pass over both."""
    kk, ee, f, ok = _kernels.ellipke_hyp2f1_half_array(_double_moduli(ks), zs)
    if not ok:
        raise ConvergenceError("AGM did not converge within 64 iterations")
    return list(zip(kk.tolist(), ee.tolist())), f.tolist()


# The numbers of one precision mode, against which each numeric route is
# written once.  Every field but pi (a float or mpf) is a function:
#   real         float -> float or mpf
#   cplx         (re, im) -> complex or mpc
#   sqrt         x -> sqrt(x)
#   cbrt         x -> x^(1/3), x real
#   hypot        (x, y) -> sqrt(x^2 + y^2), without overflow
#   gamma        [z] -> [Gamma(z)]
#   agm          ([k], [z]) -> ([(K(k), E(k))], [2F1(1/2, 1/2; 1; z)]), one pass
#   moduli       () -> the singular moduli (k_+, k_-)
#   minus_omega  () -> e^{i pi/3}
_Arith = namedtuple("_Arith", "real cplx sqrt cbrt hypot pi gamma agm moduli minus_omega")


_DOUBLE = _Arith(
    float, complex, math.sqrt, lambda x: x ** (1.0 / 3.0), math.hypot, math.pi,
    _double_gamma, _double_agm, lambda: (K_PLUS, K_MINUS), lambda: MINUS_OMEGA)


@contextmanager
def _arith(cfg: PrecisionConfig):
    """The arithmetic of ``cfg.mode``; extended mode imports mpmath and
    ``_extended`` (once per process) and works at ``_EXTENDED_DPS`` digits
    inside the block.  Its AGM is ``_extended.joint``: ``_extended.agm_fixed``
    on fixed-point Gaussian integers, one point at a time, the moduli and
    then the 2F1 arguments.  mpmath supplies the numbers, 1 - x and
    ``gamma``.  A real argument with a real AGM gives an ``mpf``."""
    if cfg.mode != "extended":
        yield _DOUBLE
        return
    import mpmath as mp

    from . import _extended

    with mp.workdps(_EXTENDED_DPS):
        yield _Arith(
            mp.mpf, mp.mpc, mp.sqrt, mp.cbrt, mp.hypot, mp.pi,
            lambda zs: [mp.gamma(z) for z in zs], _extended.joint,
            lambda: ((mp.sqrt(6) + mp.sqrt(2)) / 4, (mp.sqrt(6) - mp.sqrt(2)) / 4),
            lambda: mp.exp(mp.mpc(0, mp.pi / 3)))


# ---------------------------------------------------------------------------
# public special functions
# ---------------------------------------------------------------------------


def gamma(z):
    """Gamma function for complex argument.

    The relative error measured on grids of |z| <= 30 that keep 0.05 from
    the poles is below 4e-14; within d < 0.05 of a pole it grows like
    1e-16 |z| / d.  A value below the double range is 0, and one above it
    raises DomainError."""
    zc = _finite("gamma", z)
    if _near_nonpositive_integer(zc):
        raise PoleError(f"gamma pole at z = {zc}")
    return _double_gamma([zc if zc.imag else zc.real])[0]


def digamma(z):
    """Digamma function for complex argument (|z| <= 100 contract)."""
    zc = _finite("digamma", z)
    if _near_nonpositive_integer(zc):
        raise PoleError(f"digamma pole at z = {zc}")
    return complex(_kernels.digamma_array(zc if zc.imag else zc.real)[0])


def hyp2f1_half(z):
    """2F1(1/2, 1/2; 1; z) on the cut plane C minus [1, oo), via 1/AGM(1, sqrt(1-z))."""
    zc = _finite("hyp2f1_half", z)
    if _on_cut_from_one(zc):
        raise BranchCutError(f"hyp2f1_half argument {zc} lies on the cut [1, oo)")
    return _double_agm([], [z])[1][0]


def _ellipke(name: str, k):
    kc = _finite(name, k)
    if _on_cut_from_one(kc * kc):
        raise BranchCutError(f"{name} modulus {kc} has k^2 on [1, oo)")
    return _double_agm([k], [])[0][0]


def elliptic_K(k):
    """Complete elliptic integral K(k) (modulus convention) by the AGM.

    A modulus whose |k^2| exceeds the double range, |k| above about
    1.34e154, raises DomainError."""
    return _ellipke("elliptic_K", k)[0]


def elliptic_E(k):
    """Complete elliptic integral E(k) from the companion sum of the AGM
    that gives K, on the domain of ``elliptic_K``."""
    return _ellipke("elliptic_E", k)[1]


def _ramanujan_defect(ar: _Arith, r, f):
    """|LHS - RHS| of the splitting identity at x, r = sqrt(1 + x^2), from F
    at its three arguments (1 + ix)/2 and (1 +- x/r)/2."""
    lhs = ar.sqrt(r) * f[0]
    rhs = ar.cplx(1, 1) / 2 * f[1] + ar.cplx(1, -1) / 2 * f[2]
    return abs(lhs - rhs)


def ramanujan_residual(x):
    """Defect of the quarter-power splitting identity

        (1+x^2)^{1/4} F((1+ix)/2)
            = (1+i)/2 F((1 + x/sqrt(1+x^2))/2) + (1-i)/2 F((1 - x/sqrt(1+x^2))/2)

    at real x >= 0.  Returns |LHS - RHS|.

    The node (1 + x/sqrt(1+x^2))/2 tends to 1, the branch point of F, as x
    grows.  Where it rounds to 1 in double precision, from about x = 4.5e7,
    BranchCutError is raised.  sqrt(1+x^2) is formed by ``hypot``, so it
    does not overflow.

    Well before that threshold the residual measures the rounding of that
    node, not the identity: 1 - node is about 1/(4x^2), so one rounding of
    the node moves it by up to 4x^2 2^-53 of itself, and F is log-singular
    there.  Measured: 1.7e-13 at x = 1e2, 1.6e-11 at 1e3, 1.9e-8 at 1e5,
    2.0e-5 at 1e6 and 5.2e-3 at 1e7.
    """
    xf = float(x)
    if xf < 0.0 or not math.isfinite(xf):
        raise DomainError("ramanujan_residual expects real x >= 0")
    r = math.hypot(1, xf)
    nodes = [complex(1, xf) / 2, (1 + xf / r) / 2, (1 - xf / r) / 2]
    if nodes[1] >= 1:
        raise BranchCutError(f"ramanujan_residual at x = {xf}: the node "
                             "(1 + x/sqrt(1+x^2))/2 rounds to 1, the branch point of F")
    return _ramanujan_defect(_DOUBLE, r, _double_agm([], nodes)[1])


# ---------------------------------------------------------------------------
# closed forms at the third singular value and at -omega = e^{i pi/3}
# ---------------------------------------------------------------------------


def _consts(ar: _Arith):
    """(pi, sqrt3, gamma(1/3)^3, gamma(2/3)^3, c, q, sqrt2, e4, e4c) in the
    arithmetic ``ar``, the ``consts`` argument of each closed form below.
    Gamma(1/3) and Gamma(2/3) come from one gamma pass.  c = 2^(1/3) and
    q = 3^(1/4) = sqrt(sqrt3) are the two algebraic numbers the closed forms
    are written in: every power of 2 and 3 they take is a product of integer
    powers of c, q and sqrt3 = q^2, so none of them calls a transcendental
    power.  e4 = e^{i pi/4} = (1 + i)/sqrt2 and e4c, its conjugate, are the
    phases of F and F' at e^{i pi/3}."""
    s3, r2 = ar.sqrt(ar.real(3)), ar.sqrt(ar.real(2))
    g13, g23 = ar.gamma([ar.real(1) / 3, ar.real(2) / 3])
    return (ar.pi, s3, g13 ** 3, g23 ** 3, ar.cbrt(ar.real(2)), ar.sqrt(s3),
            r2, ar.cplx(1, 1) / r2, ar.cplx(1, -1) / r2)


def _k_closed(ar: _Arith, consts, sign: int):
    """K(k_+) (sign=+1) or K(k_-) (sign=-1): 2^(-7/3) 3^(3/4 or 1/4)
    Gamma(1/3)^3 / pi, with 2^(-7/3) = 1/(4c)."""
    pi, s3, g3, _, c, q, *_ = consts
    q_pow = s3 * q if sign > 0 else q
    return q_pow * g3 / (4 * c * pi)


def _e_closed(ar: _Arith, consts, sign: int):
    """E(k_+) (sign=+1) or E(k_-) (sign=-1):

        E(k_+) = 2^(1/3) 3^(-1/4) pi^2 / G + 2^(-10/3) 3^(1/4) (sqrt3 - 1) G / pi
        E(k_-) = 2^(1/3) 3^(-3/4) pi^2 / G + 2^(-10/3) 3^(-1/4) (sqrt3 + 1) G / pi

    with G = Gamma(1/3)^3 and 2^(-10/3) = c^2/16."""
    pi, s3, g3, _, c, q, *_ = consts
    if sign > 0:
        return c / q * pi * pi / g3 + c * c / 16 * q * (s3 - 1) / pi * g3
    return c / (s3 * q) * pi * pi / g3 + c * c / (16 * q) * (s3 + 1) / pi * g3


def _f_closed(ar: _Arith, consts):
    """F(e^{i pi/3}) = e^{i pi/4} a + e^{-i pi/4} b, with b = K(k_-)/pi and
    a = K(k_+)/pi = sqrt3 b."""
    pi, s3, g3, _, c, q, _, e4, e4c = consts
    b = q * g3 / (4 * c * pi * pi)
    return e4 * (s3 * b) + e4c * b


def _f_prime_closed(ar: _Arith, consts):
    """F'(e^{i pi/3}) =   2^(-7/3) 3^(-1/4) G (e4 - sqrt3 e4c) / (2 pi^2)
                        + 2^(-8/3) 3^(3/4) G' (e4 + sqrt3 e4c) / pi^2

    with G = Gamma(1/3)^3, G' = Gamma(2/3)^3, e4 = e^{i pi/4}, e4c its
    conjugate, 2^(-7/3) = 1/(4c) and 2^(-8/3) = c/8."""
    pi, s3, g3, g23, c, q, _, e4, e4c = consts
    return (g3 / (4 * c * q) * (e4 - s3 * e4c) / (2 * pi * pi)
            + g23 * s3 * q * c / 8 * (e4 + s3 * e4c) / (pi * pi))


def _f_prime_elliptic(ar: _Arith, r2, moduli, ke_plus, ke_minus, f_at):
    """F'(e^{i pi/3}) by differentiating the splitting identity at x = sqrt3.

    Uses dK/dk = E/(k(1-k^2)) - K/k at the two real singular moduli, so the
    route is independent of the Gamma(1/3)^3 closed form.  The values it
    rests on are those of the K, E and F(-omega) rows of
    ``closed_form_checks``: ``moduli`` is (k_+, k_-), ``ke_plus`` and
    ``ke_minus`` are (K, E) at k_+ and k_-, and ``f_at`` is F(e^{i pi/3});
    r2 is sqrt2.
    """
    fp = []
    for k, (kk, ee) in zip(moduli, (ke_plus, ke_minus)):
        kprime = ee / (k * (1 - k * k)) - kk / k
        fp.append(kprime / (ar.pi * k))
    rhs_prime = (ar.cplx(1, 1) / 2 * fp[0] - ar.cplx(1, -1) / 2 * fp[1]) / 16
    lhs_drift = ar.sqrt(ar.real(3) / 32) * f_at
    return -ar.cplx(0, 1) * r2 * (rhs_prime - lhs_drift)


def _finite_difference(ar: _Arith, cfg: PrecisionConfig, z):
    """The stencil of the finite-difference route around z = e^{i pi/3}, and
    the step that turns F at its nodes into F': a 4th-order stencil at
    h = 1e-3 in double mode (a plain central difference at an h small enough
    for 1e-10 would already be dominated by roundoff there), a central
    difference at h = 10^(-dps/3) in extended mode, dps = ``_EXTENDED_DPS``."""
    if cfg.mode == "extended":
        h = ar.real(10) ** (-_EXTENDED_DPS // 3)
        return [z + h, z - h], lambda f: (f[0] - f[1]) / (2 * h)
    h = 1e-3
    return ([z + k * h for k in (-2, -1, 1, 2)],
            lambda f: (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h))


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
    ``_extended.agm_fixed`` call per point.  The singular moduli and
    e^{i pi/3} are formed once too, and so are sqrt2, sqrt3 and e^{+-i pi/4}
    (``_consts``), which the closed forms, the elliptic F' row and the
    Ramanujan row share.  The closed forms share one gamma pass over 1/3 and
    2/3 (one ``_kernels.gamma_array`` call in double mode), and write every
    power of 2 and 3 as integer powers of one 2^(1/3) and one 3^(1/4).
    DomainError unless ``config`` is a ``PrecisionConfig`` or None.
    """
    cfg = config if config is not None else default_config()
    if not isinstance(cfg, PrecisionConfig):
        raise DomainError(f"closed_form_checks takes a PrecisionConfig, got {config!r}")
    with _arith(cfg) as ar:
        moduli, z = ar.moduli(), ar.minus_omega()
        stencil, derivative = _finite_difference(ar, cfg, z)
        ke_pm, (f_at, *f) = ar.agm(moduli, [z, *stencil])
        (kkp, eep), (kkm, eem) = ke_pm
        consts = _consts(ar)
        s3, r2 = consts[1], consts[6]
        fp_closed = _f_prime_closed(ar, consts)
        rows = [
            ("K(k_plus)", kkp, _k_closed(ar, consts, +1)),
            ("K(k_minus)", kkm, _k_closed(ar, consts, -1)),
            ("E(k_plus)", eep, _e_closed(ar, consts, +1)),
            ("E(k_minus)", eem, _e_closed(ar, consts, -1)),
            ("F(-omega)", f_at, _f_closed(ar, consts)),
            ("Fprime(-omega) elliptic", _f_prime_elliptic(ar, r2, moduli, *ke_pm, f_at),
             fp_closed),
            ("Fprime(-omega) finite difference", derivative(f), fp_closed),
        ]
        out = [{"name": name, "computed": complex(computed),
                "closed_form": complex(closed),
                "rel_err": float(abs(computed - closed) / abs(closed))}
               for name, computed, closed in rows]
        # the Ramanujan arguments at x = sqrt3 are (1 + i sqrt3)/2 = -omega
        # itself and (1 +- sqrt3/2)/2 = k_+-^2, where F is 2K/pi
        r = float(_ramanujan_defect(ar, ar.hypot(1, s3), [f_at, 2 * kkp / ar.pi, 2 * kkm / ar.pi]))
    out.append({"name": "ramanujan x=sqrt3", "computed": complex(r, 0.0),
                "closed_form": 0j, "rel_err": r})
    return out
