"""Complex special functions used by the mirror-map computation.

Double precision goes through the numpy kernels in ``_kernels``; an
extended-precision mode (mpmath, >= 30 significant digits) backs the tightest
closed-form checks.  The closed forms tie complete elliptic integrals at the
third singular value pair k_- = (sqrt6 - sqrt2)/4, k_+ = (sqrt6 + sqrt2)/4 to
Gamma(1/3)^3, and give the value and derivative of

    F(z) := 2F1(1/2, 1/2; 1; z)

at z = e^{i pi/3}, the argument produced by the degenerate fiber of the
elliptic fibration at the origin of the base.

Each closed form has one mpmath body, evaluated at the configured digits in
extended mode and at 30 digits, rounded to complex, in double mode.  The
numeric routes it is checked against (AGM, the elliptic chain rule, the
finite difference, the splitting identity) have their own double and
extended evaluations and never call a closed form.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import mpmath as mp

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

    mode             "double" (numpy kernels) or "extended" (mpmath)
    dps              mpmath working digits in extended mode (>= 30)
    target_rel_err   requested relative accuracy for iterative evaluations
    max_terms        cap on series terms for the callers that sum series
    """

    mode: str = field(default_factory=_env_mode)
    dps: int = 40
    target_rel_err: float = 1e-13
    max_terms: int = 256

    def __post_init__(self) -> None:
        if self.mode not in {"double", "extended"}:
            raise DomainError(f"unknown precision mode {self.mode!r}")
        if self.mode == "extended" and self.dps < 30:
            raise DomainError("extended mode requires dps >= 30")
        if not (1e-15 <= self.target_rel_err <= 1e-6):
            raise DomainError("target_rel_err must lie in [1e-15, 1e-6]")
        if self.max_terms < 16:
            raise DomainError("max_terms must be >= 16")


def default_config() -> PrecisionConfig:
    return PrecisionConfig()


def _cfg(config: PrecisionConfig | None) -> PrecisionConfig:
    return config if config is not None else default_config()


def _near_nonpositive_integer(z: complex) -> bool:
    if z.real > 0.5:
        return False
    n = round(z.real)
    return n <= 0 and abs(z - n) < _POLE_TOL


def _on_cut_from_one(z: complex) -> bool:
    return abs(z.imag) < 1e-14 and z.real >= 1.0 - 1e-14


# ---------------------------------------------------------------------------
# extended-precision helpers (mpmath)
# ---------------------------------------------------------------------------


def _agm_mp(a, b):
    """Optimal AGM on mpmath complex numbers (same sign rule as the kernel)."""
    for _ in range(64):
        if mp.fabs(a - b) <= mp.mpf(10) ** (-mp.mp.dps) * (mp.fabs(a) + mp.fabs(b)):
            return a
        an = (a + b) / 2
        bn = mp.sqrt(a * b)
        if mp.fabs(an - bn) > mp.fabs(an + bn):
            bn = -bn
        elif mp.fabs(an - bn) == mp.fabs(an + bn) and an != 0:
            if mp.im(bn / an) < 0:
                bn = -bn
        a, b = an, bn
    raise ConvergenceError("AGM did not converge within 64 iterations")


def _hyp_mp(z):
    return 1 / _agm_mp(mp.mpc(1), mp.sqrt(1 - mp.mpc(z)))


def _ellipke_mp(k):
    k = mp.mpc(k)
    a = mp.mpc(1)
    b = mp.sqrt(1 - k * k)
    s = k * k / 2
    pow2 = mp.mpf(0.5)
    for _ in range(64):
        if mp.fabs(a - b) <= mp.mpf(10) ** (-mp.mp.dps) * (mp.fabs(a) + mp.fabs(b)):
            kk = mp.pi / (2 * a)
            return kk, kk * (1 - s)
        c = (a - b) / 2
        pow2 *= 2
        s += pow2 * c * c
        an = (a + b) / 2
        bn = mp.sqrt(a * b)
        if mp.fabs(an - bn) > mp.fabs(an + bn):
            bn = -bn
        elif mp.fabs(an - bn) == mp.fabs(an + bn) and an != 0:
            if mp.im(bn / an) < 0:
                bn = -bn
        a, b = an, bn
    raise ConvergenceError("AGM did not converge within 64 iterations")


# ---------------------------------------------------------------------------
# public special functions
# ---------------------------------------------------------------------------


def gamma(z, config: PrecisionConfig | None = None):
    """Gamma function for complex argument (relative error <= 1e-13 for |z| <= 30
    in double mode)."""
    cfg = _cfg(config)
    zc = complex(z)
    if _near_nonpositive_integer(zc):
        raise PoleError(f"gamma pole at z = {zc}")
    if cfg.mode == "extended":
        with mp.workdps(cfg.dps):
            return mp.gamma(mp.mpc(z) if zc.imag else mp.mpf(zc.real))
    return complex(_kernels.gamma_array(zc)[0])


def digamma(z, config: PrecisionConfig | None = None):
    """Digamma function for complex argument (|z| <= 100 contract in double mode)."""
    cfg = _cfg(config)
    zc = complex(z)
    if _near_nonpositive_integer(zc):
        raise PoleError(f"digamma pole at z = {zc}")
    if cfg.mode == "extended":
        with mp.workdps(cfg.dps):
            return mp.digamma(mp.mpc(z) if zc.imag else mp.mpf(zc.real))
    return complex(_kernels.digamma_array(zc)[0])


def hyp2f1_half(z, config: PrecisionConfig | None = None):
    """2F1(1/2, 1/2; 1; z) on the cut plane C minus [1, oo), via 1/AGM(1, sqrt(1-z))."""
    cfg = _cfg(config)
    zc = complex(z)
    if _on_cut_from_one(zc):
        raise BranchCutError(f"hyp2f1_half argument {zc} lies on the cut [1, oo)")
    if cfg.mode == "extended":
        with mp.workdps(cfg.dps):
            return _hyp_mp(z)
    val, ok = _kernels.hyp2f1_half_array(zc)
    if not ok:
        raise ConvergenceError("AGM did not converge within 64 iterations")
    return complex(val[0])


def elliptic_K(k, config: PrecisionConfig | None = None):
    """Complete elliptic integral K(k) (modulus convention) by the AGM."""
    cfg = _cfg(config)
    kc = complex(k)
    if _on_cut_from_one(kc * kc):
        raise BranchCutError(f"elliptic_K modulus {kc} has k^2 on [1, oo)")
    if cfg.mode == "extended":
        with mp.workdps(cfg.dps):
            return _ellipke_mp(k)[0]
    kk, _, ok = _kernels.ellipke_array(kc)
    if not ok:
        raise ConvergenceError("AGM did not converge within 64 iterations")
    return complex(kk[0])


def elliptic_E(k, config: PrecisionConfig | None = None):
    """Complete elliptic integral E(k) by the AGM companion sequence."""
    cfg = _cfg(config)
    kc = complex(k)
    if _on_cut_from_one(kc * kc):
        raise BranchCutError(f"elliptic_E modulus {kc} has k^2 on [1, oo)")
    if cfg.mode == "extended":
        with mp.workdps(cfg.dps):
            return _ellipke_mp(k)[1]
    _, ee, ok = _kernels.ellipke_array(kc)
    if not ok:
        raise ConvergenceError("AGM did not converge within 64 iterations")
    return complex(ee[0])


def ramanujan_residual(x, config: PrecisionConfig | None = None):
    """Defect of the quarter-power splitting identity

        (1+x^2)^{1/4} F((1+ix)/2)
            = (1+i)/2 F((1 + x/sqrt(1+x^2))/2) + (1-i)/2 F((1 - x/sqrt(1+x^2))/2)

    at real x >= 0.  Returns |LHS - RHS|.
    """
    cfg = _cfg(config)
    xf = float(x)
    if xf < 0.0 or not math.isfinite(xf):
        raise DomainError("ramanujan_residual expects real x >= 0")
    if cfg.mode == "extended":
        with mp.workdps(cfg.dps):
            xm = mp.mpf(xf)
            r = mp.sqrt(1 + xm * xm)
            lhs = mp.sqrt(r) * _hyp_mp(mp.mpc(1, xm) / 2)
            rhs = (mp.mpc(1, 1) / 2 * _hyp_mp((1 + xm / r) / 2)
                   + mp.mpc(1, -1) / 2 * _hyp_mp((1 - xm / r) / 2))
            return mp.fabs(lhs - rhs)
    r = math.sqrt(1.0 + xf * xf)
    lhs = math.sqrt(r) * hyp2f1_half(complex(1.0, xf) / 2.0, cfg)
    rhs = (complex(1.0, 1.0) / 2.0 * hyp2f1_half((1.0 + xf / r) / 2.0, cfg)
           + complex(1.0, -1.0) / 2.0 * hyp2f1_half((1.0 - xf / r) / 2.0, cfg))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# closed forms at the third singular value and at -omega = e^{i pi/3}
# ---------------------------------------------------------------------------


def _closed_form(cfg: PrecisionConfig, body, *args):
    """Evaluate the mpmath ``body(*args)`` of a closed form: at ``cfg.dps``
    digits in extended mode, and in double mode at a fixed 30 digits (double
    mode does not validate ``dps``), cast to complex."""
    if cfg.mode == "extended":
        with mp.workdps(cfg.dps):
            return body(*args)
    with mp.workdps(30):
        return complex(body(*args))


def _consts():
    """(pi, sqrt3, gamma(1/3)^3, gamma(2/3)^3, two) at the working precision."""
    return (mp.pi, mp.sqrt(mp.mpf(3)), mp.gamma(mp.mpf(1) / 3) ** 3,
            mp.gamma(mp.mpf(2) / 3) ** 3, mp.mpf(2))


def _k_closed(sign: int):
    pi, _, g3, _, two = _consts()
    expo = mp.mpf(3) / 4 if sign > 0 else mp.mpf(1) / 4
    return two ** (-mp.mpf(7) / 3) * mp.mpf(3) ** expo * g3 / pi


def _e_closed(sign: int):
    pi, s3, g3, _, two = _consts()
    if sign > 0:
        return (two ** (mp.mpf(1) / 3) * mp.mpf(3) ** (-mp.mpf(1) / 4) * pi * pi / g3
                + two ** (-mp.mpf(10) / 3) * mp.mpf(3) ** (mp.mpf(1) / 4)
                * (s3 - 1) / pi * g3)
    return (two ** (mp.mpf(1) / 3) * mp.mpf(3) ** (-mp.mpf(3) / 4) * pi * pi / g3
            + two ** (-mp.mpf(10) / 3) * mp.mpf(3) ** (-mp.mpf(1) / 4)
            * (s3 + 1) / pi * g3)


def _f_closed():
    pi, _, g3, _, two = _consts()
    a = two ** (-mp.mpf(7) / 3) * mp.mpf(3) ** (mp.mpf(3) / 4) * g3 / (pi * pi)
    b = two ** (-mp.mpf(7) / 3) * mp.mpf(3) ** (mp.mpf(1) / 4) * g3 / (pi * pi)
    r2 = mp.sqrt(two)
    return mp.mpc(1, 1) / r2 * a + mp.mpc(1, -1) / r2 * b


def _f_prime_closed():
    pi, s3, g3, g23, two = _consts()
    e4 = mp.exp(mp.mpc(0, pi / 4))
    e4c = mp.exp(mp.mpc(0, -pi / 4))
    return (g3 * mp.mpf(3) ** (-mp.mpf(1) / 4) * two ** (-mp.mpf(7) / 3)
            * (e4 - s3 * e4c) / (2 * pi * pi)
            + g23 * mp.mpf(3) ** (mp.mpf(3) / 4) * two ** (-mp.mpf(8) / 3)
            * (e4 + s3 * e4c) / (pi * pi))


def elliptic_K_closed_form(sign: int, config: PrecisionConfig | None = None):
    """Closed form of K(k_+) (sign=+1) or K(k_-) (sign=-1) in terms of Gamma(1/3)^3."""
    return _closed_form(_cfg(config), _k_closed, sign)


def elliptic_E_closed_form(sign: int, config: PrecisionConfig | None = None):
    """Closed form of E(k_+) (sign=+1) or E(k_-) (sign=-1)."""
    return _closed_form(_cfg(config), _e_closed, sign)


def f_minus_omega(route: str = "closed_form", config: PrecisionConfig | None = None):
    """F(e^{i pi/3}) either from its Gamma(1/3)^3 closed form or numerically by AGM."""
    cfg = _cfg(config)
    if route == "agm":
        if cfg.mode == "extended":
            with mp.workdps(cfg.dps):
                return _hyp_mp(mp.exp(mp.mpc(0, mp.pi / 3)))
        return hyp2f1_half(MINUS_OMEGA, cfg)
    if route != "closed_form":
        raise DomainError(f"unknown route {route!r}")
    return _closed_form(cfg, _f_closed)


def _f_prime_elliptic(cfg: PrecisionConfig):
    """F'(e^{i pi/3}) by differentiating the splitting identity at x = sqrt3.

    Uses dK/dk = E/(k(1-k^2)) - K/k at the two real singular moduli, so the
    route is independent of the Gamma(1/3)^3 closed form.
    """
    if cfg.mode == "extended":
        s3 = mp.sqrt(mp.mpf(3))
        kp = (mp.sqrt(mp.mpf(6)) + mp.sqrt(mp.mpf(2))) / 4
        km = (mp.sqrt(mp.mpf(6)) - mp.sqrt(mp.mpf(2))) / 4
        fp = []
        for k in (kp, km):
            kk, ee = _ellipke_mp(k)
            kprime = ee / (k * (1 - k * k)) - kk / k
            fp.append(kprime / (mp.pi * k))
        rhs_prime = (mp.mpc(1, 1) / 2 * fp[0] - mp.mpc(1, -1) / 2 * fp[1]) / 16
        f_at = _hyp_mp(mp.exp(mp.mpc(0, mp.pi / 3)))
        lhs_drift = s3 * 2 ** mp.mpf("-2.5") * f_at
        return -mp.mpc(0, 1) * mp.sqrt(mp.mpf(2)) * (rhs_prime - lhs_drift)
    fp = []
    for k in (K_PLUS, K_MINUS):
        kk = elliptic_K(k, cfg)
        ee = elliptic_E(k, cfg)
        kprime = ee / (k * (1.0 - k * k)) - kk / k
        fp.append(kprime / (math.pi * k))
    rhs_prime = (complex(1.0, 1.0) / 2.0 * fp[0] - complex(1.0, -1.0) / 2.0 * fp[1]) / 16.0
    f_at = hyp2f1_half(MINUS_OMEGA, cfg)
    lhs_drift = math.sqrt(3.0) * 2.0 ** -2.5 * f_at
    return -1j * math.sqrt(2.0) * (rhs_prime - lhs_drift)


def f_prime_minus_omega(route: str = "closed_form",
                        config: PrecisionConfig | None = None):
    """F'(e^{i pi/3}) by the requested route.

    route = "closed_form"       Gamma(1/3)^3 / Gamma(2/3)^3 expression
    route = "elliptic"          chain rule through K and E at k_+/-
    route = "finite_difference" central difference of the AGM evaluation
    """
    cfg = _cfg(config)
    if route == "elliptic":
        if cfg.mode == "extended":
            with mp.workdps(cfg.dps):
                return _f_prime_elliptic(cfg)
        return _f_prime_elliptic(cfg)
    if route == "finite_difference":
        if cfg.mode == "extended":
            with mp.workdps(cfg.dps):
                h = mp.mpf(10) ** (-cfg.dps // 3)
                z = mp.exp(mp.mpc(0, mp.pi / 3))
                return (_hyp_mp(z + h) - _hyp_mp(z - h)) / (2 * h)
        # 4th-order stencil: plain central at h small enough for 1e-10 would
        # already be dominated by roundoff in double precision
        h = 1e-3
        f = [hyp2f1_half(MINUS_OMEGA + k * h, cfg) for k in (-2, -1, 1, 2)]
        return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
    if route != "closed_form":
        raise DomainError(f"unknown route {route!r}")
    return _closed_form(cfg, _f_prime_closed)


def closed_form_checks(config: PrecisionConfig | None = None) -> list[dict]:
    """Evaluate each closed form against an independent numeric route.

    Returns one row per identity: name, the numerically computed value, the
    closed form, and their relative difference.  Every numeric route goes
    through the AGM (plus a finite difference for the derivative), never
    through the Gamma(1/3)^3 expressions being checked.
    """
    cfg = _cfg(config)

    def row(name, computed, closed):
        c = complex(computed)
        f = complex(closed)
        rel = abs(c - f) / abs(f)
        return {"name": name, "computed": c, "closed_form": f, "rel_err": rel}

    if cfg.mode == "extended":
        with mp.workdps(cfg.dps):
            kp = (mp.sqrt(mp.mpf(6)) + mp.sqrt(mp.mpf(2))) / 4
            km = (mp.sqrt(mp.mpf(6)) - mp.sqrt(mp.mpf(2))) / 4
            kkp, eep = _ellipke_mp(kp)
            kkm, eem = _ellipke_mp(km)
            rows = [
                ("K(k_plus)", kkp, elliptic_K_closed_form(+1, cfg)),
                ("K(k_minus)", kkm, elliptic_K_closed_form(-1, cfg)),
                ("E(k_plus)", eep, elliptic_E_closed_form(+1, cfg)),
                ("E(k_minus)", eem, elliptic_E_closed_form(-1, cfg)),
                ("F(-omega)", f_minus_omega("agm", cfg), f_minus_omega("closed_form", cfg)),
                ("Fprime(-omega) elliptic", f_prime_minus_omega("elliptic", cfg),
                 f_prime_minus_omega("closed_form", cfg)),
                ("Fprime(-omega) finite difference",
                 f_prime_minus_omega("finite_difference", cfg),
                 f_prime_minus_omega("closed_form", cfg)),
                ("ramanujan x=sqrt3", ramanujan_residual(mp.sqrt(mp.mpf(3)), cfg), 1),
            ]
            out = []
            for name, computed, closed in rows[:-1]:
                rel = float(mp.fabs(mp.mpc(computed) - mp.mpc(closed)) / mp.fabs(mp.mpc(closed)))
                out.append({"name": name, "computed": complex(computed),
                            "closed_form": complex(closed), "rel_err": rel})
            out.append({"name": "ramanujan x=sqrt3",
                        "computed": complex(float(rows[-1][1]), 0.0),
                        "closed_form": 0j, "rel_err": float(rows[-1][1])})
            return out

    rows = [
        row("K(k_plus)", elliptic_K(K_PLUS, cfg), elliptic_K_closed_form(+1, cfg)),
        row("K(k_minus)", elliptic_K(K_MINUS, cfg), elliptic_K_closed_form(-1, cfg)),
        row("E(k_plus)", elliptic_E(K_PLUS, cfg), elliptic_E_closed_form(+1, cfg)),
        row("E(k_minus)", elliptic_E(K_MINUS, cfg), elliptic_E_closed_form(-1, cfg)),
        row("F(-omega)", f_minus_omega("agm", cfg), f_minus_omega("closed_form", cfg)),
        row("Fprime(-omega) elliptic", f_prime_minus_omega("elliptic", cfg),
            f_prime_minus_omega("closed_form", cfg)),
        row("Fprime(-omega) finite difference",
            f_prime_minus_omega("finite_difference", cfg),
            f_prime_minus_omega("closed_form", cfg)),
    ]
    r = ramanujan_residual(math.sqrt(3.0), cfg)
    rows.append({"name": "ramanujan x=sqrt3", "computed": complex(r, 0.0),
                 "closed_form": 0j, "rel_err": float(r)})
    return rows
