"""The extended-precision arithmetic of ``specfun``: mpmath numbers at the
working digits that ``specfun._arith`` sets, with the exact singular moduli
and an mpmath AGM.

``specfun._arith`` imports this module on the first extended-precision
request, so a double-precision run never loads mpmath.
"""

from __future__ import annotations

import mpmath as mp

from .errors import ConvergenceError
from .specfun import _Arith


def _agm_mp(a, b, s):
    """Optimal AGM on mpmath complex numbers (same sign rule as the kernel),
    with the kernel's companion sum: returns the mean and the sum."""
    tol = mp.mpf(10) ** (-mp.mp.dps)
    pow2 = mp.mpf(0.5)
    for _ in range(64):
        if mp.fabs(a - b) <= tol * (mp.fabs(a) + mp.fabs(b)):
            return a, s
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


def _hyp_mp(z):
    return 1 / _agm_mp(mp.mpc(1), mp.sqrt(1 - mp.mpc(z)), 0)[0]


def _ellipke_mp(k):
    k = mp.mpc(k)
    a, s = _agm_mp(mp.mpc(1), mp.sqrt(1 - k * k), k * k / 2)
    kk = mp.pi / (2 * a)
    return kk, kk * (1 - s)


# mpmath numbers evaluate at the working precision that ``specfun._arith`` sets
_EXTENDED = _Arith(
    mp.mpf, mp.mpc, mp.sqrt, mp.pi,
    mp.gamma, mp.digamma,
    _hyp_mp, _ellipke_mp,
    lambda: ((mp.sqrt(6) + mp.sqrt(2)) / 4, (mp.sqrt(6) - mp.sqrt(2)) / 4),
    lambda: mp.exp(mp.mpc(0, mp.pi / 3)))
