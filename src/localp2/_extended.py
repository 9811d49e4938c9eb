"""The AGM of extended precision: one fixed-point loop on Gaussian integers
(pairs of Python ints) at mpmath's working precision plus guard bits, with
E from its companion sum as in double mode.

``specfun._arith`` imports this module on the first extended-precision
request, as it imports mpmath, so a double-precision run loads neither.
``joint`` is that arithmetic's ``agm`` entry.
"""

from __future__ import annotations

import math

import mpmath as mp
from mpmath import libmp

from ._kernels import _AGM_MAX_ITER
from .errors import ConvergenceError

# ``agm_fixed`` stops once both parts of a - b are at most this many units
# of 2^-q: its roots and halvings round down, by under a unit each
_AGM_FIXED_UNITS = 8
# fractional bits the fixed-point AGM keeps beyond mpmath's working precision
# (and beyond the bits by which 1 and sqrt(1 - x) differ in size)
_AGM_GUARD_BITS = 32


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
    fixed-point Gaussian integers: ``_kernels._agm`` at q fractional bits.
    From a = 1 and the principal sqrt(u), a_n and b_n stay in the closed
    right half-plane, and the principal root of a_n b_n lies in the angle
    between them, as their mean does; so that root keeps Re(b conj a) >= 0,
    the optimal AGM's sign, and this loop and ``_kernels._agm`` take it
    with no sign test.

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
    m, ratio, ok = agm_fixed(tuple(libmp.to_fixed(t, 2 * q) for t in u), q)
    if not ok:
        raise ConvergenceError("AGM did not converge within 64 iterations")
    # a real x below 1 keeps every iterate real
    real = real and not m[1]
    return num(m, -q, wp, real), num(ratio, -2 * q - 2, wp, real)


def num(v, exp, wp, real):
    """The Gaussian integer v times 2^exp, rounded to wp bits."""
    re, im = (libmp.from_man_exp(p, exp, wp, libmp.round_nearest) for p in v)
    return mp.mp.make_mpf(re) if real else mp.mp.make_mpc((re, im))


def joint(ks, zs):
    """([(K(k), E(k))] at the moduli ks, [2F1(1/2, 1/2; 1; z)] at the points
    zs) at the working precision, one ``agm_fixed`` run per point: the
    moduli, then the 2F1 arguments.  2F1 is 1/M, K is pi/(2M) and E is K
    times the companion-sum factor, with M = AGM(1, sqrt(1 - x)), x = z or
    k^2."""
    wp = mp.mp.prec + _AGM_GUARD_BITS
    ke = []
    for k in ks:
        # 1 - k^2 from k itself, so it keeps its relative precision as k -> 1
        m, ratio = agm(mp.fmul(mp.fsub(1, k, prec=wp), mp.fadd(1, k, prec=wp), prec=wp), wp)
        kk = mp.pi / (2 * m)
        ke.append((kk, kk * ratio))
    return ke, [1 / agm(mp.fsub(1, z, prec=wp), wp)[0] for z in zs]
