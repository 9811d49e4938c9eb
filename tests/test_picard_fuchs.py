"""Series solutions, contour representation, annihilator, and transport.

Oracles: explicit factorial-coefficient sums (independent of the module's
recurrence-based summation) and mpmath digamma values.
"""

import cmath
import inspect
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

import localp2.picard_fuchs as pf
from localp2 import _kernels, _taylor
from localp2.errors import ConvergenceError, DomainError, MonodromyError


# --- oracles ---------------------------------------------------------------

def coeff_oracle(m: int) -> Fraction:
    return Fraction(math.factorial(3 * m - 1), math.factorial(m) ** 3)


def w1_oracle(y: complex, n_terms: int = 80, theta: int = 0) -> complex:
    """Single-log solution summed directly from factorial coefficients, or
    its theta-th derivative in theta = y d/dy (theta <= 3)."""
    s = sum(m ** theta * float(coeff_oracle(m)) * (-y) ** m for m in range(1, n_terms + 1))
    return ((cmath.log(y), 1.0, 0.0, 0.0)[theta] + 3.0 * s) / (2j * math.pi)


def w2_oracle(y: complex, n_terms: int = 80, theta: int = 0) -> complex:
    """Double-log solution from factorial coefficients and mpmath digammas
    (at 30 digits), or its theta-th derivative (theta <= 3): theta m^k-weights
    the terms, and the log factors follow Leibniz's rule."""
    ln_my = cmath.log(y) - 1j * math.pi
    d_ln = (ln_my, 1.0, 0.0, 0.0)                       # theta^j log(-y)
    s_plain = [0j] * (theta + 1)                        # sum m^j t_m, j <= theta
    s_psi = 0j
    for m in range(1, n_terms + 1):
        t = float(coeff_oracle(m)) * (-y) ** m
        for j in range(theta + 1):
            s_plain[j] += m ** j * t
        with mp.workdps(30):
            s_psi += m ** theta * t * float(mp.digamma(3 * m) - mp.digamma(m + 1))
    leibniz = [math.comb(theta, j) * d_ln[j] for j in range(theta + 1)]
    log_sq = sum(c * d_ln[theta - j] for j, c in enumerate(leibniz))
    log_s = sum(c * s_plain[theta - j] for j, c in enumerate(leibniz))
    pi2 = math.pi ** 2
    return (-log_sq / (8 * pi2) + (0.125 if theta == 0 else 0.0)
            - 3 * log_s / (4 * pi2) - 9 * s_psi / (4 * pi2))


# --- series coefficients ----------------------------------------------------

def test_series_coefficient_matches_factorial_formula():
    for m in range(1, 13):
        assert pf.series_coefficient(m) == coeff_oracle(m)


def test_series_coefficient_first_values():
    assert pf.series_coefficient(1) == 2
    assert pf.series_coefficient(2) == 15
    # not an integer; exactness matters
    assert pf.series_coefficient(3) == Fraction(1680, 9)


def test_series_coefficient_rejects_zero():
    with pytest.raises(DomainError):
        pf.series_coefficient(0)


def test_coefficient_ratio_approaches_27():
    # growth rate pins the convergence radius at 1/27
    r40 = pf.series_coefficient(41) / pf.series_coefficient(40)
    assert abs(float(r40) / 27.0 - 1.0) < 0.05
    r5 = pf.series_coefficient(6) / pf.series_coefficient(5)
    assert abs(float(r5) / 27.0 - 1.0) < abs(float(r40) / 27.0 - 1.0) + 0.3


# --- solution triple inside the disc ----------------------------------------

def test_w0_is_exactly_one():
    assert pf.chf_expand(0.01).w0 == 1.0 + 0j


def test_chf_matches_direct_sums():
    for y in (0.02, 0.01, -0.013 + 0.008j, 0.005 - 0.02j):
        got = pf.chf_expand(y, n_max=120)
        assert abs(got.w1 - w1_oracle(y, 120)) < 1e-12, y
        assert abs(got.w2 - w2_oracle(y, 120)) < 1e-12, y


def test_series_w1_w2_match_direct_sums():
    for y in (0.02, -0.01 + 0.017j):
        assert abs(pf.series_w1(y, 100) - w1_oracle(y, 100)) < 1e-13
        assert abs(pf.series_w2(y, 100) - w2_oracle(y, 100)) < 1e-13


def test_w1_first_order_term():
    # the m = 1 coefficient is 2, entering w1 as (3/2 pi i) * 2 * (-y)
    y = 0.01
    got = pf.series_w1(y, n_terms=1)
    assert abs(got - (cmath.log(y) + 3 * 2 * (-y)) / (2j * math.pi)) < 1e-16


def test_w2_constant_term_is_one_eighth():
    # at tiny |y| only the log^2 piece and the 1/8 survive
    y = 1e-9
    ln_my = cmath.log(y) - 1j * math.pi
    rest = pf.series_w2(y) + ln_my ** 2 / (8 * math.pi ** 2)
    assert abs(rest - 0.125) < 1e-6


def test_chf_err_estimate_bounds_truncation():
    y = 0.02
    short = pf.chf_expand(y, n_max=25)
    long = pf.chf_expand(y, n_max=200)
    assert abs(short.w1 - long.w1) < 10 * short.err_estimate
    assert abs(short.w2 - long.w2) < 40 * short.err_estimate


def test_series_domain_rejections():
    with pytest.raises(DomainError):
        pf.series_w1(0.0)
    with pytest.raises(DomainError):
        pf.series_w1(0.05)         # on/outside |y| = 1/27
    with pytest.raises(DomainError):
        pf.chf_expand(0.04)
    with pytest.raises(DomainError):
        pf.chf_expand(0.01, n_max=0)
    for series in (pf.series_w1, pf.series_w2):
        with pytest.raises(DomainError):
            series(0.01, n_terms=-1)


@given(st.floats(min_value=1e-6, max_value=0.0369),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=1e-15, max_value=1e-6))
def test_series_order_meets_the_target_below_the_cap(r, phase, target):
    y = cmath.rect(r, phase)
    err_80 = pf.chf_expand(y).err_estimate
    n = pf.series_order(y, err_80, target)
    assert 80 <= n <= pf._SERIES_MAX_TERMS
    if err_80 <= target:
        assert n == 80
    elif n < pf._SERIES_MAX_TERMS:
        # the least order at which the geometric bound err_80 q^(n-80),
        # q = 27|y|, meets the target; the estimate itself shrinks faster
        q = 27.0 * abs(y)
        assert err_80 * q ** (n - 80) <= target * (1 + 1e-9)
        assert err_80 * q ** (n - 81) > target * (1 - 1e-9)
        assert pf.chf_expand(y, n).err_estimate <= target


def test_series_order_domain():
    with pytest.raises(DomainError):
        pf.series_order(0.04, 1e-3, 1e-6)
    for bad in (0.0, -1e-9, math.nan):
        with pytest.raises(DomainError):
            pf.series_order(0.036, 1e-4, bad)


def test_series_terms_stay_finite_at_the_order_cap_near_the_rim():
    # 2000 terms at 27|y| = 0.999: C_m alone would overflow past m ~ 215, the
    # products t_m = C_m (-y)^m do not; against 30-digit sums of the
    # factorial terms
    n = pf._SERIES_MAX_TERMS
    y = cmath.rect(0.999 / 27.0, 0.7)
    t, dpsi = pf._series_terms(y, n, 2.0)
    assert t.shape == dpsi.shape == (n,)
    assert np.isfinite(t).all() and np.isfinite(dpsi).all()
    with mp.workdps(30):
        ym = -mp.mpc(y)
        terms = [mp.factorial(3 * m - 1) / mp.factorial(m) ** 3 * ym ** m
                 for m in range(1, n + 1)]
        gaps = [mp.digamma(3 * m) - mp.digamma(m + 1) for m in range(1, n + 1)]
        want_plain = complex(mp.fsum(terms))
        want_psi = complex(mp.fsum(a * b for a, b in zip(terms, gaps)))
    assert abs(t.sum() - want_plain) <= 1e-13 * abs(want_plain)
    assert abs(t @ dpsi - want_psi) <= 1e-13 * abs(want_psi)


# --- the printed series and its theta-derivatives -------------------------------

def test_series_frame_matches_the_oracles_in_every_theta_column():
    # the rows behind series_w1/w2 (order 1), the transport frame (order 3)
    # and the annihilator (order 4): column k against theta^k of the
    # factorial-coefficient sums at the same truncation
    rng = np.random.default_rng(2026)
    for n in (1, 2, 40, 80):
        for _ in range(10):
            y = (math.exp(rng.uniform(math.log(1e-6), math.log(0.02)))
                 * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            got = pf._series_frame(y, pf._series_terms(y, n, 2.0)[0], 4)
            for k in range(4):
                want = (1.0 if k == 0 else 0.0, w1_oracle(y, n, k), w2_oracle(y, n, k))
                dev = max(abs(g - w) for g, w in zip(got[:, k], want))
                assert dev <= 1e-15 * max(1.0, abs(want[2])), (y, n, k, dev)
            for short in (pf._series_frame(y, pf._series_terms(y, n, 2.0)[0], 3),
                          [[1.0], [pf.series_w1(y, n)], [pf.series_w2(y, n)]]):
                assert np.allclose(short, got[:, :len(short[0])], rtol=1e-15, atol=0.0)


# --- contour representation ---------------------------------------------------

def test_mellin_barnes_plain_matches_sum():
    y = 0.01
    direct = sum(float(coeff_oracle(m)) * (-y) ** m for m in range(1, 60))
    assert abs(pf.mellin_barnes(y, "plain") - direct) < 1e-9


def test_mellin_barnes_digamma_matches_sum():
    y = 0.005
    with mp.workdps(30):
        direct = sum(float(coeff_oracle(m)) * (-y) ** m
                     * float(mp.digamma(3 * m) - mp.digamma(m + 1))
                     for m in range(1, 60))
    got = pf.mellin_barnes(y, "digamma")
    # the weighted sum has an extra m = 0 residue contribution Pi(0) = 0,
    # so the contour and the sum agree directly
    assert abs(got - direct) < 1e-9


def test_mellin_barnes_conjugation_symmetry():
    y = 0.008 + 0.006j
    a = pf.mellin_barnes(y, "plain")
    b = pf.mellin_barnes(y.conjugate(), "plain")
    assert abs(a - b.conjugate()) < 1e-12


def test_mellin_barnes_rejects_cut():
    for bad in (0.0, -0.01, -5.0):
        with pytest.raises(DomainError):
            pf.mellin_barnes(bad, "plain")
    with pytest.raises(DomainError):
        pf.mellin_barnes(0.01, "fancy")


# The contour route as it was written before it used half the contour: the
# grid np.arange(-t_max, ...) (not symmetric about t = 0), three log-gamma
# and, for the digamma variant, two digamma evaluations on every node.  The
# Gamma ratio is formed in the log domain, as Gamma(z) = exp(log Gamma(z)):
# within 0.19 of the cut the Gamma factors alone leave the double range
# before the truncation point.
def _mellin_barnes_reference(y, which):
    decay = math.pi - abs(cmath.phase(y))
    t_max = 42.0 / decay
    step = 0.08
    t = np.arange(-t_max, t_max + step / 2, step)
    s = -0.5 + 1j * t
    vals = np.exp(_kernels.lgamma_array(-3.0 * s) + _kernels.lgamma_array(s)
                  - 2.0 * _kernels.lgamma_array(1.0 - s) - s * cmath.log(y))
    if which == "digamma":
        vals = vals * (_kernels.digamma_array(-3.0 * s) - _kernels.digamma_array(1.0 - s))
    center = np.max(np.abs(vals))
    assert abs(vals[0]) <= 1e-12 * center and abs(vals[-1]) <= 1e-12 * center
    return complex(np.sum(vals) * step / (2.0 * math.pi))


def _seeded_contour_moduli(rng, count):
    """1e-4 <= |y| <= 0.03 and 0.06 <= pi - |arg y| <= pi, both log-uniform,
    so that about a third of the draws lie past the node table's edge at
    pi - |arg y| = 0.25."""
    return [cmath.rect(math.exp(rng.uniform(math.log(1e-4), math.log(0.03))),
                       rng.choice([-1.0, 1.0])
                       * (math.pi - math.exp(rng.uniform(math.log(0.06), math.log(math.pi)))))
            for _ in range(count)]


def _contour_series_oracle(y, which, n_terms=200):
    """sum C_m (-y)^m, or weighted by psi(3m) - psi(m+1), at 30 digits from
    the factorial coefficients; at |y| <= 0.03 the terms past 200 lie below
    1e-17."""
    with mp.workdps(30):
        ym = -mp.mpc(y)
        power = mp.mpc(1)
        total = mp.mpc(0)
        for m in range(1, n_terms + 1):
            power *= ym
            term = mp.mpf(math.factorial(3 * m - 1)) / math.factorial(m) ** 3 * power
            if which == "digamma":
                term *= mp.digamma(3 * m) - mp.digamma(m + 1)
            total += term
        return complex(total)


@pytest.mark.parametrize("which", ["plain", "digamma"])
def test_mellin_barnes_matches_full_contour_reference(which):
    rng = np.random.default_rng(4242)
    for y in _seeded_contour_moduli(rng, 150):
        ref = _mellin_barnes_reference(y, which)
        assert abs(pf.mellin_barnes(y, which) - ref) <= 1e-13, (y, which)


@pytest.mark.parametrize("which", ["plain", "digamma"])
def test_mellin_barnes_matches_series_oracle(which):
    rng = np.random.default_rng(4343)
    for y in _seeded_contour_moduli(rng, 20):
        oracle = _contour_series_oracle(y, which)
        assert abs(pf.mellin_barnes(y, which) - oracle) <= 1e-13, (y, which)


@pytest.mark.parametrize("decay", [0.25, 1.0, math.pi - 0.01])
def test_gamma_one_minus_s_identity_at_the_nodes(decay):
    # Gamma(1-s) = conj Gamma(s+2) = -(1/4 + t^2) conj Gamma(s) on the route's
    # nodes s = -1/2 + 0.08 k i
    t = 0.08 * np.arange(math.ceil(42.0 / decay / 0.08) + 1)
    with mp.workdps(30):
        for tk in t[::max(1, len(t) // 40)]:
            s = mp.mpc(-0.5, tk)
            lhs = mp.gamma(1 - s)
            rhs = -(mp.mpf(1) / 4 + mp.mpf(tk) ** 2) * mp.conj(mp.gamma(s))
            assert abs(lhs - rhs) <= 1e-14 * abs(lhs), tk


@pytest.mark.parametrize("which", ["plain", "digamma"])
@pytest.mark.parametrize("decay", [0.051, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.19])
def test_mellin_barnes_near_the_cut_is_finite_or_refused(decay, which):
    # within 0.19 of the cut the Gamma factors alone leave the double range
    # before the truncation point, but the integrand formed in the log domain
    # does not: nothing here is refused any more, and inside the series disc
    # the value is the series'
    for sign in (1, -1):
        for r in (1e-8, 1e-4, 0.01, 0.03):
            y = cmath.rect(r, sign * (math.pi - decay))
            got = pf.mellin_barnes(y, which)
            assert abs(got - _contour_series_oracle(y, which)) <= 1e-13, (r, sign)
        for r in (1.0, 100.0):
            assert cmath.isfinite(pf.mellin_barnes(cmath.rect(r, sign * (math.pi - decay)),
                                                   which)), (r, sign)


@pytest.mark.parametrize("decay", [0.05, 0.03, 1e-6])
def test_mellin_barnes_refuses_the_last_sliver_before_the_cut(decay):
    for r in (1e-4, 1.0):
        for which in ("plain", "digamma"):
            with pytest.raises(ConvergenceError):
                pf.mellin_barnes(cmath.rect(r, math.pi - decay), which)


def test_mellin_barnes_kernel_calls_use_half_the_grid(monkeypatch):
    # inside the node table (pi - |arg y| >= 0.25) a call makes no kernel
    # call; past it the plain variant makes two log-gamma calls and the
    # digamma variant adds two digamma calls, each on the nodes t >= 0 only
    sizes = {"gamma_array": [], "lgamma_array": [], "digamma_array": []}

    def counting(name):
        kernel = getattr(_kernels, name)

        def run(z):
            sizes[name].append(np.size(z))
            return kernel(z)
        return run

    for name in sizes:
        monkeypatch.setattr(pf._kernels, name, counting(name))
    for which in ("plain", "digamma"):
        pf.mellin_barnes(0.01j, which)
    assert sizes == {"gamma_array": [], "lgamma_array": [], "digamma_array": []}
    y = cmath.rect(0.01, math.pi - 0.1)
    n_half = math.ceil(42.0 / (math.pi - abs(cmath.phase(y))) / 0.08) + 1
    assert n_half > pf._MB_HALF
    pf.mellin_barnes(y, "plain")
    assert sizes == {"gamma_array": [], "lgamma_array": [n_half] * 2, "digamma_array": []}
    pf.mellin_barnes(y, "digamma")
    assert sizes == {"gamma_array": [], "lgamma_array": [n_half] * 4,
                     "digamma_array": [n_half] * 2}


def test_mellin_barnes_node_table_is_read_only_and_fresh():
    # the tables cover the whole contour through the nodes that
    # pi - |arg y| >= 0.25 needs, are bitwise a fresh build of their length,
    # and their middle is bitwise a fresh build of a shorter contour
    n = pf._MB_HALF
    assert n == math.ceil(42.0 / 0.25 / 0.08) + 1
    tables = (pf._MB_EXP, pf._MB_LG, pf._MB_PSI)
    for length in (n, 461):
        middle = slice(n - length, n - 1 + length)
        for table, built in zip(tables, pf._mb_contour(length)):
            assert not table.flags.writeable and len(table) == 2 * n - 1
            assert table[middle].tobytes() == built.tobytes()
    assert pf._mb_contour(461, weighted=False)[2] is None


def _mellin_barnes_half_grid(y, which):
    """The tabled contour sum as built from the half grid: the nodes
    k = -K..K, the factors of ``_mb_factors`` on t_0..t_K, conjugated onto
    t_(-k)."""
    n = math.ceil(42.0 / (math.pi - abs(cmath.phase(y))) / 0.08) + 1
    lg, wgt = pf._mb_factors(n)
    k = np.arange(1 - n, n)
    vals = -math.pi * np.exp(np.concatenate([lg[:0:-1].conjugate(), lg])
                             + (0.5 - 1j * 0.08 * k) * cmath.log(y))
    if which == "digamma":
        vals = vals * np.concatenate([wgt[:0:-1].conjugate(), wgt])
    return complex(np.sum(vals) * 0.08 / (2.0 * math.pi))


@pytest.mark.parametrize("which", ["plain", "digamma"])
def test_tabled_mellin_barnes_is_bitwise_the_half_grid_sum(monkeypatch, which):
    # on pi - |arg y| >= 0.25 a call slices the whole-contour tables and
    # makes no kernel call; its value is bitwise the sum over the half grid
    rng = np.random.default_rng(2510)
    moduli = [cmath.rect(math.exp(rng.uniform(math.log(1e-6), math.log(10.0))),
                         rng.uniform(-1.0, 1.0) * (math.pi - 0.25))
              for _ in range(60)]
    moduli += [cmath.rect(0.01, a) for a in (0.0, 1.5, 2.5, 2.85, math.pi - 0.25)]
    want = [_mellin_barnes_half_grid(y, which) for y in moduli]

    def refuse(z):
        raise AssertionError("kernel call on the tabled range")

    for name in ("lgamma_array", "digamma_array"):
        monkeypatch.setattr(pf._kernels, name, refuse)
    for y, w in zip(moduli, want):
        assert pf.mellin_barnes(y, which) == w, y


# --- annihilator ---------------------------------------------------------------

def test_annihilation_residual_small():
    samples = (0.01, 0.02 * cmath.exp(0.25j * math.pi), -0.015 + 0.004j)
    assert pf.annihilation_residual(samples, n_terms=40) < 1e-10


def test_annihilation_residual_shrinks_with_terms():
    samples = (0.012,)
    r30 = pf.annihilation_residual(samples, n_terms=30)
    r50 = pf.annihilation_residual(samples, n_terms=50)
    assert r50 < r30


def test_annihilation_residual_on_the_large_y_series():
    # past |y| = 1/27 the theta^3 frame of the inverse series: at rounding
    # level far out, and the truncation term near the circle.  The leftover
    # is relative to max(1, |y|): unscaled, the y (...) part lifts rounding
    # to 1.4e-8 at y = 1e12 and 1.4e4 at 1e30; where |y| overflows a double
    # it is read from log y
    for y in (1.0, -5.0 + 5.0j, 0.1, 0.3j, 0.5, -2.0 + 2.0j, 1e12, 1e30,
              complex(1.7e308, 1.7e308)):
        assert pf.annihilation_residual([y]) <= 1e-15, y
    r30, r60 = (pf.annihilation_residual([-0.05], n_terms=n) for n in (30, 60))
    assert 1e-9 < r30 and r60 < 1e-3 * r30, (r30, r60)


@pytest.mark.parametrize("y", [1.0 / 27.0, 1j / 27.0, -1.0 / 27.0, 0.0])
def test_annihilation_refuses_the_circle_and_the_origin(y):
    with pytest.raises(DomainError):
        pf.annihilation_residual([0.01, y])


def test_annihilation_needs_samples():
    with pytest.raises(DomainError):
        pf.annihilation_residual(())


# --- the Taylor transport ---------------------------------------------------------

def _local_taylor_oracle(x0: complex, h: complex, n_terms: int) -> list:
    """The scaled Taylor coefficients u_n = f_n h^n, n < n_terms, at x0 of the
    two solutions of the Gauss equation with (f, x f') = (1, 0) and (0, 1)
    there, at 30 digits: combinations of F(x) = 2F1(1/3, 2/3; 1; x) and
    F(1 - x), whose n-th derivatives are (1/3)_n (2/3)_n / n! times
    2F1(1/3 + n, 2/3 + n; 1 + n; .)."""
    with mp.workdps(30):
        x0, h = mp.mpc(x0), mp.mpc(h)
        a, b = mp.mpf(1) / 3, mp.mpf(2) / 3

        def coeff(n, z):
            return mp.rf(a, n) * mp.rf(b, n) / mp.factorial(n) ** 2 * mp.hyp2f1(a + n, b + n, 1 + n, z)

        f = [coeff(n, x0) for n in range(n_terms)]
        g = [(-1) ** n * coeff(n, 1 - x0) for n in range(n_terms)]
        basis = mp.matrix([[f[0], g[0]], [x0 * f[1], x0 * g[1]]])
        runs = []
        for data in ((1, 0), (0, 1)):
            c = mp.lu_solve(basis, mp.matrix(data))
            runs.append([complex((c[0] * f[n] + c[1] * g[n]) * h ** n) for n in range(n_terms)])
        return runs


@pytest.mark.parametrize("y0, ds", [(0.01, 0.3j), (-0.02 + 0.03j, -0.2), (-0.05, 0.05 + 0.1j),
                                    (1e3, 0.25), (cmath.rect(0.9 / 27.0, 3.0), 0.02j)])
def test_recurrence_matches_the_taylor_coefficients(y0, ds):
    # the two runs of the recurrence against 30-digit derivatives of the
    # closed-form solutions, at centres on both sides of |y| = 1/27 and near
    # the conifold; p = h/x0 = expm1(ds), q = h/(1 - x0)
    x0 = -27.0 * y0
    p = np.array([cmath.exp(ds) - 1.0])
    q = p * x0 / (1.0 - x0)
    got = _taylor.coefficients(p, q, 18)[:, :, 0]
    for run, want in enumerate(_local_taylor_oracle(x0, complex(p[0]) * x0, 20)):
        scale = max(abs(v) for v in want)
        assert max(abs(g - w) for g, w in zip(got[:, run], want)) <= 1e-14 * scale, (y0, run)


def _seeded_continuation_targets(rng, count, lo, hi):
    """Moduli with lo <= |y| <= hi at any phase."""
    return [cmath.rect(math.exp(rng.uniform(math.log(lo), math.log(hi))),
                       rng.uniform(-math.pi, math.pi)) for _ in range(count)]


def _counting_steps(monkeypatch, fn, *args):
    """Run fn(*args); its result and the (steps, terms) of each transport."""
    counts = []
    steps = _taylor.steps

    def counted(*a):
        rt, t, n = steps(*a)
        counts.append((len(rt), n))
        return rt, t, n

    with monkeypatch.context() as patch:
        patch.setattr(_taylor, "steps", counted)
        out = fn(*args)
    return out, counts


def test_transport_step_and_term_counts(monkeypatch):
    # steps per seeded path from y = 0.01 (measured: 64.2 on average, the
    # step sizes do not depend on the target) and terms per step (measured:
    # at most 35 and 47)
    rng = np.random.default_rng(808)
    targets = _seeded_continuation_targets(rng, 150, 1e-2, 1e8)
    for err_target, terms in ((1e-8, 35), (1e-12, 47)):
        counts = [_counting_steps(monkeypatch, pf.continue_solutions, y, 0.01, err_target)[1][0]
                  for y in targets]
        assert np.mean([k for k, _ in counts]) <= 65, np.mean([k for k, _ in counts])
        assert max(n for _, n in counts) <= terms, (err_target, max(n for _, n in counts))
    # the default loop at |y| = 1e-3
    m, counts = _counting_steps(monkeypatch, pf.monodromy_around_origin)
    assert m == EXPECTED_LOOP_MATRIX
    assert counts == [(15, 32)], counts


def test_a_transport_that_meets_the_conifold_is_refused():
    # along the negative axis through y = -1/27, and into it
    for y, start in ((-0.05, -0.01), (-1.0 / 27.0, None), (-1.0 / 27.0, 0.01)):
        with pytest.raises(DomainError, match="meets y = -1/27"):
            pf.continue_solutions(y, y_start=start)


def test_transport_loads_no_scipy():
    # the transport is the package's own recurrence, not scipy's integrators
    code = ("import sys, localp2; localp2.picard_fuchs.continue_solutions(1e4, 0.01); "
            "localp2.picard_fuchs.monodromy_around_origin(); print('scipy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(pf.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("err_target", [1e-10, 1e-14])
def test_continuation_err_estimate_bounds_true_error(err_target):
    # references: the inverse series past |y| = 100, the direct series inside
    # |y| <= 0.02, both truncated far below the transport's error
    rng = np.random.default_rng(909)
    cases = [(y, pf.w_at_infinity(y, n_terms=40))
             for y in _seeded_continuation_targets(rng, 20, 101.0, 1e8)]
    cases += [(y, pf.chf_expand(y, n_max=200))
              for y in _seeded_continuation_targets(rng, 20, 1e-4, 0.02)]
    for y, ref in cases:
        got = pf.continue_solutions(y, y_start=0.01, err_target=err_target)
        assert got.err_estimate <= max(err_target, 1e-11), (y, got.err_estimate)
        dist = max(abs(got.w0 - ref.w0), abs(got.w1 - ref.w1), abs(got.w2 - ref.w2))
        assert dist <= got.err_estimate, (y, err_target, dist)


@pytest.mark.parametrize("err_target", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda err_target: pf.continue_solutions(0.03, err_target=err_target),
    lambda err_target: pf.continue_solutions(0.01, err_target=err_target),
    lambda err_target: pf.monodromy_around_origin(err_target=err_target),
])
def test_transport_tolerance_must_be_finite_and_positive(call, err_target):
    # refused before any work, at a target the transport answers, one the
    # series answers, and the loop
    with pytest.raises(DomainError, match="err_target"):
        call(err_target)


# --- monodromy and continuation -------------------------------------------------

EXPECTED_LOOP_MATRIX = [[1, 0, 0], [1, 1, 0], [0, 1, 1]]


def test_monodromy_around_origin_matrix():
    assert pf.monodromy_around_origin() == EXPECTED_LOOP_MATRIX


@pytest.mark.parametrize("err_target", [1e-8, 1e-12])
def test_origin_loop_lands_within_its_bound_of_the_integers(err_target):
    for radius in (1e-4, 1e-3, 0.01, 0.02, 0.03):
        m, bound = pf._origin_loop(radius, err_target)
        assert np.max(np.abs(m - np.rint(m.real))) <= bound <= 1e-8, radius


def test_monodromy_refuses_a_loop_off_integers_beyond_its_own_bound(monkeypatch):
    # an entry farther from its integer than the loop's bound means the bound
    # failed, even well inside the fixed 1e-6 gate
    loop = pf._origin_loop

    def understated(radius, err_target):
        m, _ = loop(radius, err_target)
        return m, 0.5 * float(np.max(np.abs(m - np.rint(m.real))))

    monkeypatch.setattr(pf, "_origin_loop", understated)
    with pytest.raises(MonodromyError, match="bound"):
        pf.monodromy_around_origin()


def test_default_origin_loop_takes_the_fewest_steps(monkeypatch):
    # near y = 0 the step sizes approach 0.45 in log y (x0/(1 - x0) -> 0),
    # so the small default loop takes fewer steps than the loop at
    # |y| = 0.01: 15 against 18, of 32 terms each
    default = inspect.signature(pf.monodromy_around_origin).parameters["radius"].default
    assert default == 1e-3
    counts = [_counting_steps(monkeypatch, pf.monodromy_around_origin, r)[1][0][0]
              for r in (default, 0.01)]
    assert counts[0] < counts[1], counts


def test_monodromy_unipotent_and_unimodular():
    m = np.array(pf.monodromy_around_origin(radius=0.015))
    d = m - np.eye(3, dtype=int)
    assert np.all(d @ d @ d == 0)
    assert round(np.linalg.det(m)) == 1


def test_monodromy_radius_validation():
    with pytest.raises(DomainError):
        pf.monodromy_around_origin(radius=0.5)
    with pytest.raises(DomainError):
        pf.monodromy_around_origin(radius=0.0)


def test_continuation_is_identity_at_start():
    got = pf.continue_solutions(0.01, y_start=0.01)
    ref = pf.chf_expand(0.01)
    assert abs(got.w1 - ref.w1) < 1e-9
    assert abs(got.w2 - ref.w2) < 1e-9


def test_continuation_agrees_with_series_in_disc():
    got = pf.continue_solutions(0.02, y_start=0.008)
    ref = pf.chf_expand(0.02, n_max=200)
    assert abs(got.w0 - 1.0) < 1e-9
    assert abs(got.w1 - ref.w1) < 1e-8
    assert abs(got.w2 - ref.w2) < 1e-8


def test_continuation_reaches_large_y_series():
    got = pf.continue_solutions(1e6, y_start=0.01)
    ref = pf.w_at_infinity(1e6, n_terms=14)
    assert abs(got.w1 - ref.w1) < 1e-6
    assert abs(got.w2 - ref.w2) < 1e-6


@pytest.mark.parametrize("y", [7e306, complex(-6e306, 3e306), sys.float_info.max,
                               complex(1e308, -1e308)])
def test_continuation_reaches_the_top_of_the_double_range(y):
    # 27y/(1 + 27y) overflows past |y| ~ 6.7e306 (earlier off the real axis);
    # from |y| = e^690 on the transport uses the coefficients' limits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pf.continue_solutions(y, y_start=0.01)
    ref = pf.w_at_infinity(y)
    dist = max(abs(got.w0 - ref.w0), abs(got.w1 - ref.w1), abs(got.w2 - ref.w2))
    assert dist <= got.err_estimate, (y, dist)


def test_w_at_infinity_evaluates_no_gamma(monkeypatch):
    # Gamma(1/3)^3 and Gamma(2/3)^3 are module constants from math.gamma,
    # within 5e-16 relative of 30-digit values
    assert pf._G13_CUBED == math.gamma(1.0 / 3.0) ** 3
    assert pf._G23_CUBED == math.gamma(2.0 / 3.0) ** 3
    with mp.workdps(30):
        for got, a in ((pf._G13_CUBED, 1), (pf._G23_CUBED, 2)):
            want = mp.gamma(mp.mpf(a) / 3) ** 3
            assert abs((got - want) / want) <= 5e-16, a
    want = pf.w_at_infinity(1e3)
    monkeypatch.setattr(_kernels, "gamma_array", None)
    monkeypatch.setattr(math, "gamma", None)
    assert pf.w_at_infinity(1e3) == want


def test_continuation_refuses_singular_neighborhood():
    with pytest.raises(DomainError):
        pf.continue_solutions(-1.0 / 27.0)
    with pytest.raises(DomainError):
        pf.continue_solutions(0.0)


@pytest.mark.parametrize("y", [math.nan, math.inf, complex(0.01, math.nan),
                               complex(-math.inf, 1.0)])
@pytest.mark.parametrize("call", [
    pf.continue_solutions,
    lambda y: pf.continue_solutions(0.5, y_start=y),
    pf.chf_expand,
    pf.series_w1,
    pf.series_w2,
    pf.mellin_barnes,
    pf.w_at_infinity,
    lambda y: pf.annihilation_residual([y]),
])
def test_non_finite_modulus_is_a_domain_error(call, y):
    with pytest.raises(DomainError):
        call(y)


# --- large-|y| triple -------------------------------------------------------------

def test_w_at_infinity_truncation_stable():
    a = pf.w_at_infinity(1e3, n_terms=12)
    b = pf.w_at_infinity(1e3, n_terms=16)
    assert abs(a.w1 - b.w1) < 1e-13
    assert abs(a.w2 - b.w2) < 1e-13


def test_w_at_infinity_leading_coefficient():
    # w1 ~ -(3/(8 pi^3 i)) Gamma(1/3)^3 * y^(-1/3) at large |y|
    g13 = math.gamma(1.0 / 3.0) ** 3
    lead = -3.0 * g13 / (8j * math.pi ** 3)
    y = 1e15
    got = pf.w_at_infinity(y).w1 * y ** (1.0 / 3.0)
    assert abs(got - lead) / abs(lead) < 5e-5


def test_w_at_infinity_w2_limit_third():
    near = abs(pf.w_at_infinity(1e12).w2 - 1.0 / 3.0)
    far = abs(pf.w_at_infinity(1e15).w2 - 1.0 / 3.0)
    assert near < 1e-3
    assert far < near / 5


def test_w_at_infinity_domain():
    # the series converges on |y| > 1/27; orders run from 1 to the cap
    for y in (1.0 / 27.0, 0.03j, 0.0):
        with pytest.raises(DomainError):
            pf.w_at_infinity(y)
    with pytest.raises(DomainError):
        pf.w_at_infinity(1e3, n_terms=0)
    with pytest.raises(DomainError):
        pf.w_at_infinity(1e3, n_terms=pf._SERIES_MAX_TERMS + 1)


def w_infinity_oracle(y: complex, digits: int = 34) -> tuple[complex, complex]:
    """w1 and w2 of the large-|y| series, summed at 30 digits from mpmath
    Gamma values until a term drops below 10^-digits of its sum."""
    with mp.workdps(30):
        y = mp.mpc(y)
        sums = []
        for a in (mp.mpf(1) / 3, mp.mpf(2) / 3):
            total, term, n = mp.mpc(0), mp.gamma(a) ** 3 / mp.gamma(3 * a + 1), 0
            while abs(term) >= mp.mpf(10) ** -digits * abs(total):
                total += term
                term *= -(n + a) ** 3 / ((3 * n + 3 * a + 1) * (3 * n + 3 * a + 2)
                                         * (3 * n + 3 * a + 3)) / y
                n += 1
            sums.append(total)
        u, pi2, r3 = mp.exp(-mp.log(y) / 3), 4 * mp.pi ** 2, mp.sqrt(3)
        w1 = 3 / (2j * mp.pi) * (-u / pi2 * sums[0] + u * u / pi2 * sums[1])
        w2 = mp.mpf(1) / 3 + r3 / (4 * mp.pi) * (-(1 + 1j * r3) * u / pi2 * sums[0]
                                                 + (-1 + 1j * r3) * u * u / pi2 * sums[1])
        return complex(w1), complex(w2)


_OUTER_MARGIN = 1.0 / (27.0 * 0.54)
_PHASES = [k * math.pi / 8 for k in range(-7, 9)]


def test_series_term_tables_match_the_per_call_expressions():
    # the n-only arrays are slices of import-time tables, bit for bit
    for n in (1, 80, 2000):
        m = np.arange(1.0, n + 1.0)
        ratio = (3.0 * m - 1.0) * (3.0 * m - 2.0) * (3.0 * m - 3.0) / m ** 3
        ratio[0] = 2.0
        gap = 1.0 / (3.0 * m - 2.0) + 1.0 / (3.0 * m - 1.0) - 1.0 / m
        gap[1:] += 1.0 / (3.0 * m[1:] - 3.0)
        for y in (0.01 + 0.002j, 0.036, -0.02):
            t, dpsi = pf._series_terms(y, n, 2.0)
            assert np.array_equal(t, np.cumprod(ratio * (-y))), (n, y)
            assert np.array_equal(dpsi, np.cumsum(gap)), n
    # a slice of a read-only table: no caller can write into it
    with pytest.raises(ValueError):
        dpsi[0] = 0.0
    with pytest.raises(DomainError):
        pf.chf_expand(0.01, pf._SERIES_MAX_TERMS + 1)


def test_w_at_infinity_against_mpmath_from_the_margin_to_1e300():
    # every component relative to its own size, w1 included, at every phase;
    # the error is also within err_estimate
    rng = np.random.default_rng(1616)
    radii = np.exp(rng.uniform(math.log(_OUTER_MARGIN), math.log(1e300), 24))
    radii = np.concatenate([[_OUTER_MARGIN * (1 + 1e-12), 0.1, 1.0, 1e30], radii])
    for r in radii:
        for phase in (*_PHASES, rng.uniform(-math.pi, math.pi)):
            y = cmath.rect(float(r), phase)
            got = pf.w_at_infinity(y)
            for g, w in zip((got.w1, got.w2), w_infinity_oracle(y)):
                assert abs(g - w) <= 5e-14 * abs(w), (y, g, w)
                assert abs(g - w) <= got.err_estimate, (y, g, w)


def test_w_at_infinity_sums_to_the_rounding_level():
    # left out, the order sums the tails below the rounding term, so the
    # 2000-term sums agree within err_estimate
    for y in (_OUTER_MARGIN * 1.01j, -0.2, 3.0 + 4.0j, 1e6):
        got, full = pf.w_at_infinity(y), pf.w_at_infinity(y, n_terms=pf._SERIES_MAX_TERMS)
        assert got.err_estimate <= 2e-14, y
        assert np.max(np.abs(got.as_vector() - full.as_vector())) <= got.err_estimate, y
    # the order falls to one term far out; the leading terms alone are exact
    # there to the rounding level
    assert pf.w_at_infinity(1e30) == pf.w_at_infinity(1e30, n_terms=1)


def test_inverse_frame_matches_the_transported_frame():
    s0 = cmath.log(0.01)
    for r in (_OUTER_MARGIN, 0.2, 5.0, 1e3):
        for phase in _PHASES[7::2]:
            y = cmath.rect(r, phase)
            want, _ = _taylor.transport(s0, cmath.log(y), *pf._start_frame(0.01), 1e-13)
            assert np.max(np.abs(pf._inverse_frame(y, pf._inverse_terms(y, 80)) - want)) <= 1e-11, y


@pytest.mark.parametrize("err_target", [1e-10, 1e-14])
def test_series_agree_with_the_transport_on_both_sides_of_the_annulus(err_target):
    # the default route's series against the transport from y = 0.01, inside
    # the inner margin and past the outer one
    for r27 in (0.3, 0.54, 1.0 / 0.54, 3.0, 100.0):
        for phase in _PHASES[7:]:
            y = cmath.rect(r27 / 27.0, phase)
            series = pf.continue_solutions(y)
            ref = pf.continue_solutions(y, y_start=0.01, err_target=err_target)
            assert ref.err_estimate <= max(err_target, 1e-12), (y, ref.err_estimate)
            dist = np.max(np.abs(series.as_vector() - ref.as_vector()))
            assert dist <= series.err_estimate + ref.err_estimate, (y, err_target, dist)


def test_default_route_takes_the_nearer_series(monkeypatch):
    assert pf.continue_solutions(0.02) == pf.chf_expand(0.02)
    for y in (_OUTER_MARGIN * 1j, -5.0, 1e30, complex(1e308, -1e308)):
        assert pf.continue_solutions(y) == pf.w_at_infinity(y)
    # the annulus: a short transport from the edge on the target's side
    counts = []
    for r27 in np.geomspace(0.54, 1.0 / 0.54, 11)[1:-1]:
        for phase in _PHASES[8:15]:
            y = cmath.rect(r27 / 27.0, phase)
            got, (count,) = _counting_steps(monkeypatch, pf.continue_solutions, y)
            assert got.err_estimate <= 1e-8
            ref = pf.continue_solutions(y, y_start=0.005)
            dist = np.max(np.abs(got.as_vector() - ref.as_vector()))
            assert dist <= got.err_estimate + ref.err_estimate, y
            counts.append(count)
    # measured: 2.1 steps on average, at most 6, of at most 30 terms
    steps = [k for k, _ in counts]
    assert np.mean(steps) <= 2.2 and max(steps) <= 6, (np.mean(steps), max(steps))
    assert max(n for _, n in counts) <= 30, counts


def w_disc_oracle(y: complex) -> tuple[complex, complex]:
    """w1 and w2 of the printed direct series, summed at 30 digits by term
    ratios and harmonic-gap increments until a term drops below 1e-24."""
    with mp.workdps(30):
        y = mp.mpc(y)
        ln_my = mp.log(y) - 1j * mp.pi
        s = d = mp.mpc(0)
        term, gap, m = -2 * y, mp.mpf(1) / 2, 1          # C_1 (-y), H_2 - H_1
        while abs(term) >= mp.mpf(10) ** -24:
            s += term
            d += term * gap
            m += 1
            term *= -y * (3 * m - 1) * (3 * m - 2) * (3 * m - 3) / mp.mpf(m) ** 3
            gap += (mp.mpf(1) / (3 * m - 3) + mp.mpf(1) / (3 * m - 2)
                    + mp.mpf(1) / (3 * m - 1) - mp.mpf(1) / m)
        w1 = (mp.log(y) + 3 * s) / (2j * mp.pi)
        w2 = mp.mpf(1) / 8 - (ln_my ** 2 / 2 + 3 * (ln_my * s + 3 * d)) / (4 * mp.pi ** 2)
        return complex(w1), complex(w2)


def test_continuation_err_estimate_bounds_the_error_over_the_annulus():
    # seeded targets over the annulus 0.54 < 27|y| < 1/0.54 of the default
    # route, and mirror-image pairs within 0.05 of log(-1/27), where the
    # steps shrink towards the conifold; the reference is whichever series
    # converges there, summed at 30 digits.  Within 1% of |y| = 1/27 those
    # sums need more than 5000 terms, so the draws keep out of that band.
    rng = np.random.default_rng(2323)
    targets = []
    while len(targets) < 16:
        if len(targets) % 3:
            ln_27y = rng.uniform(math.log(0.54), -math.log(0.54))
            pair = [cmath.rect(math.exp(ln_27y) / 27.0, rng.uniform(-math.pi, math.pi))]
        else:
            d = 0.05 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            y = cmath.exp(d) * (-1.0 / 27.0 + 0j)
            pair = [y, y.conjugate()]
        targets += [y for y in pair if abs(math.log(27.0 * abs(y))) >= 0.01]
    targets += [cmath.rect(r / 27.0, s * (math.pi - 0.001)) for r in (0.99, 1.01) for s in (1, -1)]
    for y in targets:
        want = w_disc_oracle(y) if abs(y) < 1.0 / 27.0 else w_infinity_oracle(y, 24)
        for err_target in (1e-8, 1e-12, 1e-16):
            got = pf.continue_solutions(y, err_target=err_target)
            dist = max(abs(got.w0 - 1.0), abs(got.w1 - want[0]), abs(got.w2 - want[1]))
            assert dist <= got.err_estimate <= max(err_target, 1e-12), (y, dist, got.err_estimate)


def test_targets_next_to_the_conifold_answer_on_both_sides_of_the_cut():
    # targets within 0.05 of log(-1/27) in log y answer on both sides of the
    # cut, and so does the straight path from y = 0.01 that passes within
    # 0.05 of it on the way to a target 0.0516 from it
    y = complex(-0.03899644601598481, 0.00014580153867710185)
    for target in (-1.02 / 27.0, cmath.rect(0.99 / 27.0, math.pi - 0.03), y):
        for t in (target, target.conjugate()):
            assert pf.continue_solutions(t).err_estimate <= 1e-8, t
    ref = pf.continue_solutions(y, y_start=0.01)
    got = pf.continue_solutions(y)
    assert np.max(np.abs(got.as_vector() - ref.as_vector())) <= got.err_estimate + ref.err_estimate
