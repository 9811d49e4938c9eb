"""Series solutions, contour representation, annihilator, and transport.

Oracles: explicit factorial-coefficient sums (independent of the module's
recurrence-based summation) and mpmath digamma values.
"""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import localp2.picard_fuchs as pf
from localp2.errors import DomainError


# --- oracles ---------------------------------------------------------------

def coeff_oracle(m: int) -> Fraction:
    return Fraction(math.factorial(3 * m - 1), math.factorial(m) ** 3)


def w1_oracle(y: complex, n_terms: int = 80) -> complex:
    """Single-log solution summed directly from factorial coefficients."""
    s = sum(float(coeff_oracle(m)) * (-y) ** m for m in range(1, n_terms + 1))
    return (cmath.log(y) + 3.0 * s) / (2j * math.pi)


def w2_oracle(y: complex, n_terms: int = 80) -> complex:
    """Double-log solution from factorial coefficients and mpmath digammas."""
    ln_my = cmath.log(y) - 1j * math.pi
    s_plain = 0j
    s_psi = 0j
    for m in range(1, n_terms + 1):
        t = float(coeff_oracle(m)) * (-y) ** m
        s_plain += t
        s_psi += t * float(mp.digamma(3 * m) - mp.digamma(m + 1))
    pi2 = math.pi ** 2
    return (-(ln_my ** 2) / (8 * pi2) + 0.125
            - 3 * ln_my * s_plain / (4 * pi2) - 9 * s_psi / (4 * pi2))


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


# --- the two encodings of the printed series ---------------------------------

def test_solution_arrays_match_printed_series():
    # the log-polynomial arrays behind the annihilator and the transport frame
    # encode the printed series: evaluated, rows 1 and 2 are series_w1 and
    # series_w2 at the same truncation
    rng = np.random.default_rng(2026)
    for n in (1, 2, 40, 80):
        arrays = pf._solution_arrays(n)
        for _ in range(200):
            y = (math.exp(rng.uniform(math.log(1e-6), math.log(0.02)))
                 * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            ln_y = cmath.log(y)
            assert abs(pf._eval_array(arrays[1], y, ln_y) - pf.series_w1(y, n)) <= 4e-15, (y, n)
            assert abs(pf._eval_array(arrays[2], y, ln_y) - pf.series_w2(y, n)) <= 4e-15, (y, n)


# --- contour representation ---------------------------------------------------

def test_mellin_barnes_plain_matches_sum():
    y = 0.01
    direct = sum(float(coeff_oracle(m)) * (-y) ** m for m in range(1, 60))
    assert abs(pf.mellin_barnes(y, "plain") - direct) < 1e-9


def test_mellin_barnes_digamma_matches_sum():
    y = 0.005
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


# --- annihilator ---------------------------------------------------------------

def test_annihilation_residual_small():
    samples = (0.01, 0.02 * cmath.exp(0.25j * math.pi), -0.015 + 0.004j)
    assert pf.annihilation_residual(samples, n_terms=40) < 1e-10


def test_annihilation_residual_shrinks_with_terms():
    samples = (0.012,)
    r30 = pf.annihilation_residual(samples, n_terms=30)
    r50 = pf.annihilation_residual(samples, n_terms=50)
    assert r50 < r30


def test_annihilation_needs_samples():
    with pytest.raises(DomainError):
        pf.annihilation_residual(())


# --- monodromy and continuation -------------------------------------------------

EXPECTED_LOOP_MATRIX = [[1, 0, 0], [1, 1, 0], [0, 1, 1]]


def test_monodromy_around_origin_matrix():
    assert pf.monodromy_around_origin() == EXPECTED_LOOP_MATRIX


def test_monodromy_unipotent_and_unimodular():
    m = np.array(pf.monodromy_around_origin(radius=0.015, n_arcs=10))
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
    got = pf.continue_solutions(1e6)
    ref = pf.w_at_infinity(1e6, n_terms=14)
    assert abs(got.w1 - ref.w1) < 1e-6
    assert abs(got.w2 - ref.w2) < 1e-6


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
    with pytest.raises(DomainError):
        pf.w_at_infinity(10.0)
    with pytest.raises(DomainError):
        pf.w_at_infinity(1e3, n_terms=0)
