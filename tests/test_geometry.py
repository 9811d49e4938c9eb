"""Root tracking, vanishing-cycle integrals, and contour periods.

Oracles: Vieta relations checked in exact form, gamma-function closed values
via math.gamma, and the branch-tracked segment quadrature as the independent
route to the closed-form cycle integrals.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import localp2.mirror_geometry as geom
from localp2.errors import DomainError, RootCollisionError
from localp2.specfun import PrecisionConfig

W = geom.OMEGA
G13 = math.gamma(1.0 / 3.0) ** 3
G23 = math.gamma(2.0 / 3.0) ** 3


# --- critical points and constants -------------------------------------------

def test_critical_points_examples():
    z_star, *crit = geom.critical_points(1.0)
    assert abs(z_star - (-1.0)) < 1e-15
    z_star, *crit = geom.critical_points(1e3)
    assert abs(z_star - (-0.1)) < 1e-15
    for c in crit:
        assert abs(c ** 3 - 27.0) < 1e-12


def test_critical_points_reject_origin():
    with pytest.raises(DomainError):
        geom.critical_points(0.0)


def test_tail_constants_match_gamma_closed_forms():
    r3 = math.sqrt(3.0)
    assert abs(geom.TAIL_COEFF_1 - r3 * G13 / (8 * math.pi ** 3)) < 1e-16
    assert abs(geom.TAIL_COEFF_2 - r3 * G23 / (16 * math.pi ** 3)) < 1e-16
    assert abs(geom.TAIL_PHASE - cmath.exp(1j * math.pi / 3)) < 1e-16
    assert abs(geom.TAIL_PHASE ** 6 - 1.0) < 1e-15


# --- root tracking ------------------------------------------------------------

def test_roots_at_origin_exact():
    r = geom.roots_at_origin()
    s = 2.0 ** (-2.0 / 3.0)
    for j, x in enumerate(r.triple):
        assert abs(x - (-s * W ** j)) < 1e-15
    assert r.vieta_residual() < 1e-15


def test_tracked_roots_at_first_critical_value():
    # the double root at z = 3 sits at -1, the simple root at -1/4,
    # and the labels that collide there are x1, x2
    r = geom.cubic_roots_along(geom.PathZ((0.0, 3.0), refinement=256))[-1]
    assert abs(r.x0 - (-0.25)) < 1e-10
    assert abs(r.x1 - (-1.0)) < 1e-8
    assert abs(r.x2 - (-1.0)) < 1e-8


def test_colliding_pair_by_critical_value():
    # which labels meet at each elliptic critical value is a fixed fact of
    # the origin labeling: {1,2} at 3, {0,1} at 3w, {0,2} at 3w^2
    expected = {0: (1, 2), 1: (0, 1), 2: (0, 2)}
    for k, pair in expected.items():
        end = 3.0 * W ** k
        r = geom.cubic_roots_along(geom.PathZ((0.0, end), refinement=256))[-1]
        t = r.triple
        got = min(itertools.combinations(range(3), 2),
                  key=lambda p: abs(t[p[0]] - t[p[1]]))
        assert got == pair, k
        assert abs(t[got[0]] - t[got[1]]) < 1e-7


def test_interior_collision_raises():
    # a path straight through z = 3 runs into the discriminant
    with pytest.raises(RootCollisionError):
        geom.cubic_roots_along(geom.PathZ((0.0, 6.0), refinement=64))


def test_rotation_covariance_of_labels():
    # tracked labels at w^2 z are w * (x2, x0, x1) of the labels at z
    z = 0.31 + 0.22j
    r = geom.cubic_roots_along(geom.PathZ((0.0, z)))[-1]
    r2 = geom.cubic_roots_along(geom.PathZ((0.0, W ** 2 * z)))[-1]
    rotated = (W * r.x2, W * r.x0, W * r.x1)
    for a, b in zip(r2.triple, rotated):
        assert abs(a - b) < 1e-10


def test_homotopy_invariance_of_labels():
    end = 2.0 + 0.5j
    routes = (
        geom.PathZ((0.0, end)),
        geom.PathZ((0.0, 1.5j, end)),
        geom.PathZ((0.0, 1.0 - 1.0j, end)),
    )
    finals = [geom.cubic_roots_along(p)[-1] for p in routes]
    for other in finals[1:]:
        for a, b in zip(finals[0].triple, other.triple):
            assert abs(a - b) < 1e-8


def test_tracking_with_seed_continues_labels():
    mid = 0.8 + 0.4j
    end = 1.6 - 0.3j
    seed = geom.cubic_roots_along(geom.PathZ((0.0, mid)))[-1]
    cont = geom.cubic_roots_along(geom.PathZ((mid, end)), seed=seed)[-1]
    direct = geom.cubic_roots_along(geom.PathZ((0.0, end)))[-1]
    for a, b in zip(cont.triple, direct.triple):
        assert abs(a - b) < 1e-8


def test_tracking_requires_origin_or_seed():
    with pytest.raises(DomainError):
        geom.cubic_roots_along(geom.PathZ((0.5, 1.0)))


@given(st.tuples(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3)))
@settings(max_examples=40, deadline=None)
def test_vieta_along_random_rays(parts):
    z = complex(*parts)
    if abs(z) < 1e-3:
        return
    for r in geom.cubic_roots_along(geom.PathZ((0.0, z), refinement=32)):
        assert r.vieta_residual() < 1e-9


def test_path_validation():
    with pytest.raises(DomainError):
        geom.PathZ((1.0,))
    with pytest.raises(DomainError):
        geom.PathZ((0.0, 1.0), refinement=1)
    with pytest.raises(DomainError):
        geom.PathZ((0.0, 0.0))


# --- vanishing-cycle integrals ---------------------------------------------------

def test_cycle_integral_at_origin_closed_value():
    r = geom.roots_at_origin()
    got = geom.vanishing_integral_Jk(r, 0)
    assert abs(got - 1j * G13 / math.pi) < 1e-12
    assert abs(got - (-8.0 * math.pi ** 2) * geom.f_at_origin()) < 1e-12


def test_cycle_integral_matches_quadrature_at_random_points():
    rng = np.random.default_rng(20260819)
    pts = rng.uniform(-1.4, 1.4, size=(10, 2))
    for re, im in pts:
        z = complex(re, im)
        if abs(z) < 0.05:
            continue
        roots = geom.cubic_roots_along(geom.PathZ((0.0, z)))[-1]
        for k in range(3):
            closed = geom.vanishing_integral_Jk(roots, k)
            quad = geom.jk_quadrature(roots, k, n=1024)
            assert abs(closed - quad) < 1e-9, (z, k)


def test_cycle_integral_rotation_pair():
    # one frozen instance of the rotation covariance at the integral level:
    # the cycle-0 value at z maps to the cycle-1 value at w^2 z up to a
    # sixth root of unity
    z = 0.31 + 0.22j
    a = geom.vanishing_integral_Jk(
        geom.cubic_roots_along(geom.PathZ((0.0, z)))[-1], 0)
    b = geom.vanishing_integral_Jk(
        geom.cubic_roots_along(geom.PathZ((0.0, W ** 2 * z)))[-1], 1)
    assert abs(abs(a) - abs(b)) < 1e-10
    assert abs((b / a) ** 6 - 1.0) < 1e-9


def test_quadrature_spectral_agreement():
    roots = geom.cubic_roots_along(geom.PathZ((0.0, 1.1 - 0.7j)))[-1]
    a = geom.jk_quadrature(roots, 1, n=256)
    b = geom.jk_quadrature(roots, 1, n=1024)
    assert abs(a - b) < 1e-10


def test_cycle_integral_on_cut_falls_back():
    # collinear triple puts a hypergeometric argument on [1, oo)
    cr = geom.CubicRoots(2.0 + 0j, 1.0 + 0j, 0.0 + 0j, z=0.0)
    with pytest.warns(RuntimeWarning):
        v = geom.vanishing_integral_Jk(cr, 0)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_cycle_integral_rejects_degenerate_and_bad_index():
    collided = geom.cubic_roots_along(geom.PathZ((0.0, 3.0), refinement=256))[-1]
    with pytest.raises(RootCollisionError):
        geom.vanishing_integral_Jk(collided, 0)
    r = geom.roots_at_origin()
    with pytest.raises(DomainError):
        geom.vanishing_integral_Jk(r, 5)


# --- degeneration tails ------------------------------------------------------------

def test_density_values_at_origin():
    f0 = geom.f_at_origin()
    fp0 = geom.f_prime_at_origin()
    assert abs(f0 - (-1j * G13 / (8 * math.pi ** 3))) < 1e-15
    assert abs(fp0 - (-1j * G23 / (8 * math.pi ** 3))) < 1e-15


def test_b_expansion_equals_closed_tails():
    y = 2.5e3 * cmath.exp(0.4j)
    u = y ** (-1.0 / 3.0)
    bs = geom.b_expansion(y)
    for k in range(3):
        closed = (geom.TAIL_PHASE ** k * geom.TAIL_COEFF_1 * u
                  + geom.TAIL_PHASE ** (-k) * geom.TAIL_COEFF_2 * u * u)
        assert abs(bs[k] - closed) < 1e-15


def test_b_expansion_scaling():
    # leading term scales like y^(-1/3): ratio at 8x the modulus is 1/2
    y = 1e6
    for a, b in zip(geom.b_expansion(8 * y), geom.b_expansion(y)):
        assert abs(a / b - 0.5) < 5e-4


def test_expected_tail_alternating_sum_is_one():
    # the sixth-root phases cancel in the alternating sum at any modulus
    for y in (1e3, 2.7e3 * cmath.exp(1.1j), 5e4):
        s = (geom.expected_period_tail(y, 0) - geom.expected_period_tail(y, 1)
             + geom.expected_period_tail(y, 2))
        assert abs(s - 1.0) < 1e-14


def test_tail_domain_checks():
    with pytest.raises(DomainError):
        geom.b_expansion(10.0)
    with pytest.raises(DomainError):
        geom.expected_period_tail(5.0, 0)
    with pytest.raises(DomainError):
        geom.expected_period_tail(1e3, 3)


# --- contour periods -----------------------------------------------------------------

def test_periods_match_tails_large_modulus():
    pv = geom.periods(1e3)
    for k in range(3):
        dev = abs(pv.as_vector()[k] - geom.expected_period_tail(1e3, k))
        assert dev < 1e-5, k


def test_periods_alternating_sum_rule():
    for y in (1e3, 1500j):
        pv = geom.periods(y)
        gap = abs(pv.alternating_sum() - 1.0)
        assert gap < 10.0 * max(sum(pv.err), 1e-12), y


def test_period_single_matches_vector():
    pv = geom.periods(1e3)
    assert abs(geom.period_Ik(1e3, 1) - pv.i1) < 1e-12


# Moduli for the accuracy tests: seeded large values with random phases, plus
# |y| just above 27 (the longest degeneration ray) on three axes.
_rng = np.random.default_rng(20261017)
ACCURACY_MODULI = (27.03, -27.03, 27.03j, 28.0, 1e3, -1e3, 1e8) + tuple(
    complex(cmath.rect(10.0 ** e, p))
    for e, p in zip(_rng.uniform(1.5, 8.0, 6), _rng.uniform(-math.pi, math.pi, 6)))


def _reference_periods(y):
    # more ray nodes and a finer fiber rule than the defaults
    return [v for v, _ in geom._period_estimates(y, nodes=(48,), seg_n=256)]


def test_period_converged_against_refined_reference():
    # the default rules reach rounding level; a coarse fiber rule does not
    for y in (1e3, 27.03, 2e4 * cmath.exp(2.0j)):
        ref = _reference_periods(y)
        default = max(abs(a - b) for a, b in zip(geom.periods(y).as_vector(), ref))
        coarse = max(abs(v - r) for (v, _), r in
                     zip(geom._period_estimates(y, seg_n=8), ref))
        assert default < 1e-14, y
        assert coarse > 100.0 * max(default, 1e-16), y


def test_period_error_estimate_bounds_true_error():
    for y in ACCURACY_MODULI:
        pv = geom.periods(y)
        for v, e, r in zip(pv.as_vector(), pv.err, _reference_periods(y)):
            assert abs(v - r) <= e, y


def test_period_sum_gap_at_seeded_moduli():
    for y in ACCURACY_MODULI:
        gap = abs(geom.periods(y).alternating_sum() - 1.0)
        assert gap <= 1e-13, (y, gap)


def test_period_at_tightest_documented_tolerance():
    pv = geom.periods(1e3, PrecisionConfig(target_rel_err=1e-12))
    assert max(pv.err) <= 1e-12
    assert abs(pv.alternating_sum() - 1.0) <= 1e-13


def test_critical_ray_constants_match_exact_values():
    # the constant the periods use in place of the critical-ray quadrature
    for k, c in enumerate(geom.critical_ray_constants()):
        assert abs(c - (-1.0) ** k / 3.0) <= 1e-14 / 3.0, k


def test_critical_values_are_the_cube_roots_of_27():
    for k, c in enumerate(geom.CRITICAL_VALUES):
        assert abs(c - 3.0 * W ** k) < 1e-15
        assert c == geom.critical_points(1e3)[k + 1]


def test_period_precision_config_tightens():
    loose = geom.periods(2e3, PrecisionConfig(target_rel_err=1e-6))
    tight = geom.periods(2e3, PrecisionConfig(target_rel_err=1e-11))
    assert max(tight.err) <= max(loose.err)
    assert abs(tight.alternating_sum() - 1.0) < 1e-8


def test_period_domain_checks():
    with pytest.raises(DomainError):
        geom.period_Ik(10.0, 0)
    with pytest.raises(DomainError):
        geom.periods(5.0)
    with pytest.raises(DomainError):
        geom.period_Ik(1e3, 4)


@pytest.mark.parametrize("y", [math.nan, math.inf, complex(1e3, math.nan),
                               complex(-math.inf, 1.0)])
def test_non_finite_modulus_is_a_domain_error(y):
    with pytest.raises(DomainError):
        geom.critical_points(y)
    with pytest.raises(DomainError):
        geom.periods(y)
    with pytest.raises(DomainError):
        geom.period_Ik(y, 0)
    with pytest.raises(DomainError):
        geom.b_expansion(y)
    with pytest.raises(DomainError):
        geom.expected_period_tail(y, 0)


@given(st.floats(1e-6, math.log10(1e8 / 27.0)), st.floats(-math.pi, math.pi))
@settings(max_examples=100, deadline=None)
def test_periods_over_the_whole_domain(log_ratio, phase):
    # 27 < |y| <= 1e8 at any phase: the sum rule holds within the reported
    # error, and the periods approach the two-term tail within its O(1/|y|)
    # remainder (measured <= 7.4e-5/|y|, worst at |y| just above 27)
    y = cmath.rect(27.0 * 10.0 ** log_ratio, phase)
    pv = geom.periods(y)
    assert abs(pv.alternating_sum() - 1.0) <= sum(pv.err), y
    for k, v in enumerate(pv.as_vector()):
        assert abs(v - geom.expected_period_tail(y, k)) <= 1e-4 / abs(y), (y, k)


def test_threaded_family_matches_per_node_loop():
    # the batched sign threading against the node-by-node rule: each value
    # takes the sign that keeps it nearer its predecessor, from the z = 0 anchor
    t, _ = geom._tanh_sinh(geom._TS_STEP, geom._TS_LEVELS)
    ends = geom.CRITICAL_VALUES + (geom.critical_points(27.03j)[0],
                                   geom.critical_points(-5e3 + 2e3j)[0])
    origin = geom._origin_triple()
    flips = 0
    for end in ends:
        zs = t * end
        roots = geom._kernels.track_roots(zs, origin)
        for m in range(3):
            a, b, c = m, (m + 1) % 3, (m + 2) % 3
            prev = 2.0 * geom._kernels.segment_integral(origin[a], origin[b], origin[c], 64)
            want = []
            for r in roots:
                v = 2.0 * geom._kernels.segment_integral(r[a], r[b], r[c], 64)
                if abs(v - prev) > abs(v + prev):
                    v = -v
                    flips += 1
                want.append(v)
                prev = v
            got = geom._threaded_family(roots, m, 64)
            assert np.max(np.abs(got - np.array(want)) / np.abs(want)) <= 1e-14
    assert flips > 0


def test_period_path_validation():
    y = 1e3
    z_star, *crit = geom.critical_points(y)
    with pytest.raises(DomainError):
        geom.period_Ik(y, 0, path=geom.PathZ((-0.2, 0.0, 3.0)))
    with pytest.raises(DomainError):
        geom.period_Ik(y, 0, path=geom.PathZ((z_star, 0.0, crit[1])))
    with pytest.raises(DomainError):
        geom.period_Ik(y, 0, path=geom.PathZ((z_star, 0.5j, 3.0)))
    with pytest.raises(DomainError):
        geom.period_Ik(y, 0, path=geom.PathZ((z_star, 0.0, crit[1], 3.0)))


def test_period_accepts_default_equivalent_path():
    y = 1e3
    z_star, *crit = geom.critical_points(y)
    explicit = geom.period_Ik(y, 0, path=geom.PathZ((z_star, 0.0, 3.0)))
    assert abs(explicit - geom.period_Ik(y, 0)) < 1e-12


def test_period_vector_alternating_sum_trivial():
    pv = geom.PeriodVector(1.0, 2.0, 3.0, 1e3, (0.0, 0.0, 0.0))
    assert pv.alternating_sum() == 2.0
