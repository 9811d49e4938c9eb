"""Root tracking, segment families, and contour periods.

Oracles: Vieta relations checked in exact form, gamma-function closed values
via math.gamma, a finer-rule reference for the period quadrature, and the
large-|y| solution series mapped to the periods by the inverse of the
integer transfer matrix.
"""

import cmath
import itertools
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import localp2.mirror_geometry as geom
import localp2.picard_fuchs as pf
from localp2.errors import DomainError, QuadratureError, RootCollisionError
from localp2.specfun import PrecisionConfig

W = geom.OMEGA
G13 = math.gamma(1.0 / 3.0) ** 3
# the integer transfer matrix, w = I T, and its inverse
T = ((1, 0, 0), (-1, 1, -1), (1, 1, 0))
T_INV = ((1, 0, 0), (-1, 0, 1), (-2, -1, 1))


def _assert_periods_match_the_series(y):
    """|I_k - (w_at_infinity(y) T^-1)_k| <= err_k + the series' err_estimate."""
    pv = geom.periods(y)
    w = pf.w_at_infinity(y)
    ref = w.as_vector() @ np.array(T_INV)
    for k, (v, e, r) in enumerate(zip(pv.as_vector(), pv.err, ref)):
        assert abs(v - r) <= e + w.err_estimate, (y, k, abs(v - r))


# --- critical points and constants -------------------------------------------

def test_critical_points_examples():
    z_star, *crit = geom.critical_points(1.0)
    assert abs(z_star - (-1.0)) < 1e-15
    z_star, *crit = geom.critical_points(1e3)
    assert abs(z_star - (-0.1)) < 1e-15
    for c in crit:
        assert abs(c ** 3 - 27.0) < 1e-12


def test_critical_point_where_the_modulus_overflows():
    # |y| overflows a double; the root still keeps its y-dependent part
    y = complex(1.7e308, 1.7e308)
    z_star = geom.critical_points(y)[0]
    with mp.workdps(30):
        want = complex(-mp.power(mp.mpc(y), mp.mpf(-1) / 3))
    assert z_star.imag != 0.0
    assert abs(z_star - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_critical_point_keeps_the_side_of_the_cut(sign):
    # y = -1000 +- 0j has arg +-pi, so z_* = -0.1 exp(-+i pi/3)
    z_star = geom.critical_points(complex(-1e3, sign * 0.0))[0]
    with mp.workdps(30):
        want = complex(-mp.mpf(10) ** -1 * mp.expj(-sign * mp.pi / 3))
    assert abs(z_star - want) <= 1e-15 * abs(want)


def test_inverse_cube_root_against_mpmath():
    # seeded y with |y| from the least subnormal to the largest double
    rng = np.random.default_rng(27)
    ln_mod = rng.uniform(math.log(5e-324), math.log(1.6e308), 400)
    phase = rng.uniform(-math.pi, math.pi, 400)
    with mp.workdps(30):
        for lr, ph in zip(ln_mod, phase):
            y = cmath.rect(math.exp(lr), ph)
            if y == 0:
                continue
            want = complex(mp.power(mp.mpc(y), mp.mpf(-1) / 3))
            assert abs(geom._inv_cbrt(y) - want) <= 1e-15 * abs(want), y


def test_critical_points_reject_origin():
    with pytest.raises(DomainError):
        geom.critical_points(0.0)


# --- root tracking ------------------------------------------------------------

def _polyline(*vertices, n=64):
    """n samples per edge of a polyline, each interior vertex once."""
    edges = [np.linspace(a, b, n + 1)[:-1]
             for a, b in zip(vertices[:-1], vertices[1:])]
    return np.concatenate(edges + [[vertices[-1]]]).astype(np.complex128)


def _tracked(zs, seed=None):
    """Labeled roots along ``zs`` by the period path's tracker and guards,
    seeded by the exact z = 0 roots unless a seed triple is given."""
    seed = geom._origin_triple() if seed is None else seed
    roots = geom._kernels.track_roots(zs, seed)
    geom._check_tracked(zs, roots, (zs[0], zs[-1]))
    return roots


def _vieta_residual(z, t):
    h = 0.5 * z
    a, b, c = t
    return max(abs(a + b + c + h * h), abs(a * b + a * c + b * c - h),
               abs(a * b * c + 0.25))


def _families(t):
    """The three segment families 2 Int dX/sqrt(cubic), root m to root m+1
    on the Euler branch, at one labeled root triple."""
    t = np.asarray(t)
    vals, ok = geom._kernels.segment_integrals(t, np.roll(t, -1), np.roll(t, -2))
    assert ok
    return 2.0 * vals


def test_roots_at_origin_exact():
    r = _tracked(np.zeros(1, dtype=np.complex128))[0]
    s = 2.0 ** (-2.0 / 3.0)
    for j, x in enumerate(r):
        assert abs(x - (-s * W ** j)) < 1e-15
    assert _vieta_residual(0.0, r) < 1e-15


def test_tracked_roots_at_first_critical_value():
    # the double root at z = 3 sits at -1, the simple root at -1/4,
    # and the labels that collide there are x1, x2
    r = _tracked(_polyline(0.0, 3.0, n=256))[-1]
    assert abs(r[0] - (-0.25)) < 1e-10
    assert abs(r[1] - (-1.0)) < 1e-8
    assert abs(r[2] - (-1.0)) < 1e-8


def test_colliding_pair_by_critical_value():
    # which labels meet at each elliptic critical value is a fixed fact of
    # the origin labeling: {1,2} at 3, {0,1} at 3w, {0,2} at 3w^2
    expected = {0: (1, 2), 1: (0, 1), 2: (0, 2)}
    for k, pair in expected.items():
        t = _tracked(_polyline(0.0, 3.0 * W ** k, n=256))[-1]
        got = min(itertools.combinations(range(3), 2),
                  key=lambda p: abs(t[p[0]] - t[p[1]]))
        assert got == pair, k
        assert abs(t[got[0]] - t[got[1]]) < 1e-7


def test_interior_collision_raises():
    # a path straight through z = 3 runs into the discriminant
    with pytest.raises(RootCollisionError):
        _tracked(_polyline(0.0, 6.0))


def test_rotation_covariance_of_labels():
    # tracked labels at w^2 z are w * (x2, x0, x1) of the labels at z
    z = 0.31 + 0.22j
    r = _tracked(_polyline(0.0, z))[-1]
    r2 = _tracked(_polyline(0.0, W ** 2 * z))[-1]
    rotated = (W * r[2], W * r[0], W * r[1])
    for a, b in zip(r2, rotated):
        assert abs(a - b) < 1e-10


def test_homotopy_invariance_of_labels():
    end = 2.0 + 0.5j
    routes = (
        _polyline(0.0, end),
        _polyline(0.0, 1.5j, end),
        _polyline(0.0, 1.0 - 1.0j, end),
    )
    finals = [_tracked(p)[-1] for p in routes]
    for other in finals[1:]:
        for a, b in zip(finals[0], other):
            assert abs(a - b) < 1e-8


def test_tracking_with_seed_continues_labels():
    mid = 0.8 + 0.4j
    end = 1.6 - 0.3j
    seed = _tracked(_polyline(0.0, mid))[-1]
    cont = _tracked(_polyline(mid, end), seed=seed)[-1]
    direct = _tracked(_polyline(0.0, end))[-1]
    for a, b in zip(cont, direct):
        assert abs(a - b) < 1e-8


@given(st.tuples(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3)))
@settings(max_examples=40, deadline=None)
def test_vieta_along_random_rays(parts):
    z = complex(*parts)
    if abs(z) < 1e-3:
        return
    zs = _polyline(0.0, z, n=32)
    for zi, r in zip(zs, _tracked(zs)):
        assert _vieta_residual(zi, r) < 1e-9


# --- segment families ------------------------------------------------------------

def test_cycle_integral_at_origin_closed_value():
    # at z = 0 each segment family is Gamma(1/3)^3/pi times a sixth root of
    # unity, and the cycle-0 integral (family 2 minus family 0) is
    # i Gamma(1/3)^3/pi
    fam = _families(geom._origin_triple())
    phases = (cmath.exp(-2j * math.pi / 3), -1.0, cmath.exp(-1j * math.pi / 3))
    for v, p in zip(fam, phases):
        assert abs(abs(v) - G13 / math.pi) < 1e-14
        assert abs(v / (1j * G13 / math.pi) - p) < 1e-14
    assert abs((fam[2] - fam[0]) - 1j * G13 / math.pi) < 1e-12


def test_cycle_integral_rotation_pair():
    # one frozen instance of the rotation covariance at the integral level:
    # the cycle-0 value (family 2 minus family 0) at z maps to the cycle-1
    # value (family 0 minus family 1) at w^2 z up to a sixth root of unity
    z = 0.31 + 0.22j
    fa = _families(_tracked(_polyline(0.0, z))[-1])
    fb = _families(_tracked(_polyline(0.0, W ** 2 * z))[-1])
    a = fa[2] - fa[0]
    b = fb[0] - fb[1]
    assert abs(abs(a) - abs(b)) < 1e-10
    assert abs((b / a) ** 6 - 1.0) < 1e-9


# --- contour periods -----------------------------------------------------------------

def test_periods_match_the_large_y_series():
    # I = w T^-1 within the two error estimates, from the first double above
    # |y| = 27 (whose log|y| rounds to log 27) to the largest doubles, where
    # |y| itself overflows
    assert np.array_equal(np.array(T) @ np.array(T_INV), np.eye(3))
    for y in (math.nextafter(27.0, 28.0), -28.0j, 1e3, 1e6, 1e30, 1e300,
              complex(1.7e308, 1.7e308),
              # the -0.0 side of the cut, where sigma is real
              complex(-1e3, -0.0), complex(-27.03, -0.0), complex(-0.0, 27.03)):
        _assert_periods_match_the_series(y)


def test_periods_alternating_sum_rule():
    for y in (1e3, 1500j):
        pv = geom.periods(y)
        gap = abs(pv.alternating_sum() - 1.0)
        assert gap < 10.0 * max(sum(pv.err), 1e-12), y


# Moduli for the accuracy tests: seeded large values with random phases, plus
# |y| just above 27 (the longest degeneration ray) on three axes.
_rng = np.random.default_rng(20261017)
ACCURACY_MODULI = (27.03, -27.03, 27.03j, 28.0, 1e3, -1e3, 1e8) + tuple(
    complex(cmath.rect(10.0 ** e, p))
    for e, p in zip(_rng.uniform(1.5, 8.0, 6), _rng.uniform(-math.pi, math.pi, 6)))


def _reference_periods(y):
    # a 48-node ray rule on the same fiber values
    fam = geom._ray_integrals(geom.critical_points(y)[0], *geom._gauss_legendre(48))
    return [(-1.0) ** k / 3.0 + complex(geom._cycle_combination(fam, k)) / geom._EIGHT_PI_SQ
            for k in range(3)]


def test_period_converged_against_refined_reference():
    # the default ray rules reach rounding level
    for y in (1e3, 27.03, 2e4 * cmath.exp(2.0j)):
        ref = _reference_periods(y)
        default = max(abs(a - b) for a, b in zip(geom.periods(y).as_vector(), ref))
        assert default < 1e-14, y


@pytest.mark.parametrize("n", geom._RAY_NODES)
def test_ray_rules_match_leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    t, wt = geom._gauss_legendre(n)
    assert np.all(np.diff(t) > 0.0)
    assert np.max(np.abs(t - 0.5 * (x + 1.0))) <= 1e-15
    assert np.max(np.abs(wt - 0.5 * w)) <= 1e-15
    # exact for polynomials of degree < 2n, up to rounding
    k = np.arange(2 * n)
    assert np.max(np.abs(wt @ t[:, None] ** k - 1.0 / (k + 1.0))) <= 1e-15


def test_ray_grid_merges_the_default_rules():
    t, weights = geom._RAY_GRID
    assert weights.shape == (len(geom._RAY_NODES), len(t))
    assert np.all(np.diff(t) > 0.0)
    for row, n in zip(weights, geom._RAY_NODES):
        nodes, w = geom._gauss_legendre(n)
        assert np.array_equal(t[row != 0.0], nodes)
        assert np.array_equal(row[row != 0.0], w)


def test_periods_do_not_load_numpy_polynomial():
    code = ("import sys, localp2; localp2.mirror_geometry.periods(1e3); "
            "print('numpy.polynomial' in sys.modules)")
    src = os.path.dirname(os.path.dirname(geom.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


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
        geom.periods(5.0)


@pytest.mark.parametrize("y", [math.nan, math.inf, complex(1e3, math.nan),
                               complex(-math.inf, 1.0)])
def test_non_finite_modulus_is_a_domain_error(y):
    with pytest.raises(DomainError):
        geom.critical_points(y)
    with pytest.raises(DomainError):
        geom.periods(y)


@given(st.floats(1e-6, math.log10(1e8 / 27.0)), st.floats(-math.pi, math.pi))
@settings(max_examples=100, deadline=None)
def test_periods_over_the_whole_domain(log_ratio, phase):
    # 27 < |y| <= 1e8 at any phase: the sum rule holds within the reported
    # error, and the periods equal the large-|y| series through T^-1 within
    # the two error estimates (measured: at most 0.10 of their sum, at 400
    # seeded moduli)
    y = cmath.rect(27.0 * 10.0 ** log_ratio, phase)
    pv = geom.periods(y)
    assert abs(pv.alternating_sum() - 1.0) <= sum(pv.err), y
    _assert_periods_match_the_series(y)


def test_threaded_family_matches_per_node_loop():
    # the batched sign threading against the node-by-node rule: each value
    # takes the sign that keeps it nearer its predecessor, from the z = 0
    # anchor, on all three families of five rays.  On the real ray to 3 the
    # real root crosses the segment between the conjugate pair (family 1)
    # near t = 0.69: that value is imaginary before and real after, so it
    # turns by 90 degrees and |v - p| = |v + p| up to rounding, which the
    # vectorized and the scalar abs may break either way.  The rays to
    # 3 OMEGA and 3 OMEGA^2 are its images under z -> OMEGA z (families 0
    # and 2).  A turning family is compared exactly before its turn and up
    # to one sign from it on; no cycle uses it on its ray.
    t, _ = geom._tanh_sinh(geom._TS_STEP, geom._TS_LEVELS)
    ends = [*geom.CRITICAL_VALUES,
            *(geom.critical_points(y)[0] for y in (27.03j, -5e3 + 2e3j))]
    origin = geom._origin_triple()
    flips = 0
    for j, end in enumerate(ends):
        roots = geom._kernels.track_roots(t * end, origin)
        got = geom._threaded_families(roots)
        for m in range(3):
            prev = _families(origin)[m]
            want, turns = [], []
            for i, r in enumerate(roots):
                v = _families(r)[m]
                if abs((v * prev.conjugate()).real) <= 1e-12 * abs(v * prev):
                    turns.append(i)
                if abs(v - prev) > abs(v + prev):
                    v = -v
                    flips += 1
                want.append(v)
                prev = v
            want = np.array(want)
            if j < 3 and m not in [a for _, a in geom._CYCLE_SEGMENTS[j]]:
                assert len(turns) == 1 and abs(t[turns[0]] - 0.69) < 0.01, (end, m)
                i = turns[0]
                if abs(got[i, m] + want[i]) < abs(want[i]):
                    want[i:] = -want[i:]
            else:
                assert turns == [], (end, m)
            assert np.max(np.abs(got[:, m] - want) / np.abs(want)) <= 1e-14, (end, m)
    assert flips > 0


def test_stacked_rays_thread_as_each_ray_alone():
    # one AGM run over stacked rays gives every ray its own values bit for
    # bit, at any stacking depth, and the critical-ray constants are those
    # of the three rays integrated one at a time
    t, w = geom._tanh_sinh(geom._TS_STEP, geom._TS_LEVELS)
    ends = [*geom.CRITICAL_VALUES, geom.critical_points(-5e3 + 2e3j)[0]]
    rays = [geom._tracked_ray(end, t) for end in ends]
    alone = [geom._threaded_families(r) for r in rays]
    stacked = geom._threaded_families(np.stack(rays))
    square = geom._threaded_families(np.stack(rays).reshape(2, 2, len(t), 3))
    for k, want in enumerate(alone):
        assert np.array_equal(stacked[k], want), ends[k]
        assert np.array_equal(square[k // 2, k % 2], want), ends[k]
    one_by_one = tuple(
        -complex(geom._cycle_combination(geom._ray_integrals(end, t, w), k))
        / geom._EIGHT_PI_SQ for k, end in enumerate(geom.CRITICAL_VALUES))
    assert geom.critical_ray_constants() == one_by_one


def test_periods_raise_when_the_fiber_agm_does_not_converge(monkeypatch):
    monkeypatch.setattr(geom._kernels, "_AGM_MAX_ITER", 1)
    with pytest.raises(QuadratureError, match="AGM"):
        geom.periods(1e3)


def test_period_vector_alternating_sum_trivial():
    pv = geom.PeriodVector(1.0, 2.0, 3.0, 1e3, (0.0, 0.0, 0.0))
    assert pv.alternating_sum() == 2.0
