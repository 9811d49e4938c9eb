"""Kernel layer: special functions, root tracking, fiber segment integrals."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localp2 import _kernels as K
from localp2 import mirror_geometry as geom

# ---------------------------------------------------------------------------
# oracle: mpmath for gamma/digamma/elliptic/2F1 reference values, at 30 digits
# ---------------------------------------------------------------------------


def mp_gamma(z):
    with mp.workdps(30):
        return complex(mp.gamma(complex(z)))


def mp_digamma(z):
    with mp.workdps(30):
        return complex(mp.digamma(complex(z)))


def mp_hyp_half(z):
    with mp.workdps(30):
        return complex(mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 1, complex(z)))


SAMPLE_Z = [0.3 + 0.0j, -1.7 + 2.2j, 4.5 - 3.1j, 0.5 + 0.8660254j, -6.0 + 0.25j]


def test_gamma_against_mpmath():
    for z in SAMPLE_Z:
        got = complex(K.gamma_array(z)[0])
        want = mp_gamma(z)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_digamma_against_mpmath():
    for z in SAMPLE_Z:
        got = complex(K.digamma_array(z)[0])
        want = mp_digamma(z)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def _mod_2pi_i(d: complex) -> complex:
    return complex(d.real, d.imag - 2.0 * math.pi * round(d.imag / (2.0 * math.pi)))


def _disc_grid(right_only=False):
    """A 1.13 x 0.97 grid of |z| <= 30, off the poles of Gamma by at least
    0.05."""
    x, y = np.meshgrid(np.arange(-30.0, 30.01, 1.13) + 0.013, np.arange(-30.0, 30.01, 0.97))
    z = (x + 1j * y).ravel()
    z = z[(np.abs(z) <= 30.0) & ~((z.real < 0.5) & (np.abs(z - np.round(z.real)) < 0.05))]
    return z[z.real >= 0.5] if right_only else z


# the arguments of the Mellin-Barnes route, the right half of the disc, and
# the circle |z| = 12 on which the upward shift stops
_T = np.linspace(0.0, 850.0, 851)
_RIGHT_SETS = {
    "1.5-it": 1.5 - 1j * _T,
    "1.5-3it": 1.5 - 3j * _T,
    "right disc": _disc_grid(right_only=True),
    "|z|=12": 12.0 * np.exp(1j * np.linspace(-math.acos(0.5 / 12.0), math.acos(0.5 / 12.0), 601)),
}


@pytest.mark.parametrize("name", list(_RIGHT_SETS))
def test_lgamma_against_mpmath_modulo_2pi_i(name):
    z = _RIGHT_SETS[name]
    got = K.lgamma_array(z)
    with mp.workdps(20):
        wants = [complex(mp.loggamma(complex(zi))) for zi in z]
    for zi, gi, want in zip(z, got, wants):
        assert abs(_mod_2pi_i(gi - want)) <= 1e-14 * max(1.0, abs(want)), zi


def test_gamma_against_mpmath_on_the_disc():
    # both half planes, through the log-domain reflection
    z = _disc_grid()
    got = K.gamma_array(z)
    with mp.workdps(20):
        wants = [mp_gamma(zi) for zi in z]
    for zi, gi, want in zip(z, got, wants):
        assert abs(gi - want) <= 1e-12 * abs(want), zi


@pytest.mark.parametrize("name", [*_RIGHT_SETS, "disc"])
def test_digamma_against_mpmath_on_the_route_sets(name):
    z = _disc_grid() if name == "disc" else _RIGHT_SETS[name]
    got = K.digamma_array(z)
    with mp.workdps(20):
        wants = [mp_digamma(zi) for zi in z]
    for zi, gi, want in zip(z, got, wants):
        assert abs(gi - want) <= 1e-12 * max(1.0, abs(want)), zi


def _agm_reference(a, b, s):
    """The AGM loop as written before it entered np.errstate once and formed
    the tie rule only on a tie."""
    pow2 = 0.5
    for _ in range(K._AGM_MAX_ITER):
        done = np.abs(a - b) <= K._AGM_RTOL * (np.abs(a) + np.abs(b))
        if done.all():
            return a, s, True
        c = 0.5 * (a - b)
        pow2 *= 2.0
        s = s + np.where(done, 0.0, pow2 * c * c)
        an = 0.5 * (a + b)
        bn = np.sqrt(a * b)
        d_minus = np.abs(an - bn)
        d_plus = np.abs(an + bn)
        with np.errstate(invalid="ignore", divide="ignore"):
            tie = (d_minus == d_plus) & (an != 0) & ((bn / np.where(an == 0, 1, an)).imag < 0)
        bn = np.where((d_minus > d_plus) | tie, -bn, bn)
        a = np.where(done, a, an)
        b = np.where(done, b, bn)
    return a, s, bool(np.all(np.abs(a - b) <= 1e-14 * (np.abs(a) + np.abs(b))))


def _assert_agm_like_reference(a, b, s):
    got, want = K._agm(a, b, s), _agm_reference(a, b, s)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2] is want[2]
    return got


def test_agm_is_bit_identical_to_the_reference_loop():
    rng = np.random.default_rng(20261020)
    k = rng.normal(size=2000) * np.exp(rng.uniform(-3.0, 3.0, 2000)) + 1j * rng.normal(size=2000)
    _assert_agm_like_reference(np.ones(k.shape, dtype=complex), np.sqrt(1.0 - k * k), 0.5 * k * k)
    for ki in k[:50]:
        _assert_agm_like_reference(np.ones(1, dtype=complex), np.sqrt(1.0 - ki * ki)[None],
                                   0.5 * ki * ki)


def test_agm_functions_against_mpmath_out_to_huge_arguments():
    # |z| from 1e-30 to 1e300 and |k| from 1e-10 to 1e150, at all phases.
    # Where sqrt(a_n b_n) falls below an ulp of the mean, |a - b| == |a + b|
    # in floating point, and a tie rule on the root's sign put b on the wrong
    # branch: 2F1 was 8% off for Im z < 0, |z| > 1e65, and K alike in k^2.
    # The principal root stays on the optimal branch.
    rng = np.random.default_rng(20261021)
    z = 10.0 ** rng.uniform(-30.0, 300.0, 300) * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
    k = 10.0 ** rng.uniform(-10.0, 150.0, 200) * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
    f, ok_f = K.hyp2f1_half_array(z)
    kk, ee, ok_k = K.ellipke_array(k)
    assert ok_f and ok_k
    half = mp.mpf(1) / 2
    with mp.workdps(30):
        want_f = np.array([complex(mp.hyp2f1(half, half, 1, complex(zi))) for zi in z])
        want_k = np.array([complex(mp.ellipk(mp.mpc(ki) ** 2)) for ki in k])
        want_e = np.array([complex(mp.ellipe(mp.mpc(ki) ** 2)) for ki in k])
    assert np.max(np.abs(f - want_f) / np.abs(want_f)) <= 4e-15
    assert np.max(np.abs(kk - want_k) / np.abs(want_k)) <= 4e-15
    assert np.max(np.abs(ee - want_e) / np.abs(want_e)) <= 1e-12


def test_joint_agm_array_is_bitwise_the_separate_arrays():
    # one run over moduli and 2F1 arguments together, or over either alone:
    # each entry stops where it would alone, so K, E and F are bitwise those
    # of the separate kernels
    rng = np.random.default_rng(20261019)
    z = 10.0 ** rng.uniform(-10.0, 10.0, 40) * np.exp(1j * rng.uniform(-np.pi, np.pi, 40))
    k = 10.0 ** rng.uniform(-5.0, 5.0, 30) * np.exp(1j * rng.uniform(-np.pi, np.pi, 30))
    kk, ee, f, ok = K.ellipke_hyp2f1_half_array(k, z)
    kk_alone, ee_alone, ok_k = K.ellipke_array(k)
    f_alone, ok_f = K.hyp2f1_half_array(z)
    assert ok and ok_k and ok_f
    for got, want in ((kk, kk_alone), (ee, ee_alone), (f, f_alone)):
        assert got.tobytes() == want.tobytes()
    kk, ee, f, ok = K.ellipke_hyp2f1_half_array((), z[:3])
    assert ok and kk.size == ee.size == 0 and f.tobytes() == K.hyp2f1_half_array(z[:3])[0].tobytes()
    kk, ee, f, ok = K.ellipke_hyp2f1_half_array(k, ())
    assert ok and f.size == 0
    assert kk.tobytes() == kk_alone.tobytes() and ee.tobytes() == ee_alone.tobytes()


def test_hyp2f1_half_against_mpmath():
    for z in (0.25, -0.75, 0.2 + 0.6j, -2.0 + 1.0j, 0.5 + 0.8660254037844386j):
        vals, ok = K.hyp2f1_half_array(complex(z))
        assert ok
        want = mp_hyp_half(z)
        assert abs(complex(vals[0]) - want) <= 1e-12 * abs(want)


def test_ellipke_against_mpmath():
    for k in (0.2, 0.9, 0.3 + 0.4j):
        kk, ee, ok = K.ellipke_array(complex(k))
        assert ok
        with mp.workdps(30):
            want_k = complex(mp.ellipk(complex(k) ** 2))
            want_e = complex(mp.ellipe(complex(k) ** 2))
        assert abs(complex(kk[0]) - want_k) <= 1e-12 * abs(want_k)
        assert abs(complex(ee[0]) - want_e) <= 1e-12 * abs(want_e)


def _principal_jumps(xa, xb, xc, n):
    """How often the principal square root of the cubic jumps branch between
    neighbouring nodes of the n-node rule on xa -> xb."""
    t = 0.5 * (1.0 + np.cos((2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n)))
    x = xa + (xb - xa) * t
    sq = np.sqrt((x - xa) * (x - xb) * (x - xc))
    return int(np.sum(np.abs(np.diff(sq)) > np.abs(sq[1:] + sq[:-1])))


# segment integral: Euler-branch identity oracle on seeded complex triples.
# seg(xa -> xb | xc) = pi F(sigma) / sqrt(xc - xa), sigma = (xb-xa)/(xc-xa)
def test_segment_integral_euler_identity():
    rng = np.random.default_rng(20261019)
    triples = [(0.0 + 0j, 1.0 + 0j, 2.0 + 0j)]
    while len(triples) < 20:
        xa, xb, xc = rng.normal(size=3) + 1j * rng.normal(size=3)
        span = xb - xa
        # keep the third root half a span off the segment: 256 nodes then
        # converge to rounding
        s = min(max(((xc - xa) / span).real, 0.0), 1.0)
        if abs(xc - xa - s * span) < 0.5 * abs(span):
            continue
        if len(triples) % 2:
            # turn every other triple so the cubic is negative at the
            # segment's midpoint: its principal root then jumps there
            g = -0.25 * span * span * (xa + 0.5 * span - xc)
            lam = (-abs(g) / g) ** (1.0 / 3.0)
            xa, xb, xc = lam * xa, lam * xb, lam * xc
        triples.append((xa, xb, xc))
    agm, ok = K.segment_integrals(*np.array(triples).T)
    assert ok
    jumpy = 0
    for (xa, xb, xc), got in zip(triples, agm):
        sigma = (xb - xa) / (xc - xa)
        want = math.pi * mp_hyp_half(sigma) / cmath.sqrt(xc - xa)
        assert abs(got - want) <= 2e-15 * abs(want), (xa, xb, xc)
        # the Gauss-Chebyshev sum meets the same oracle
        cheb = complex(K.segment_integral(xa, xb, xc, 256))
        assert abs(cheb - want) <= 1e-12 * abs(want), (xa, xb, xc)
        jumpy += _principal_jumps(xa, xb, xc, 256) > 0
    # the Euler branch must hold where the cubic's principal root does not
    assert jumpy >= 10


def test_segment_integral_converges_spectrally():
    xa, xb, xc = -0.3 + 0.1j, 0.9 - 0.4j, 1.4 + 1.1j
    v64 = K.segment_integral(xa, xb, xc, 64)
    v128 = K.segment_integral(xa, xb, xc, 128)
    v256 = K.segment_integral(xa, xb, xc, 256)
    assert abs(v128 - v256) <= max(1e-13, abs(v64 - v128))
    assert abs(v128 - v256) < 1e-12


def _segment_reference(xa, xb, xc, n):
    """The n-node Gauss-Chebyshev sum of w_i / sqrt(cubic(X_i)) at 40 digits
    as a per-node loop: the square root's sign is seeded at the first node
    against the Euler branch and then continued from node to node."""
    with mp.workdps(40):
        xa, xb, xc = (mp.mpc(v) for v in (xa, xb, xc))
        span = xb - xa
        acc = mp.mpc(0)
        prev = None
        for i in range(n):
            t = (1 + mp.cos((2 * i + 1) * mp.pi / (2 * n))) / 2
            w = mp.sqrt(t * (1 - t))
            x = xa + span * t
            sq = mp.sqrt((x - xa) * (x - xb) * (x - xc))
            ref = (span * mp.sqrt(xc - xa) * w * mp.sqrt(1 - span / (xc - xa) * t)
                   if prev is None else prev)
            # |sq - ref| > |sq + ref|: sq is nearer -ref
            if (sq * mp.conj(ref)).real < 0:
                sq = -sq
            prev = sq
            acc += w / sq
        return complex(acc * span * mp.pi / n)


def test_segment_integrals_batch_matches_per_node_loop():
    rng = np.random.default_rng(20261018)
    tri = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
    for n in (16, 64):
        got = np.array([K.segment_integral(*row, n) for row in tri])
        want = np.array([_segment_reference(*map(complex, row), n) for row in tri])
        # the rows must include some where the cubic's principal root jumps
        # branch between nodes, not only rows where it stays on one
        assert sum(_principal_jumps(*row, n) > 0 for row in tri) >= 10
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15


def test_segment_integrals_batch_matches_euler_integral():
    # one AGM run over the seeded rows above, against Euler's integral at
    # 30 digits, |sigma| up to about 66
    rng = np.random.default_rng(20261018)
    tri = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
    got, ok = K.segment_integrals(tri[:, 0], tri[:, 1], tri[:, 2])
    assert ok and got.shape == (len(tri),)
    sigma = (tri[:, 1] - tri[:, 0]) / (tri[:, 2] - tri[:, 0])
    want = np.array([math.pi * mp_hyp_half(s) for s in sigma]) / np.sqrt(tri[:, 2] - tri[:, 0])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-15


@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_cubic_roots_vieta(z):
    roots = K.cubic_roots(complex(z))
    h = 0.5 * complex(z)
    s1 = roots.sum()
    s2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    s3 = roots.prod()
    scale = 1.0 + abs(h) ** 2
    assert abs(s1 + h * h) <= 1e-12 * scale
    assert abs(s2 - h) <= 1e-12 * scale
    assert abs(s3 + 0.25) <= 1e-12 * scale


def test_track_roots_continuity():
    seed = K.cubic_roots(0j)
    zs = np.linspace(0, 2.5, 400) * np.exp(0.3j)
    tracked = K.track_roots(zs.astype(np.complex128), seed)
    steps = np.abs(np.diff(tracked, axis=0))
    assert steps.max() < 0.05
    # labels must match the seed at the start
    assert np.allclose(tracked[0], seed, atol=1e-10)


def _track_roots_reference(zs, seed):
    """Root tracking as a per-step loop: each fresh Cardano triple is
    reordered by the first of the six permutations that minimizes the total
    squared distance to the tracked triple before it."""
    raw = K._fiber_roots(np.asarray(zs, dtype=np.complex128))
    out = np.empty_like(raw)
    prev = np.asarray(seed, dtype=np.complex128)
    for i in range(raw.shape[0]):
        r = raw[i]
        best, best_d = None, np.inf
        for p in K._PERMS:
            d = (abs(r[p[0]] - prev[0]) ** 2 + abs(r[p[1]] - prev[1]) ** 2
                 + abs(r[p[2]] - prev[2]) ** 2)
            if d < best_d:
                best_d, best = d, p
        prev = r[list(best)]
        out[i] = prev
    return out


def _assert_tracks_like_reference(zs, seed):
    got = K.track_roots(zs, seed)
    want = _track_roots_reference(zs, seed)
    assert np.array_equal(got, want)
    return got


def test_track_roots_matches_loop_on_critical_rays():
    # tanh-sinh nodes crowd into the root collision at each critical value
    t, _ = geom._tanh_sinh()
    for end in geom.CRITICAL_VALUES:
        _assert_tracks_like_reference(t * end, geom._origin_triple())


def test_track_roots_matches_loop_on_degeneration_rays():
    # on the production ray rule and the 48-node rule of the period reference
    rng = np.random.default_rng(20261018)
    rules = (geom._RAY_GRID[0], geom._gauss_legendre(48)[0])
    for log_y, phase in zip(rng.uniform(math.log10(27.0) + 1e-6, 8.43, 150),
                            rng.uniform(-math.pi, math.pi, 150)):
        z_star = geom.critical_points(cmath.rect(10.0 ** log_y, phase))[0]
        for t in rules:
            _assert_tracks_like_reference(t * z_star, geom._origin_triple())


def test_track_roots_matches_loop_on_long_paths():
    origin = geom._origin_triple()
    _assert_tracks_like_reference(np.linspace(0.0, 2.5, 20000) * np.exp(0.3j), origin)
    # straight into the critical value 3 OMEGA, where two roots collide
    tracked = _assert_tracks_like_reference(
        np.linspace(0.0, 1.0, 5001)[1:] * geom.CRITICAL_VALUES[1], origin)
    last = tracked[-1]
    assert min(abs(last[0] - last[1]), abs(last[0] - last[2]),
               abs(last[1] - last[2])) < 1e-6


def test_track_roots_matches_loop_from_permuted_seeds():
    # seeds in every label order, so the label composition is exercised
    rng = np.random.default_rng(7)
    for i in range(60):
        z0, z1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        zs = z0 + (3.0 * z1 - z0) * np.linspace(0.0, 1.0, 300)
        seed = K._fiber_roots(z0)[list(K._PERMS[i % 6])]
        _assert_tracks_like_reference(zs, seed)
