"""Kernel layer: special functions, root tracking, segment quadrature."""

import cmath
import math

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from localp2 import _kernels as K

# ---------------------------------------------------------------------------
# oracle: mpmath for gamma/digamma/elliptic/2F1 reference values
# ---------------------------------------------------------------------------


def mp_gamma(z):
    return complex(mp.gamma(complex(z)))


def mp_digamma(z):
    return complex(mp.digamma(complex(z)))


def mp_hyp_half(z):
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
        want_k = complex(mp.ellipk(complex(k) ** 2))
        want_e = complex(mp.ellipe(complex(k) ** 2))
        assert abs(complex(kk[0]) - want_k) <= 1e-12 * abs(want_k)
        assert abs(complex(ee[0]) - want_e) <= 1e-12 * abs(want_e)


# segment integral: Euler-branch identity oracle on a fixed triple.
# 2 * seg(xa -> xb | xc) = 2 pi F(sigma) / sqrt(xc - xa), sigma = (xb-xa)/(xc-xa)
def test_segment_integral_euler_identity():
    xa, xb, xc = 0.0 + 0j, 1.0 + 0j, 2.0 + 0j
    sigma = (xb - xa) / (xc - xa)
    want = math.pi * mp_hyp_half(sigma) / math.sqrt(2.0)
    got = complex(K.segment_integral(xa, xb, xc, 96))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_segment_integral_converges_spectrally():
    xa, xb, xc = -0.3 + 0.1j, 0.9 - 0.4j, 1.4 + 1.1j
    v64 = K.segment_integral(xa, xb, xc, 64)
    v128 = K.segment_integral(xa, xb, xc, 128)
    v256 = K.segment_integral(xa, xb, xc, 256)
    assert abs(v128 - v256) <= max(1e-13, abs(v64 - v128))
    assert abs(v128 - v256) < 1e-12


def _segment_reference(xa, xb, xc, n):
    """The segment quadrature as a per-node loop: the square root's sign is
    seeded at the first node against the Euler branch and then continued
    from node to node.  Also returns how often the continued sign left or
    rejoined the principal branch between nodes."""
    sigma = (xb - xa) / (xc - xa)
    acc = 0j
    prev = 0j
    flipped = []
    for i in range(n):
        t = 0.5 * (1.0 + math.cos((2.0 * i + 1.0) * math.pi / (2.0 * n)))
        w = math.sqrt(t * (1.0 - t))
        x = xa + (xb - xa) * t
        sq = cmath.sqrt((x - xa) * (x - xb) * (x - xc))
        ref = ((xb - xa) * cmath.sqrt(xc - xa) * w * cmath.sqrt(1.0 - sigma * t)
               if i == 0 else prev)
        flipped.append(abs(sq - ref) > abs(sq + ref))
        if flipped[-1]:
            sq = -sq
        prev = sq
        acc += w / sq
    jumps = sum(a != b for a, b in zip(flipped[:-1], flipped[1:]))
    return acc * (xb - xa) * math.pi / n, jumps


def test_segment_integrals_batch_matches_per_node_loop():
    rng = np.random.default_rng(20261018)
    tri = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
    for n in (16, 64):
        got = K.segment_integrals(tri[:, 0], tri[:, 1], tri[:, 2], n)
        ref = [_segment_reference(*map(complex, row), n) for row in tri]
        want = np.array([v for v, _ in ref])
        # the batch must exercise the sign continuation, not only the seed
        assert sum(jumps > 0 for _, jumps in ref) >= 10
        assert got.shape == (len(tri),)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
        assert complex(K.segment_integral(*tri[7], n)) == got[7]


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
