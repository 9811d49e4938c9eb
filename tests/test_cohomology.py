"""Exact K-theory layer.  Oracle: hand-rolled Riemann-Roch arithmetic on
line bundles of the plane, written here independently of the module."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from localp2 import cohomology as coh
from localp2.errors import BasisError

# ---------------------------------------------------------------------------
# oracle: chi(O(n)) on P^2 and the K-ring reduction of [O(n)]
# ---------------------------------------------------------------------------


def chi_line(n: int) -> int:
    # Euler characteristic of O(n) on the plane
    return (n + 1) * (n + 2) // 2


def lb_coords_of_twist(n: int):
    """Coordinates of [O(n)] in the ([O], [O(-1)], [O(-2)]) basis via the
    relation (1 - t^-1)^3 = 0 for t = [O(1)]."""
    table = {0: (1, 0, 0), -1: (0, 1, 0), -2: (0, 0, 1)}
    if n in table:
        return table[n]
    # represent [O(n)] by reducing step by step: [O(m-3)] = [O(m)] - 3[O(m-1)] + 3[O(m-2)]
    def reduce(m):
        if m in table:
            out = dict.fromkeys((0, -1, -2), 0)
            out[m] = 1
            return out
        if m < -2:
            a, b, c = reduce(m + 3), reduce(m + 2), reduce(m + 1)
            return {k: a[k] - 3 * b[k] + 3 * c[k] for k in a}
        a, b, c = reduce(m - 3), reduce(m - 2), reduce(m - 1)
        # invert: [O(m)] = [O(m-3)] + 3[O(m-1)] - 3[O(m-2)]
        return {k: a[k] + 3 * c[k] - 3 * b[k] for k in a}
    red = reduce(n)
    return (red[0], red[-1], red[-2])


def chi_between(a_coords, b_coords) -> int:
    """chi(F, G) for F, G given in line-bundle coordinates, via the oracle
    chi(O(a), O(b)) = chi_line(b - a)."""
    twists = (0, -1, -2)
    total = 0
    for i, fa in enumerate(a_coords):
        for j, gb in enumerate(b_coords):
            total += fa * gb * chi_line(twists[j] - twists[i])
    return total


# ---------------------------------------------------------------------------
# module under test
# ---------------------------------------------------------------------------


def test_line_bundle_reduction_matches_oracle():
    for n in range(-6, 5):
        k = coh.line_bundle_class(n)
        assert k.coords == lb_coords_of_twist(n), n


def test_tensor_agrees_with_twist_addition():
    for a in range(-3, 3):
        for b in range(-3, 3):
            t = coh.tensor(coh.line_bundle_class(a), coh.line_bundle_class(b))
            assert coh.basis_change(t, coh.Basis.LINE_BUNDLE).coords == \
                lb_coords_of_twist(a + b)


def test_chi_p2_matches_oracle():
    for a in range(-4, 3):
        for b in range(-4, 3):
            ka = coh.line_bundle_class(a)
            kb = coh.line_bundle_class(b)
            got = coh.chi_p2(ka, kb)
            assert got == chi_line(b - a) and type(got) is int


def test_euler_pairing_bk_matches_oracle():
    # the product O(a) (x) O(b) = O(a + b), so the pairing is chi(O(a + b))
    for a in range(-4, 3):
        for b in range(-4, 3):
            ka = coh.line_bundle_class(a)
            kb = coh.line_bundle_class(b)
            got = coh.euler_pairing_bk(ka, kb)
            assert got == chi_line(a + b) and type(got) is int


def test_pairing_table_is_identity():
    assert coh.pairing_table() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_euler_form_antisymmetric():
    bs = coh.brane_basis()
    for x in bs:
        for y in bs:
            assert coh.euler_form_compact(x, y) == -coh.euler_form_compact(y, x)


def test_exceptional_brane_conversion_round_trip():
    for i in range(3):
        e = coh.KClass(coh.Basis.EXCEPTIONAL,
                       tuple(1 if j == i else 0 for j in range(3)))
        back = coh.basis_change(coh.basis_change(e, coh.Basis.BRANE),
                                coh.Basis.EXCEPTIONAL)
        assert back.coords == e.coords


def test_brane_to_exceptional_matrix_is_pinned():
    # the pinned conversion matrix, applied to unit vectors: its columns are
    # the brane classes written in the exceptional collection
    m = ((1, -3, 6), (-1, 2, -3), (1, -1, 1))
    assert coh.change_of_basis_matrix(coh.Basis.BRANE, coh.Basis.EXCEPTIONAL) == m
    for i in range(3):
        b = coh.KClass(coh.Basis.BRANE,
                       tuple(1 if j == i else 0 for j in range(3)))
        got = coh.basis_change(b, coh.Basis.EXCEPTIONAL).coords
        assert got == tuple(m[r][i] for r in range(3))


def test_basis_change_preserves_line_bundle_coordinates():
    # frame changes must not move the underlying class: check through the
    # frame-independent Euler pairing against a fixed probe
    probe = coh.line_bundle_class(1)
    k = coh.KClass(coh.Basis.EXCEPTIONAL, (2, -1, 3))
    ref = coh.chi_p2(k, probe)
    for target in coh.Basis:
        assert coh.chi_p2(coh.basis_change(k, target), probe) == ref


def test_point_class_in_exceptional_frame():
    # [O_p] = [O] - 2[O(-1)] + [O(-2)] expands as E_0 - E_1 + E_2
    pt = coh.KClass(coh.Basis.LINE_BUNDLE, (1, -2, 1))
    assert coh.basis_change(pt, coh.Basis.EXCEPTIONAL).coords == (1, -1, 1)


def test_central_charge_picks_components():
    w = (1.25 + 0j, -0.5 + 2j, 0.75 - 1j)
    for i, b in enumerate(coh.brane_basis()):
        assert coh.central_charge(b, w) == complex(w[i])


def test_central_charge_linear():
    w = (0.3 + 0.1j, 1.0 - 0.2j, -0.7 + 0.9j)
    b = coh.brane_basis()
    combo = coh.KClass(coh.Basis.BRANE, (2, -1, 3))
    want = 2 * coh.central_charge(b[0], w) - coh.central_charge(b[1], w) \
        + 3 * coh.central_charge(b[2], w)
    assert abs(coh.central_charge(combo, w) - want) < 1e-15


def test_kclass_rejects_non_integer():
    with pytest.raises(BasisError):
        coh.KClass(coh.Basis.BRANE, (1.5, 0, 0))


@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8)),
       st.sampled_from(list(coh.Basis)))
@settings(max_examples=80, deadline=None)
def test_basis_round_trip_property(coords, frame):
    k = coh.KClass(frame, coords)
    for target in coh.Basis:
        back = coh.basis_change(coh.basis_change(k, target), frame)
        assert back.coords == k.coords


@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)))
@settings(max_examples=50, deadline=None)
def test_chi_bilinear_property(u, v):
    ka = coh.KClass(coh.Basis.LINE_BUNDLE, u)
    kb = coh.KClass(coh.Basis.LINE_BUNDLE, v)
    assert coh.chi_p2(ka, kb) == chi_between(u, v)


def pairing_between(a_coords, b_coords) -> int:
    """euler_pairing_bk(F, G) for F, G in line-bundle coordinates, via the
    oracle chi(O(a) (x) O(b)) = chi_line(a + b)."""
    twists = (0, -1, -2)
    return sum(fa * gb * chi_line(twists[i] + twists[j])
               for i, fa in enumerate(a_coords) for j, gb in enumerate(b_coords))


_COORDS = st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))


@given(_COORDS, st.sampled_from(list(coh.Basis)),
       _COORDS, st.sampled_from(list(coh.Basis)))
@settings(max_examples=80, deadline=None)
@seed(729)
def test_euler_pairing_bk_bilinear_property(u, frame_u, v, frame_v):
    # classes given in any frame pair as their line-bundle coordinates do
    ka, kb = coh.KClass(frame_u, u), coh.KClass(frame_v, v)
    lb_a = coh.basis_change(ka, coh.Basis.LINE_BUNDLE).coords
    lb_b = coh.basis_change(kb, coh.Basis.LINE_BUNDLE).coords
    assert coh.euler_pairing_bk(ka, kb) == pairing_between(lb_a, lb_b)
    assert coh.chi_p2(ka, kb) == chi_between(lb_a, lb_b)
