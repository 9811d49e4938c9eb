"""Transfer-matrix recovery and the brane identification layer.

Oracle: synthetic row data built from a known integer matrix must be
recovered exactly before the fit is trusted on real period data.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import localp2.cohomology as coh
import localp2.mirror_geometry as geom
import localp2.mirror_map as mm
from localp2.errors import DomainError, FitError
from localp2.specfun import PrecisionConfig

EXPECTED = ((1, 0, 0), (-1, 1, -1), (1, 1, 0))


# --- synthetic solve ----------------------------------------------------------

def _synthetic_rows(matrix, n_rows=4, seed=7):
    rng = np.random.default_rng(seed)
    imat = rng.normal(size=(n_rows, 3)) + 1j * rng.normal(size=(n_rows, 3))
    wmat = imat @ np.array(matrix, dtype=float)
    return imat.tolist(), wmat.tolist()


def test_solve_transfer_recovers_known_matrix():
    m0 = ((2, 1, 0), (1, 1, 0), (0, 3, 1))       # det 1
    irows, wrows = _synthetic_rows(m0)
    tm = mm.solve_transfer(irows, wrows)
    assert tm.entries == m0
    assert tm.pre_round_dev < 1e-12
    assert tm.residual < 1e-12
    assert tm.determinant() == 1


def test_solve_transfer_flags_non_integer():
    m = ((1.0, 0.0, 0.0), (0.0, 1.5, 0.0), (0.0, 0.0, 1.0))
    irows, wrows = _synthetic_rows(m)
    with pytest.raises(FitError):
        mm.solve_transfer(irows, wrows)


def test_solve_transfer_flags_non_unimodular():
    m = ((2, 0, 0), (0, 1, 0), (0, 0, 1))        # det 2
    irows, wrows = _synthetic_rows(m)
    with pytest.raises(FitError, match="unimodular"):
        mm.solve_transfer(irows, wrows)


def test_solve_transfer_flags_inconsistent_rows():
    # half the rows pull toward M, half toward M + 2*E00; the average is an
    # integer matrix, so only the post-rounding residual can catch it
    a = np.array(EXPECTED, dtype=float)
    b = a.copy()
    b[0, 0] += 2.0
    irows, _ = _synthetic_rows(EXPECTED, n_rows=3)
    imat = np.vstack([irows, irows])     # identical blocks balance the fit
    wmat = np.vstack([np.array(irows) @ a, np.array(irows) @ b])
    with pytest.raises(FitError, match="residual"):
        mm.solve_transfer(imat.tolist(), wmat.tolist())


def test_solve_transfer_shape_checks():
    irows, wrows = _synthetic_rows(EXPECTED, n_rows=2)
    with pytest.raises(DomainError):
        mm.solve_transfer(irows, wrows)
    with pytest.raises(DomainError):
        mm.solve_transfer([[1, 2], [3, 4], [5, 6]], [[1, 2], [3, 4], [5, 6]])


def test_transfer_matrix_helpers():
    tm = mm.TransferMatrix(EXPECTED, 0.0, 0.0)
    assert tm.determinant() == 1
    assert tm.column(0) == (1, -1, 1)
    # consecutive Fibonacci numbers past 1e10: Cassini's identity gives
    # det = F(n+1) F(n-1) - F(n)^2 = (-1)^n exactly, where a float det
    # rounds to 0
    f = [0, 1]
    while f[-1] < 10 ** 10:
        f.append(f[-1] + f[-2])
    n = len(f) - 2
    tm = mm.TransferMatrix(((f[n + 1], f[n], 0), (f[n], f[n - 1], 0), (0, 0, 1)), 0.0, 0.0)
    assert tm.determinant() == (-1) ** n
    with pytest.raises(DomainError):
        mm.TransferMatrix(((1, 0), (0, 1)), 0.0, 0.0)


# --- fit on real period data ----------------------------------------------------

def test_fit_transfer_matrix_standard_samples():
    tm = mm.fit_transfer_matrix((1e3, 2e3, 4e3))
    assert tm.entries == mm.TRANSFER_MATRIX == EXPECTED
    assert tm.determinant() == 1
    assert tm.column(0) == (1, -1, 1)
    assert tm.pre_round_dev < 1e-4
    assert tm.residual < 1e-8


def test_fit_transfer_matrix_with_complex_sample():
    tm = mm.fit_transfer_matrix((1e3, 2e3, 4e3, 1500 + 800j))
    assert tm.entries == EXPECTED
    assert tm.residual < 1e-8


def test_fit_transfer_matrix_stable_under_precision():
    loose = mm.fit_transfer_matrix((1e3, 2e3, 4e3), PrecisionConfig(target_rel_err=1e-6))
    tight = mm.fit_transfer_matrix((1e3, 2e3, 4e3), PrecisionConfig(target_rel_err=1e-10))
    assert loose.entries == tight.entries == EXPECTED


def test_fit_and_central_charges_take_period_vectors():
    # a period vector stands for its own modulus, and is not recomputed
    ys = (1e3, 2e3, 4500 - 600j)
    pvs = [geom.periods(y) for y in ys]
    assert mm.fit_transfer_matrix(pvs) == mm.fit_transfer_matrix(ys)
    with pytest.raises(DomainError):
        mm.fit_transfer_matrix([pvs[0], pvs[0], pvs[1]])
    assert mm.central_charge_report(pvs[2]) == mm.central_charge_report(ys[2])


def test_fit_transfer_matrix_validation():
    with pytest.raises(DomainError):
        mm.fit_transfer_matrix((1e3, 2e3))
    with pytest.raises(DomainError):
        mm.fit_transfer_matrix((20.0, 2e3, 4e3))
    with pytest.raises(DomainError):
        mm.fit_transfer_matrix((1e3, 1e3, 2e3))


def test_fit_transfer_matrix_near_the_edge_of_the_period_domain():
    # the fit takes every modulus the periods take, |y| > 27
    for ys in ((28.0, 30.0, 35.0), (27.03, 27.03j, -27.03)):
        tm = mm.fit_transfer_matrix(ys)
        assert tm.entries == EXPECTED, ys
        assert tm.pre_round_dev <= 1e-10, ys


_FIT_MODULUS = st.tuples(st.floats(math.log10(27.0), 8.0), st.floats(-math.pi, math.pi))


@given(st.tuples(_FIT_MODULUS, _FIT_MODULUS, _FIT_MODULUS))
@settings(max_examples=25, deadline=None)
def test_fit_transfer_matrix_at_random_moduli(samples):
    # any three distinct moduli with 27 < |y| <= 1e8: the fit returns the
    # one integer matrix or, when samples nearly coincide and the least-
    # squares system is ill-conditioned, refuses with FitError; samples at
    # least 1% apart always give the matrix
    ys = [cmath.rect(10.0 ** e, p) for e, p in samples]
    assume(all(abs(y) > 27.0 for y in ys) and len(set(ys)) == 3)
    apart = min(abs(a - b) / max(abs(a), abs(b))
                for a, b in itertools.combinations(ys, 2))
    try:
        tm = mm.fit_transfer_matrix(ys)
    except FitError:
        assert apart < 1e-2, ys
    else:
        assert tm.entries == EXPECTED, ys


# --- brane identification ---------------------------------------------------------

def test_mirror_objects_coordinates():
    ns = mm.mirror_objects()
    assert [n.coords for n in ns] == [(0, 0, 1), (-1, 1, 2), (0, 1, 1)]
    assert all(n.basis == coh.Basis.BRANE for n in ns)
    lb = coh.basis_change(ns[1], coh.Basis.LINE_BUNDLE)
    assert lb.coords == (-1, 3, 0)


def test_hom_dimension_table():
    assert mm.hom_dimensions() == [[1, 3, 3], [-3, 1, 3], [-3, -3, 1]]


def test_ako_twist_check():
    assert mm.ako_twist_check() is True


# --- central charges ----------------------------------------------------------------

def test_central_charge_report_clean():
    rows = mm.central_charge_report(1e3)
    assert [r["brane"] for r in rows] == ["point", "line_twist", "plane_O(-2)"]
    for r in rows:
        assert not r["flagged"]
        assert r["abs_dev"] <= r["tolerance"]
        assert abs(abs(r["charge_analytic"] - r["charge_periods"]) - r["abs_dev"]) < 1e-15


def test_central_charge_point_is_unity():
    rows = mm.central_charge_report(1e3)
    assert rows[0]["charge_analytic"] == 1.0 + 0j


def test_central_charge_plane_row_is_minus_second_period():
    # through the pinned matrix, the [O(-2)] charge reads off -I_1
    rows = mm.central_charge_report(1e3)
    pv = geom.periods(1e3)
    assert abs(rows[2]["charge_periods"] - (-pv.i1)) < 1e-12


def test_central_charges_near_the_edge_of_the_period_domain():
    for y in (27.03, -27.03, 27.03j, 100.0):
        assert not any(r["flagged"] for r in mm.central_charge_report(y)), y


def test_central_charge_report_domain():
    with pytest.raises(DomainError):
        mm.central_charge_report(20.0)
