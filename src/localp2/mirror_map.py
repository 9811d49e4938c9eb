"""The transfer matrix and identification of the mirror brane objects.

The contour periods of the fibration and the flat-coordinate solutions of
the differential annihilator span the same three-dimensional space.  The
integer change of basis between them is a fixed fact of the equivalence,
pinned once as ``TRANSFER_MATRIX``; its columns identify each solution with
an integer combination of brane K-classes.  The least-squares fit over
several modulus samples recovers it from the periods and is its check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cohomology as coh
from . import mirror_geometry as geom
from . import picard_fuchs as pf
from .errors import DomainError, FitError, IntegralityError
from .specfun import PrecisionConfig

__all__ = [
    "TRANSFER_MATRIX",
    "TransferMatrix",
    "solve_transfer",
    "fit_transfer_matrix",
    "mirror_objects",
    "hom_dimensions",
    "ako_twist_check",
    "central_charge_report",
    "FIT_MODULI",
]

# the period-to-solution matrix: W = I . TRANSFER_MATRIX, row-major
TRANSFER_MATRIX = ((1, 0, 0), (-1, 1, -1), (1, 1, 0))

# the default fit samples of the transfer matrix
FIT_MODULI = (1e3, 2e3, 4e3)


@dataclass(frozen=True)
class TransferMatrix:
    """Integer matrix sending the period triple to the solution triple.

    entries        rounded integer matrix, row-major
    residual       max |W - I . entries| after rounding
    pre_round_dev  max distance of a fitted entry from its integer
    """

    entries: tuple
    residual: float
    pre_round_dev: float

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.entries)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise DomainError("transfer matrix must be 3x3")
        object.__setattr__(self, "entries", rows)

    def determinant(self) -> int:
        return coh._det3(self.entries)

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(3))


def solve_transfer(period_rows, solution_rows) -> TransferMatrix:
    """Least-squares solve of W = I . M followed by integer rounding.

    ``period_rows`` and ``solution_rows`` are matching lists of length-3
    complex rows.  The fitted matrix must sit within 1e-4 of an integer
    matrix entrywise, and the post-rounding residual must stay below 1e-3;
    otherwise the deviations are reported in a FitError.
    """
    imat = np.array(period_rows, dtype=complex)
    wmat = np.array(solution_rows, dtype=complex)
    if imat.shape != wmat.shape or imat.ndim != 2 or imat.shape[1] != 3:
        raise DomainError("need matching n x 3 period and solution rows")
    if imat.shape[0] < 3:
        raise DomainError("need at least three sample rows")
    fitted, *_ = np.linalg.lstsq(imat, wmat, rcond=None)
    rounded = np.round(fitted.real)
    pre_dev = float(np.max(np.abs(fitted - rounded)))
    if pre_dev > 1e-4:
        dev_table = np.abs(fitted - rounded).round(6).tolist()
        raise FitError(
            f"fitted transfer entries miss integers by {pre_dev:.3e} "
            f"(per-entry deviations {dev_table})")
    residual = float(np.max(np.abs(wmat - imat @ rounded)))
    if residual > 1e-3:
        raise FitError(
            f"post-rounding transfer residual {residual:.3e} exceeds 1e-3")
    tm = TransferMatrix(tuple(map(tuple, rounded.astype(int))), residual, pre_dev)
    if abs(tm.determinant()) != 1:
        raise FitError(f"transfer matrix not unimodular: det = {tm.determinant()}")
    return tm


def _modulus(sample) -> complex:
    return sample.y if isinstance(sample, geom.PeriodVector) else complex(sample)


def _period_vector(sample, quad: PrecisionConfig | None = None) -> geom.PeriodVector:
    """A period vector as given, or the periods at a modulus."""
    if isinstance(sample, geom.PeriodVector):
        return sample
    return geom.periods(sample, quad)


def fit_transfer_matrix(y_samples, quad: PrecisionConfig | None = None) -> TransferMatrix:
    """Fit the period-to-solution matrix over the supplied modulus samples.

    Each sample is a modulus, whose periods are computed at ``quad``, or a
    ``PeriodVector``, which is used as given at its own modulus.  Needs at
    least three pairwise distinct samples in the domain |y| > 27 of
    ``periods``, each paired with the large-|y| solution row, which is exact
    to its rounding level there.  Samples that nearly coincide make the
    least-squares system ill-conditioned; the integrality check then raises
    FitError.
    """
    samples = list(y_samples)
    ys = [_modulus(s) for s in samples]
    if len(ys) < 3:
        raise DomainError("need at least three modulus samples")
    for a in range(len(ys)):
        for b in range(a + 1, len(ys)):
            if ys[a] == ys[b]:
                raise DomainError(f"fit samples must be pairwise distinct ({ys[a]})")
    period_rows = []
    solution_rows = []
    for y, sample in zip(ys, samples):
        period_rows.append(_period_vector(sample, quad).as_vector())
        sol = pf.w_at_infinity(y)
        solution_rows.append([sol.w0, sol.w1, sol.w2])
    return solve_transfer(period_rows, solution_rows)


def mirror_objects() -> list:
    """The three mirror brane K-classes, in compact-brane coordinates.

    N_0 is the third brane generator [O(-2)]; N_1 subtracts the point class
    from the shifted-line class and adds two copies of [O(-2)], which lands
    on the twisted tangent class T(-3); N_2 = [O(-1)].  The line-bundle
    coordinates of N_1 are verified to be -[O] + 3[O(-1)].
    """
    b = coh.Basis.BRANE
    n0 = coh.KClass(b, (0, 0, 1))
    n1 = coh.KClass(b, (-1, 1, 2))
    n2 = coh.KClass(b, (0, 1, 1))
    lb1 = coh.basis_change(n1, coh.Basis.LINE_BUNDLE).coords
    if lb1 != (-1, 3, 0):
        raise IntegralityError(
            f"twisted tangent class came out as {lb1}, expected (-1, 3, 0)")
    return [n0, n1, n2]


def hom_dimensions() -> list:
    """Plane Euler pairings of the mirror objects as a 3x3 integer table.

    Above the diagonal the collection is strong exceptional, so the Euler
    characteristic equals the dimension of the morphism space; the diagonal
    is 1; below the diagonal the antisymmetrized compact pairing of the
    threefold is reported.
    """
    ns = mirror_objects()
    table = []
    for i in range(3):
        row = []
        for j in range(3):
            if i <= j:
                row.append(coh.chi_p2(ns[i], ns[j]))
            else:
                row.append(coh.euler_form_compact(ns[i], ns[j]))
        table.append(row)
    return table


def ako_twist_check() -> bool:
    """Mirror objects equal the standard exceptional collection twisted once.

    Tensors each of O, T(-1), O(1) by O(-2) and compares line-bundle
    coordinates with mirror_objects().
    """
    twist = coh.line_bundle_class(-2)
    ns = [coh.basis_change(n, coh.Basis.LINE_BUNDLE) for n in mirror_objects()]
    es = coh.exceptional_collection()
    for e, n in zip(es, ns):
        twisted = coh.basis_change(coh.tensor(e, twist), coh.Basis.LINE_BUNDLE)
        if twisted.coords != n.coords:
            return False
    return True


def central_charge_report(y) -> list:
    """Per-brane comparison of analytic and period-side central charges.

    ``y`` is a modulus in the domain |y| > 27 of ``periods`` or a
    ``PeriodVector`` (used as given, at its own modulus).  The analytic
    column pairs each compact brane class with the large-|y| solution
    triple; the period column maps the numerically integrated period triple
    through ``TRANSFER_MATRIX``.  A row is flagged when the two differ by
    more than ten times the propagated quadrature error (plus the solution
    triple's err_estimate).
    """
    pv = _period_vector(y)
    sol = pf.w_at_infinity(pv.y)
    ivec = np.array(pv.as_vector(), dtype=complex)
    m = np.array(TRANSFER_MATRIX, dtype=float)
    w_numeric = ivec @ m
    w_err = np.abs(np.array(pv.err)) @ np.abs(m)
    labels = ("point", "line_twist", "plane_O(-2)")
    branes = coh.brane_basis()
    rows = []
    for i, (label, brane) in enumerate(zip(labels, branes)):
        analytic = coh.central_charge(brane, sol.as_vector())
        numeric = coh.central_charge(brane, w_numeric)
        tol = 10.0 * (w_err[i] + sol.err_estimate)
        dev = abs(analytic - numeric)
        rows.append({
            "brane": label,
            "charge_analytic": analytic,
            "charge_periods": numeric,
            "abs_dev": dev,
            "tolerance": tol,
            "flagged": bool(dev > tol),
        })
    return rows
