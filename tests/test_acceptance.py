"""Top-level acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured worst deviation
and wall time, then asserts both the numeric bound and the runtime budget.
Run with -v to get one line per criterion from pytest as well.
"""

import cmath
import math
import time

import numpy as np

import localp2.cohomology as coh
import localp2.mirror_geometry as geom
import localp2.mirror_map as mm
import localp2.picard_fuchs as pf
import localp2.specfun as sf
from localp2.cli import dispatch


def _report(num, label, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {label}: {status} "
          f"({detail}, t={elapsed:.2f}s, budget={budget:g}s)")
    assert ok, f"{label}: {detail}"
    assert elapsed < budget, f"{label}: {elapsed:.1f}s over budget {budget:g}s"


def test_acceptance_1_closed_form_identities():
    t0 = time.perf_counter()
    worst_d = max(r["rel_err"] for r in sf.closed_form_checks())
    worst_x = max(r["rel_err"] for r in sf.closed_form_checks(
        sf.PrecisionConfig(mode="extended")))
    dt = time.perf_counter() - t0
    ok = worst_d <= 1e-10 and worst_x <= 1e-20
    _report(1, "closed-form identities", ok,
            f"double={worst_d:.2e} extended={worst_x:.2e}", dt, 1.0)


def test_acceptance_2_quadratic_transformation_grid():
    t0 = time.perf_counter()
    xs = list(np.linspace(0.0, 5.0, 49)) + [math.sqrt(3.0)]
    worst = max(sf.ramanujan_residual(x) for x in xs)
    dt = time.perf_counter() - t0
    _report(2, "quadratic transformation on [0,5]", worst <= 1e-11,
            f"worst={worst:.2e} over {len(xs)} points", dt, 5.0)


def test_acceptance_3_solution_representations_agree():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in np.linspace(-2.8, 2.8, 10):
        y = 0.02 * cmath.exp(1j * theta)
        chf = pf.chf_expand(y, n_max=120)
        s1 = pf.series_w1(y, 120)
        s2 = pf.series_w2(y, 120)
        ln_y = cmath.log(y)
        ln_my = ln_y - 1j * math.pi
        mb_plain = pf.mellin_barnes(y, "plain")
        mb_psi = pf.mellin_barnes(y, "digamma")
        mb_w1 = (ln_y + 3.0 * mb_plain) / (2j * math.pi)
        pi2 = math.pi ** 2
        mb_w2 = (-(ln_my ** 2) / (8 * pi2) + 0.125
                 - 3 * ln_my * mb_plain / (4 * pi2) - 9 * mb_psi / (4 * pi2))
        worst = max(
            worst,
            abs(chf.w1 - s1), abs(chf.w1 - mb_w1), abs(s1 - mb_w1),
            abs(chf.w2 - s2), abs(chf.w2 - mb_w2), abs(s2 - mb_w2),
            abs(chf.w0 - 1.0),
        )
    dt = time.perf_counter() - t0
    _report(3, "series/contour/rho-expansion agreement", worst <= 1e-9,
            f"worst pairwise={worst:.2e} at 10 points", dt, 30.0)


def test_acceptance_4_annihilator_residual():
    t0 = time.perf_counter()
    samples = (0.01, 0.02 * cmath.exp(0.4j), -0.012 + 0.009j)
    worst = pf.annihilation_residual(samples, n_terms=40)
    dt = time.perf_counter() - t0
    _report(4, "differential annihilator", worst <= 1e-10,
            f"residual={worst:.2e} at 40 terms", dt, 1.0)


def test_acceptance_5_monodromy_integer_unipotent():
    t0 = time.perf_counter()
    m = np.array(pf.monodromy_around_origin())    # raises if off-integer
    d = m - np.eye(3, dtype=int)
    nilpotent = bool(np.all(d @ d @ d == 0))
    dt = time.perf_counter() - t0
    _report(5, "origin monodromy", nilpotent,
            f"matrix={m.tolist()} (M-1)^3=0", dt, 30.0)


def test_acceptance_6_periods_match_tail_expansion():
    # the large-|y| expansion through the integer transfer matrix: w = I T,
    # so I = w T^-1, within the period and the series error estimates
    t0 = time.perf_counter()
    t_inv = np.array(((1, 0, 0), (-1, 0, 1), (-2, -1, 1)))
    worst_dev = 0.0
    worst_sum = 0.0
    for y in (28.0, 1e3, 2e3, 4e3, 1e30):
        pv = geom.periods(y)
        sol = pf.w_at_infinity(y)
        ref = sol.as_vector() @ t_inv
        for ik, ek, rk in zip(pv.as_vector(), pv.err, ref):
            worst_dev = max(worst_dev, abs(ik - rk) / (ek + sol.err_estimate))
        gap = abs(pv.alternating_sum() - 1.0)
        budget_err = 10.0 * max(sum(pv.err), 1e-13)
        worst_sum = max(worst_sum, gap / budget_err)
    dt = time.perf_counter() - t0
    ok = worst_dev <= 1.0 and worst_sum <= 1.0
    _report(6, "periods against the large-|y| series and sum rule", ok,
            f"series dev/(err + series err)={worst_dev:.2f}, "
            f"sum-rule gap/(10 err)={worst_sum:.2f}", dt, 120.0)


def test_acceptance_7_transfer_matrix_recovery():
    t0 = time.perf_counter()
    tm = mm.fit_transfer_matrix((1e3, 2e3, 4e3))
    expected = ((1, 0, 0), (-1, 1, -1), (1, 1, 0))
    ok = (tm.entries == expected and abs(tm.determinant()) == 1
          and tm.pre_round_dev <= 1e-4)
    dt = time.perf_counter() - t0
    _report(7, "integer transfer matrix", ok,
            f"entries={tm.entries} pre_round={tm.pre_round_dev:.2e}", dt, 120.0)


def test_acceptance_8_ktheory_suite_exact():
    t0 = time.perf_counter()
    checks = []
    checks.append(coh.pairing_table() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    bs = coh.brane_basis()
    checks.append(all(
        coh.euler_form_compact(a, b) == -coh.euler_form_compact(b, a)
        for a in bs for b in bs))
    for i in range(3):
        e = coh.KClass(coh.Basis.EXCEPTIONAL,
                       tuple(1 if j == i else 0 for j in range(3)))
        back = coh.basis_change(coh.basis_change(e, coh.Basis.BRANE),
                                coh.Basis.EXCEPTIONAL)
        checks.append(back.coords == e.coords)
    checks.append([n.coords for n in mm.mirror_objects()]
                  == [(0, 0, 1), (-1, 1, 2), (0, 1, 1)])
    table = mm.hom_dimensions()
    checks.append(table == [[1, 3, 3], [-3, 1, 3], [-3, -3, 1]])
    checks.append(all(table[i][i] == 1 for i in range(3)))
    checks.append(mm.ako_twist_check() is True)
    dt = time.perf_counter() - t0
    _report(8, "K-theory suite", all(checks),
            f"{sum(checks)}/{len(checks)} exact checks", dt, 1.0)


def test_acceptance_9_reproduce_pipeline(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "reproduce.json"
    code = dispatch(["reproduce", "--out", str(out)])
    dt = time.perf_counter() - t0
    _report(9, "reproduce pipeline", code == 0,
            f"exit={code}", dt, 300.0)
