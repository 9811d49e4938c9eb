"""Special-function layer against independent mpmath oracles and the
closed Gamma(1/3)^3 forms."""

import math
import warnings
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest

from localp2 import _extended, _kernels, specfun as sf
from localp2.errors import BranchCutError, DomainError
from localp2.specfun import PrecisionConfig

# ---------------------------------------------------------------------------
# oracle values (mpmath, 50 digits) frozen here; every mpmath oracle runs in
# its own workdps block, so importing this module leaves mpmath's global
# precision as it found it
# ---------------------------------------------------------------------------

K_PLUS = (math.sqrt(6.0) + math.sqrt(2.0)) / 4.0
K_MINUS = (math.sqrt(6.0) - math.sqrt(2.0)) / 4.0

with mp.workdps(50):
    # closed forms: prefactor (1/pi) 2^(-7/3) Gamma(1/3)^3 times 3^(3/4) or 3^(1/4)
    _G13_CUBED = float(mp.gamma(mp.mpf(1) / 3) ** 3)
    ORACLE_K_PLUS = complex(mp.ellipk(mp.mpf(K_PLUS) ** 2))
    ORACLE_K_MINUS = complex(mp.ellipk(mp.mpf(K_MINUS) ** 2))
    ORACLE_E_PLUS = complex(mp.ellipe(mp.mpf(K_PLUS) ** 2))
    ORACLE_E_MINUS = complex(mp.ellipe(mp.mpf(K_MINUS) ** 2))
    ORACLE_F_SIXTH = complex(mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 1,
                                       mp.exp(mp.mpc(0, mp.pi) / 3)))
K_PLUS_CLOSED = _G13_CUBED * 3.0 ** 0.75 / (math.pi * 2.0 ** (7.0 / 3.0))
K_MINUS_CLOSED = _G13_CUBED * 3.0 ** 0.25 / (math.pi * 2.0 ** (7.0 / 3.0))


def test_elliptic_k_values():
    assert abs(sf.elliptic_K(K_PLUS) - ORACLE_K_PLUS) < 1e-13
    assert abs(sf.elliptic_K(K_MINUS) - ORACLE_K_MINUS) < 1e-13
    # and the gamma-function closed forms really are these numbers
    assert abs(ORACLE_K_PLUS.real - K_PLUS_CLOSED) < 1e-13
    assert abs(ORACLE_K_MINUS.real - K_MINUS_CLOSED) < 1e-13


def test_elliptic_e_values():
    assert abs(sf.elliptic_E(K_PLUS) - ORACLE_E_PLUS) < 1e-13
    assert abs(sf.elliptic_E(K_MINUS) - ORACLE_E_MINUS) < 1e-13


def _rows(mode):
    """The closed_form_checks rows of the precision mode, by name."""
    return {r["name"]: r for r in sf.closed_form_checks(PrecisionConfig(mode=mode))}


def test_f_at_sixth_root():
    # the AGM and Gamma(1/3)^3 values of the F(-omega) row against mpmath;
    # extended rows hold Python complex values, so 1e-15 relative there
    row = _rows("double")["F(-omega)"]
    assert abs(row["computed"] - ORACLE_F_SIXTH) < 1e-13
    assert abs(row["closed_form"] - ORACLE_F_SIXTH) < 1e-13
    row = _rows("extended")["F(-omega)"]
    for value in (row["computed"], row["closed_form"]):
        assert abs(value - ORACLE_F_SIXTH) <= 1e-15 * abs(ORACLE_F_SIXTH)


def test_legendre_relation():
    # E(k)K(k') + E(k')K(k) - K(k)K(k') = pi/2 with k' the complement
    kk, ee = sf.elliptic_K(K_PLUS), sf.elliptic_E(K_PLUS)
    kkc, eec = sf.elliptic_K(K_MINUS), sf.elliptic_E(K_MINUS)
    lhs = ee * kkc + eec * kk - kk * kkc
    assert abs(lhs - math.pi / 2.0) < 1e-13


def test_f_prime_routes_agree():
    # the closed form, the elliptic chain rule and the finite difference of
    # the two Fprime(-omega) rows against each other and against mpmath
    with mp.workdps(50):
        oracle = complex(mp.diff(
            lambda t: mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 1, t),
            mp.exp(mp.mpc(0, mp.pi) / 3)))
    rows = _rows("double")
    closed = rows["Fprime(-omega) elliptic"]["closed_form"]
    assert abs(closed - rows["Fprime(-omega) elliptic"]["computed"]) < 1e-12
    assert abs(closed - rows["Fprime(-omega) finite difference"]["computed"]) < 5e-11
    assert abs(closed - oracle) < 1e-12
    rows = _rows("extended")
    for name in ("Fprime(-omega) elliptic", "Fprime(-omega) finite difference"):
        for value in (rows[name]["computed"], rows[name]["closed_form"]):
            assert abs(value - oracle) <= 1e-15 * abs(oracle), name


def test_ramanujan_residual_grid():
    worst = max(sf.ramanujan_residual(x) for x in np.linspace(0.0, 5.0, 50))
    assert worst <= 1e-11
    assert sf.ramanujan_residual(math.sqrt(3.0)) <= 1e-13


def test_ramanujan_rejects_negative():
    with pytest.raises(DomainError):
        sf.ramanujan_residual(-0.5)


def test_extended_mode():
    cfg = PrecisionConfig(mode="extended")
    rows = sf.closed_form_checks(cfg)
    assert max(r["rel_err"] for r in rows) <= 1e-20


def _off_cut(w: complex) -> bool:
    """w lies at least 0.05 away from the cut [1, oo)."""
    return abs(w.imag if w.real >= 1.0 else w - 1.0) >= 0.05


def test_agm_functions_match_mpmath_off_the_cuts():
    # mpmath's agm, ellipk and ellipe at 30 digits land on the branch of the
    # kernels' optimal AGM: 100 seeded complex points with z and z^2 off [1, oo)
    rng = np.random.default_rng(1729)
    zs = [z for z in (complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(400))
          if _off_cut(z) and _off_cut(z * z)][:100]
    assert len(zs) == 100
    for f, oracle in ((sf.elliptic_K, _k_oracle), (sf.elliptic_E, _e_oracle),
                      (sf.hyp2f1_half, _agm_oracle)):
        for z in zs:
            with mp.workdps(30):
                want = complex(oracle(mp.mpc(z)))
            assert abs(f(z) - want) <= 1e-14 * abs(want), (f.__name__, z)


@contextmanager
def _extended_at(monkeypatch, dps):
    """The extended arithmetic of ``closed_form_checks``, at dps digits."""
    monkeypatch.setattr(sf, "_EXTENDED_DPS", dps)
    with sf._arith(PrecisionConfig(mode="extended")) as ar:
        yield ar


def _oracle(dps, f, x):
    """mpmath's value at the mpmath number x, worked at 2 dps + 20 digits:
    at dps digits its ellipe, a difference quotient of ellipk, loses about
    as many digits as k^2 has next to 1."""
    with mp.workdps(2 * dps + 20):
        return f(x)


def _agm_oracle(z):
    return 1 / mp.agm(1, mp.sqrt(1 - z))


def _k_oracle(k):
    return mp.ellipk(k * k)


def _e_oracle(k):
    return mp.ellipe(k * k)


def _rel_err(got, want):
    return abs(mp.mpmathify(got) - want) / abs(want)


@pytest.mark.parametrize("dps", [30, 40, 80])
def test_extended_agm_functions_match_mpmath(dps, monkeypatch):
    # the fixed-point AGM against mpmath's agm, ellipk and ellipe at seeded
    # points: |z| from 1e-30 to 1e30 at every phase off the cut, the
    # negative real axis, the imaginary axis, and k from 1e-30 to 1 in size
    rng = np.random.default_rng(dps)
    size = 10.0 ** rng.uniform(-30.0, 30.0, 40)
    zs = [complex(r * np.exp(1j * t))
          for r, t in zip(size[:20], rng.uniform(-math.pi, math.pi, 20))
          if r < 1.0 or abs(t) > 1e-3]
    zs += [-r for r in size[20:30]]
    zs += [complex(0.0, r * s) for r, s in zip(size[30:], rng.choice((-1.0, 1.0), 10))]
    ks = [complex(r * np.exp(1j * t)) for r, t in
          zip(10.0 ** rng.uniform(-30.0, 0.0, 20), rng.uniform(-math.pi, math.pi, 20))]
    ks += list(10.0 ** rng.uniform(-30.0, 0.0, 5)) + list(1.0 - 10.0 ** rng.uniform(-12.0, -1.0, 5))
    bound = 10.0 ** (3 - dps)
    with _extended_at(monkeypatch, dps) as ar:
        zs, ks = [mp.mpmathify(z) for z in zs], [mp.mpmathify(k) for k in ks]
        ke, hyp = ar.agm(ks, zs)
    for z, got in zip(zs, hyp):
        assert _rel_err(got, _oracle(dps, _agm_oracle, z)) <= bound, z
    for k, (kk, ee) in zip(ks, ke):
        assert _rel_err(kk, _oracle(dps, _k_oracle, k)) <= bound, k
        assert _rel_err(ee, _oracle(dps, _e_oracle, k)) <= bound, k


@pytest.mark.parametrize("dps", [30, 40, 80])
def test_extended_agm_keeps_relative_precision_next_to_one(dps, monkeypatch):
    # z off the cut and k within 1e-10 to 10^(2 - dps) of 1, where
    # sqrt(1 - z) and sqrt(1 - k^2) are tiny; the public functions refuse
    # these points as on the cut, so they go to the arithmetic they call.
    # The oracles square the exact k: k^2 rounded to dps digits would move
    # 1 - k^2 by up to 10^(r - dps) of itself
    rng = np.random.default_rng(100 + dps)
    bound = 10.0 ** (3 - dps)
    size = rng.uniform(10.0, dps - 2.0, 20)
    with _extended_at(monkeypatch, dps) as ar:
        zs = [1 + mp.mpf(10) ** -r * mp.expj(t) for r, t in
              zip(size[:10], rng.uniform(0.01, 2.0 * math.pi - 0.01, 10))]
        ks = [1 - mp.mpf(10) ** -r for r in size[10:15]]
        ks += [1 + mp.mpf(10) ** -r * mp.expj(t) for r, t in
               zip(size[15:], rng.uniform(-math.pi, math.pi, 5))]
        ke, hyp = ar.agm(ks, zs)
    for z, got in zip(zs, hyp):
        assert _rel_err(got, _oracle(dps, _agm_oracle, z)) <= bound, z
    for k, (kk, ee) in zip(ks, ke):
        assert _rel_err(kk, _oracle(dps, _k_oracle, k)) <= bound, k
        assert _rel_err(ee, _oracle(dps, _e_oracle, k)) <= bound, k


@pytest.mark.parametrize("dps", [30, 80])
def test_closed_form_checks_follow_the_working_digits(dps, monkeypatch):
    # every AGM row (all but the finite difference, whose step is tied to
    # dps) meets its closed form to within 10^(5 - dps)
    monkeypatch.setattr(sf, "_EXTENDED_DPS", dps)
    rows = sf.closed_form_checks(PrecisionConfig(mode="extended"))
    for r in rows:
        if r["name"] != "Fprime(-omega) finite difference":
            assert r["rel_err"] <= 10.0 ** (5 - dps), r


def test_closed_form_checks_double():
    rows = sf.closed_form_checks()
    names = {r["name"] for r in rows}
    assert {"K(k_plus)", "K(k_minus)", "E(k_plus)", "E(k_minus)",
            "F(-omega)"} <= names
    assert max(r["rel_err"] for r in rows) <= 1e-10


def test_closed_form_checks_modes_agree():
    # each route is written once for both modes: the same rows in the same
    # order, and values that differ by the double rounding of the AGM and of
    # the Gamma(1/3)^3 closed forms, or by the double stencil's truncation on
    # the finite-difference row
    double = sf.closed_form_checks(PrecisionConfig(mode="double"))
    extended = sf.closed_form_checks(PrecisionConfig(mode="extended"))
    assert [r["name"] for r in double] == [r["name"] for r in extended]
    *rows, (ram_double, _) = zip(double, extended)
    for d, e in rows:
        tol = 5e-12 if d["name"] == "Fprime(-omega) finite difference" else 1e-14
        assert abs(d["computed"] - e["computed"]) <= tol * abs(e["computed"]), d["name"]
        assert (abs(d["closed_form"] - e["closed_form"])
                <= 1e-14 * abs(e["closed_form"])), d["name"]
    assert ram_double["name"] == "ramanujan x=sqrt3"
    assert ram_double["rel_err"] <= 1e-15


def test_closed_form_checks_evaluate_gamma_once_per_constant(monkeypatch):
    # the six closed forms share one Gamma(1/3) and one Gamma(2/3), both
    # from one gamma_array call
    calls = []
    gamma_array = sf._kernels.gamma_array

    def counting(z):
        calls.append(len(z))
        return gamma_array(z)

    monkeypatch.setattr(sf._kernels, "gamma_array", counting)
    sf.closed_form_checks(PrecisionConfig(mode="double"))
    assert calls == [2]


def _literal_closed_forms(pi, g3, g23):
    """The closed forms with every power of 2 and 3 written as the
    non-integer power it is, at mpmath's working precision, from the given
    pi, Gamma(1/3)^3 and Gamma(2/3)^3."""
    r, s3 = mp.mpf, mp.sqrt(3)
    e4 = mp.mpc(1, 1) / mp.sqrt(2)
    k_plus = 2 ** (-r(7) / 3) * 3 ** (r(3) / 4) * g3 / pi
    k_minus = 2 ** (-r(7) / 3) * 3 ** (r(1) / 4) * g3 / pi
    return [
        k_plus, k_minus,
        (2 ** (r(1) / 3) * 3 ** (-r(1) / 4) * pi * pi / g3
         + 2 ** (-r(10) / 3) * 3 ** (r(1) / 4) * (s3 - 1) / pi * g3),
        (2 ** (r(1) / 3) * 3 ** (-r(3) / 4) * pi * pi / g3
         + 2 ** (-r(10) / 3) * 3 ** (-r(1) / 4) * (s3 + 1) / pi * g3),
        (e4 * k_plus + mp.conj(e4) * k_minus) / pi,
        (g3 * 3 ** (-r(1) / 4) * 2 ** (-r(7) / 3) * (e4 - s3 * mp.conj(e4)) / (2 * pi * pi)
         + g23 * 3 ** (r(3) / 4) * 2 ** (-r(8) / 3) * (e4 + s3 * mp.conj(e4)) / (pi * pi)),
    ]


@pytest.mark.parametrize("mode, bound", [("extended", 1e-55), ("double", 4e-16)])
def test_closed_forms_match_their_literal_powers(mode, bound, monkeypatch):
    # the closed forms, written in integer powers of 2^(1/3) and 3^(1/4),
    # against the same identities with non-integer powers of 2 and 3 at 60
    # digits, from the same pi and Gamma cubes: in extended mode at 60
    # digits, and in double mode within the rounding of the double products
    monkeypatch.setattr(sf, "_EXTENDED_DPS", 60)
    with sf._arith(PrecisionConfig(mode=mode)) as ar:
        pi, _, g3, g23, *_ = consts = sf._consts(ar)
        got = [sf._k_closed(ar, consts, +1), sf._k_closed(ar, consts, -1),
               sf._e_closed(ar, consts, +1), sf._e_closed(ar, consts, -1),
               sf._f_closed(ar, consts), sf._f_prime_closed(ar, consts)]
    with mp.workdps(60):
        want = _literal_closed_forms(*map(mp.mpmathify, (pi, g3, g23)))
        for g, w in zip(got, want):
            assert abs(mp.mpmathify(g) - w) <= bound * abs(w), (g, w)


@pytest.mark.parametrize("mode, points", [("double", 7), ("extended", 5)])
def test_closed_form_checks_run_each_agm_once(monkeypatch, mode, points):
    # One AGM pass takes K and E at k_+ and k_- (the K and E rows and the
    # elliptic F' row), F(e^{i pi/3}) (its own row, the elliptic F' row and
    # the first Ramanujan value, at (1 + i sqrt3)/2 = e^{i pi/3}) and the
    # finite-difference stencil (4 points in double, 2 in extended).  The
    # other two Ramanujan arguments (1 +- sqrt3/2)/2 are k_+-^2, where F is
    # 2K/pi, so they run no AGM: `points` AGM values in all, in one call of
    # the agm entry of the arithmetic _arith yields, which is one _kernels
    # array call in double mode and one _extended.agm_fixed call per point
    # in extended
    passes, kernel_passes = [], []
    arith = sf._arith

    def counting(record, name, f):
        def run(*args):
            record.append((name, sum(len(a) for a in args)))
            return f(*args)
        return run

    @contextmanager
    def counting_arith(cfg):
        with arith(cfg) as ar:
            yield ar._replace(agm=counting(passes, "agm", ar.agm))

    monkeypatch.setattr(sf, "_arith", counting_arith)
    for name in ("hyp2f1_half_array", "ellipke_array", "ellipke_hyp2f1_half_array"):
        monkeypatch.setattr(sf._kernels, name,
                            counting(kernel_passes, name, getattr(sf._kernels, name)))
    agm_fixed = _extended.agm_fixed
    fixed_calls = []

    def counting_fixed(u, q):
        fixed_calls.append(u)
        return agm_fixed(u, q)

    monkeypatch.setattr(_extended, "agm_fixed", counting_fixed)
    sf.closed_form_checks(PrecisionConfig(mode=mode))
    assert passes == [("agm", points)]
    if mode == "double":
        assert kernel_passes == [("ellipke_hyp2f1_half_array", points)]
        assert fixed_calls == []
    else:
        assert kernel_passes == []
        assert len(fixed_calls) == points


def test_double_joint_agm_pass_refuses_an_overflowing_modulus():
    with sf._arith(PrecisionConfig(mode="double")) as ar:
        with pytest.raises(DomainError):
            ar.agm([2e154], [0.5])


def test_ramanujan_row_reads_f_at_the_squared_moduli():
    # (1 +- sqrt3/2)/2, the Ramanujan arguments at x = sqrt3 besides
    # e^{i pi/3}, are k_+-^2, where F = 2K/pi: the row's residual is the
    # one ramanujan_residual finds from its own AGM pass, to rounding
    for mode, tol in (("double", 1e-15), ("extended", 1e-39)):
        row = sf.closed_form_checks(PrecisionConfig(mode=mode))[-1]
        assert row["name"] == "ramanujan x=sqrt3"
        assert row["rel_err"] <= tol, (mode, row)
    assert sf.ramanujan_residual(math.sqrt(3.0)) <= 1e-14
    with mp.workdps(50):
        x = mp.sqrt(3)
        for sign in (1, -1):
            k = (mp.sqrt(6) + sign * mp.sqrt(2)) / 4
            node = (1 + sign * x / mp.sqrt(1 + x * x)) / 2
            assert abs(node - k * k) <= mp.mpf(10) ** -48


@pytest.mark.parametrize("mode", ["double", "extended"])
def test_closed_form_checks_form_the_moduli_and_minus_omega_once(monkeypatch, mode):
    # the AGM pass and the elliptic F' row share one (k_+, k_-), and the
    # AGM pass and the finite-difference stencil one e^{i pi/3}
    calls = []
    arith = sf._arith

    def counting(name, f):
        def run():
            calls.append(name)
            return f()
        return run

    @contextmanager
    def counting_arith(cfg):
        with arith(cfg) as ar:
            yield ar._replace(moduli=counting("moduli", ar.moduli),
                              minus_omega=counting("minus_omega", ar.minus_omega))

    monkeypatch.setattr(sf, "_arith", counting_arith)
    sf.closed_form_checks(PrecisionConfig(mode=mode))
    assert sorted(calls) == ["minus_omega", "moduli"]


def test_double_elliptic_moduli_past_the_double_range_are_refused():
    # k^2 overflows a double past |k| = 1.34e154: such a modulus is refused
    # without a warning, where the kernels would return pi/2 for K and a NaN
    # for E; inside, K and E agree with mpmath
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in (1e155j, 3e160 + 1e160j):
            for f in (sf.elliptic_K, sf.elliptic_E):
                with pytest.raises(DomainError, match="double range"):
                    f(k)
        k = 1e153j
        for f, oracle in ((sf.elliptic_K, _k_oracle), (sf.elliptic_E, _e_oracle)):
            with mp.workdps(30):
                want = complex(oracle(mp.mpc(k)))
            assert abs(f(k) - want) <= 1e-15 * abs(want), f.__name__


def test_ramanujan_node_on_the_branch_point_is_refused():
    # (1 + x/sqrt(1+x^2))/2 rounds to 1, the branch point of F, from about
    # x = 4.5e7: a BranchCutError, where it raised ConvergenceError and
    # returned inf at 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x in (6e7, 1e200):
            with pytest.raises(BranchCutError, match="branch point"):
                sf.ramanujan_residual(x)
        # below the threshold it answers
        assert math.isfinite(sf.ramanujan_residual(4e7))


def test_branch_cut_rejected():
    with pytest.raises(BranchCutError):
        sf.hyp2f1_half(1.5)
    with pytest.raises(BranchCutError):
        sf.elliptic_K(1.2)


@pytest.mark.parametrize("fn", [sf.gamma, sf.digamma, sf.hyp2f1_half,
                                sf.elliptic_K, sf.elliptic_E])
@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_argument_is_a_domain_error(z, fn):
    # rejected before any arithmetic: no numpy warning, no other exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            fn(z)


@pytest.mark.parametrize("z", [171.5, -170.5, -200.5, 1e6, -0.5 + 500j, 2000.5, -1e6 + 0.5,
                               1e300, 0.5 + 1e300j, 0.5 + 1e307j, -1e308 + 0.5j,
                               1e307 + 1e308j, 1e308 - 1.7e308j])
def test_gamma_at_the_edges_of_the_double_range(z):
    # the value where it is representable, 0 where it underflows, and a
    # DomainError where it overflows; never NaN, never a numpy warning.  At
    # 0.5 + 1e307j the phase of log Gamma overflows, and at -1e308 + 0.5j
    # pi Re z does: both are 0.  At 1e307 + 1e308j and 1e308 - 1.7e308j
    # the phase overflows where the modulus does: the kernel's value is inf
    # without a NaN part
    with mp.workdps(50):
        want = mp.gamma(mp.mpmathify(z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if abs(want) > np.finfo(float).max:
            (raw,) = _kernels.gamma_array(z)
            assert np.isinf(raw) and not np.isnan(raw), raw
            with pytest.raises(DomainError, match="double range"):
                sf.gamma(z)
            return
        got = sf.gamma(z)
    if abs(want) < np.finfo(float).tiny:
        assert got == 0
    else:
        assert abs(got - complex(want)) <= 1e-12 * abs(want)


def test_hyp_matches_oracle_off_axis():
    for z in (0.3 - 0.7j, -1.1 + 0.4j):
        with mp.workdps(50):
            want = complex(mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 1, complex(z)))
        assert abs(sf.hyp2f1_half(z) - want) < 1e-13


def test_precision_config_validation():
    with pytest.raises(DomainError):
        PrecisionConfig(mode="quad")
    with pytest.raises(DomainError):
        PrecisionConfig(target_rel_err=1.0)
    # a config without a mode is double precision; the working digits of
    # extended precision are no setting
    assert PrecisionConfig() == PrecisionConfig("double", 1e-13) == sf.default_config()
    # the constructions the benchmark makes
    assert PrecisionConfig(mode="extended") == ("extended", 1e-13)
    assert PrecisionConfig(mode="double", target_rel_err=1e-12) == ("double", 1e-12)
    with pytest.raises(TypeError):
        PrecisionConfig("extended", dps=40)


@pytest.mark.parametrize("kwargs, message", [
    ({"mode": "Double"}, "unknown precision mode"),
    ({"target_rel_err": 1e-16}, "target_rel_err"),
    ({"target_rel_err": 1e-5}, "target_rel_err"),
    ({"mode": "double", "target_rel_err": float("nan")}, "target_rel_err"),
    # values of the wrong type end in the same error
    ({"mode": ["double"]}, "unknown precision mode"),
    ({"mode": None}, "unknown precision mode"),
    ({"target_rel_err": "x"}, "target_rel_err"),
    ({"target_rel_err": None}, "target_rel_err"),
    ({"target_rel_err": "1e-12"}, "target_rel_err"),
])
def test_precision_config_rejects(kwargs, message):
    with pytest.raises(DomainError, match=message):
        PrecisionConfig(**kwargs)


def test_closed_form_checks_refuse_a_config_that_is_not_a_precision_config():
    # extended precision is reached only through a PrecisionConfig
    for config in ("extended", ("extended", 1e-13), {"mode": "extended"}):
        with pytest.raises(DomainError, match="PrecisionConfig"):
            sf.closed_form_checks(config)


@pytest.mark.parametrize("kwargs, message", [
    ({"mode": "bogus", "target_rel_err": 1.0}, "unknown precision mode"),
    ({"target_rel_err": 1.0}, "target_rel_err"),
])
def test_precision_config_replace_and_make_check_what_the_constructor_checks(kwargs, message):
    cfg = PrecisionConfig()
    with pytest.raises(DomainError, match=message):
        cfg._replace(**kwargs)
    with pytest.raises(DomainError, match=message):
        PrecisionConfig._make({**cfg._asdict(), **kwargs}.values())
    assert cfg._replace(mode="extended") == PrecisionConfig("extended")
