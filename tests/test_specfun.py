"""Special-function layer against independent mpmath oracles and the
closed Gamma(1/3)^3 forms."""

import math
import warnings
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest

from localp2 import _kernels, specfun as sf
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


def test_f_at_sixth_root():
    got = sf.f_minus_omega("agm")
    assert abs(got - ORACLE_F_SIXTH) < 1e-13
    closed = sf.f_minus_omega("closed_form")
    assert abs(closed - ORACLE_F_SIXTH) < 1e-13


def test_legendre_relation():
    # E(k)K(k') + E(k')K(k) - K(k)K(k') = pi/2 with k' the complement
    kk, ee = sf.elliptic_K(K_PLUS), sf.elliptic_E(K_PLUS)
    kkc, eec = sf.elliptic_K(K_MINUS), sf.elliptic_E(K_MINUS)
    lhs = ee * kkc + eec * kk - kk * kkc
    assert abs(lhs - math.pi / 2.0) < 1e-13


def test_f_prime_routes_agree():
    closed = sf.f_prime_minus_omega("closed_form")
    elli = sf.f_prime_minus_omega("elliptic")
    fd = sf.f_prime_minus_omega("finite_difference")
    assert abs(closed - elli) < 1e-12
    assert abs(closed - fd) < 5e-11
    with mp.workdps(50):
        oracle = complex(mp.diff(
            lambda t: mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 1, t),
            mp.exp(mp.mpc(0, mp.pi) / 3)))
    assert abs(closed - oracle) < 1e-12


def test_ramanujan_residual_grid():
    worst = max(sf.ramanujan_residual(x) for x in np.linspace(0.0, 5.0, 50))
    assert worst <= 1e-11
    assert sf.ramanujan_residual(math.sqrt(3.0)) <= 1e-13


def test_ramanujan_rejects_negative():
    with pytest.raises(DomainError):
        sf.ramanujan_residual(-0.5)


def test_extended_mode():
    cfg = PrecisionConfig(mode="extended", dps=40)
    rows = sf.closed_form_checks(cfg)
    assert max(r["rel_err"] for r in rows) <= 1e-20


def _off_cut(w: complex) -> bool:
    """w lies at least 0.05 away from the cut [1, oo)."""
    return abs(w.imag if w.real >= 1.0 else w - 1.0) >= 0.05


def test_extended_agm_functions_match_double_off_the_cuts():
    # mpmath's agm, ellipk and ellipe land on the branch of the kernels'
    # optimal AGM: 100 seeded complex points with z and z^2 off [1, oo)
    rng = np.random.default_rng(1729)
    zs = [z for z in (complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(400))
          if _off_cut(z) and _off_cut(z * z)][:100]
    assert len(zs) == 100
    double, extended = PrecisionConfig(mode="double"), PrecisionConfig(mode="extended")
    for f in (sf.elliptic_K, sf.elliptic_E, sf.hyp2f1_half):
        for z in zs:
            want = complex(f(z, extended))
            assert abs(f(z, double) - want) <= 1e-14 * abs(want), (f.__name__, z)


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
def test_extended_agm_functions_match_mpmath(dps):
    # the fixed-point AGM against mpmath's agm, ellipk and ellipe at seeded
    # points: |z| from 1e-30 to 1e30 at every phase off the cut, the
    # negative real axis, the imaginary axis, and k from 1e-30 to 1 in size
    rng = np.random.default_rng(dps)
    cfg = PrecisionConfig(mode="extended", dps=dps)
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
    for z in zs:
        with mp.workdps(dps):
            x = mp.mpmathify(z)
        assert _rel_err(sf.hyp2f1_half(x, cfg), _oracle(dps, _agm_oracle, x)) <= bound, z
    for k in ks:
        with mp.workdps(dps):
            x = mp.mpmathify(k)
        assert _rel_err(sf.elliptic_K(x, cfg), _oracle(dps, _k_oracle, x)) <= bound, k
        assert _rel_err(sf.elliptic_E(x, cfg), _oracle(dps, _e_oracle, x)) <= bound, k


@pytest.mark.parametrize("dps", [30, 40, 80])
def test_extended_agm_keeps_relative_precision_next_to_one(dps):
    # z off the cut and k within 1e-10 to 10^(2 - dps) of 1, where
    # sqrt(1 - z) and sqrt(1 - k^2) are tiny; the public functions refuse
    # these points as on the cut, so they go to the arithmetic they call.
    # The oracles square the exact k: k^2 rounded to dps digits would move
    # 1 - k^2 by up to 10^(r - dps) of itself
    rng = np.random.default_rng(100 + dps)
    cfg = PrecisionConfig(mode="extended", dps=dps)
    bound = 10.0 ** (3 - dps)
    size = rng.uniform(10.0, dps - 2.0, 20)
    with sf._arith(cfg) as ar:
        zs = [1 + mp.mpf(10) ** -r * mp.expj(t) for r, t in
              zip(size[:10], rng.uniform(0.01, 2.0 * math.pi - 0.01, 10))]
        ks = [1 - mp.mpf(10) ** -r for r in size[10:15]]
        ks += [1 + mp.mpf(10) ** -r * mp.expj(t) for r, t in
               zip(size[15:], rng.uniform(-math.pi, math.pi, 5))]
        hyp, ke = ar.hyp(zs), ar.ellipke(ks)
    for z, got in zip(zs, hyp):
        assert _rel_err(got, _oracle(dps, _agm_oracle, z)) <= bound, z
    for k, (kk, ee) in zip(ks, ke):
        assert _rel_err(kk, _oracle(dps, _k_oracle, k)) <= bound, k
        assert _rel_err(ee, _oracle(dps, _e_oracle, k)) <= bound, k


@pytest.mark.parametrize("dps", [30, 80])
def test_closed_form_checks_follow_the_working_digits(dps):
    # every AGM row (all but the finite difference, whose step is tied to
    # dps) meets its closed form to within 10^(5 - dps)
    rows = sf.closed_form_checks(PrecisionConfig(mode="extended", dps=dps))
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
    # the six closed forms share one Gamma(1/3) and one Gamma(2/3)
    calls = []
    gamma_array = sf._kernels.gamma_array

    def counting(z):
        calls.append(z)
        return gamma_array(z)

    monkeypatch.setattr(sf._kernels, "gamma_array", counting)
    sf.closed_form_checks(PrecisionConfig(mode="double"))
    assert len(calls) == 2


@pytest.mark.parametrize("mode, points", [("double", 9), ("extended", 7)])
def test_closed_form_checks_run_each_agm_once(monkeypatch, mode, points):
    # One ellipke pass at k_+ and k_- serves the K and E rows and the
    # elliptic F' row.  One hyp pass takes F(e^{i pi/3}) (its own row, the
    # elliptic F' row and the first Ramanujan value, at (1 + i sqrt3)/2 =
    # e^{i pi/3}), the finite-difference stencil (4 points in double, 2 in
    # extended) and the other two Ramanujan arguments: `points` AGM values in
    # all, counted per call of the hyp and ellipke entries of the arithmetic
    # _arith yields, and in double mode per call of the _kernels AGM arrays
    passes, kernel_passes = [], []
    arith = sf._arith

    def counting(record, name, f):
        def run(zs):
            record.append((name, len(zs)))
            return f(zs)
        return run

    @contextmanager
    def counting_arith(cfg):
        with arith(cfg) as ar:
            yield ar._replace(hyp=counting(passes, "hyp", ar.hyp),
                              ellipke=counting(passes, "ellipke", ar.ellipke))

    monkeypatch.setattr(sf, "_arith", counting_arith)
    for name in ("hyp2f1_half_array", "ellipke_array"):
        monkeypatch.setattr(sf._kernels, name,
                            counting(kernel_passes, name, getattr(sf._kernels, name)))
    sf.closed_form_checks(PrecisionConfig(mode=mode))
    assert sorted(passes) == [("ellipke", 2), ("hyp", points - 2)]
    if mode == "double":
        assert sorted(kernel_passes) == [("ellipke_array", 2),
                                         ("hyp2f1_half_array", points - 2)]
    else:
        assert kernel_passes == []


def test_elliptic_f_prime_route_matches_its_row():
    # the public elliptic route computes its AGM inputs itself and lands on
    # the value of the closed_form_checks row bit for bit
    for mode in ("double", "extended"):
        cfg = PrecisionConfig(mode=mode)
        row = next(r for r in sf.closed_form_checks(cfg)
                   if r["name"] == "Fprime(-omega) elliptic")
        assert complex(sf.f_prime_minus_omega("elliptic", cfg)) == row["computed"]


def test_branch_cut_rejected():
    with pytest.raises(BranchCutError):
        sf.hyp2f1_half(1.5)
    with pytest.raises(BranchCutError):
        sf.elliptic_K(1.2)


@pytest.mark.parametrize("mode", ["double", "extended"])
@pytest.mark.parametrize("fn", [sf.gamma, sf.digamma, sf.hyp2f1_half,
                                sf.elliptic_K, sf.elliptic_E])
@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_argument_is_a_domain_error(z, fn, mode):
    # rejected before any arithmetic: no numpy warning, no other exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            fn(z, PrecisionConfig(mode=mode))


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
        PrecisionConfig(mode="extended", dps=10)
    with pytest.raises(DomainError):
        PrecisionConfig(target_rel_err=1.0)


def test_unknown_precision_mode_in_environment_is_rejected(monkeypatch):
    # the same value the command line rejects
    monkeypatch.setenv("LOCALP2_PRECISION", "bogus")
    with pytest.raises(DomainError, match="bogus"):
        PrecisionConfig()
    with pytest.raises(DomainError):
        sf.default_config()
    monkeypatch.setenv("LOCALP2_PRECISION", "extended")
    assert PrecisionConfig().mode == "extended"
