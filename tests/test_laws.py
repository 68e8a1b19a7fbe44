import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from criticalbranch import asymptotics as asy
from criticalbranch import kolmogorov as kol
from criticalbranch import laws, oracle, series
from criticalbranch import montecarlo as mc
from criticalbranch import (
    classify,
    make_finite_immigration,
    make_finite_offspring,
    make_perturbed_offspring,
    make_stable_immigration,
    make_stable_offspring,
)
from criticalbranch.laws import immigration_from_config, offspring_from_config


class TestStableOffspring:
    def test_binary_splitting_terminates(self):
        law = make_stable_offspring(1.0, 1.0)
        rates = law.rates_up_to(6)
        assert np.allclose(rates, [1.0, -2.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)
        assert law.value(0.25) == pytest.approx(0.75**2)

    def test_half_index_coefficients(self):
        # a2 = binom(1.5, 2), a3 = a2 * (2 - 1 - 0.5) / 3
        law = make_stable_offspring(0.5, 1.0)
        rates = law.rates_up_to(3)
        assert rates[2] == pytest.approx(0.375, abs=1e-15)
        assert rates[3] == pytest.approx(0.0625, abs=1e-15)

    def test_figure_preset_parameters(self):
        law = make_stable_offspring(0.2, 0.9)
        assert law.value(0.5) == pytest.approx(0.9 * 0.5**1.2)
        assert law.fprime_from_gap(0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            make_stable_offspring(0.0, 1.0)
        with pytest.raises(ValueError):
            make_stable_offspring(1.5, 1.0)
        with pytest.raises(ValueError):
            make_stable_offspring(0.5, -1.0)
        # non-finite parameters used to build a law whose first solve step underflowed
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"a0 must be in \(0, inf\)"):
                make_stable_offspring(0.5, bad)
            with pytest.raises(ValueError, match=r"rho must be in \[0, inf\)"):
                make_perturbed_offspring(0.5, 1.0, bad, 0.5)
        # an integer rate past the float range used to raise OverflowError from numpy
        with pytest.raises(ValueError, match="need finite rates with a_0 > 0 and a_1 < 0"):
            make_finite_offspring([1, -2, 10**400])

    def test_lifetime_and_normalization(self):
        law = make_stable_offspring(0.5, 1.0)
        lifetime_mean = 1.0 / -law.a1
        assert lifetime_mean == pytest.approx(1.0 / 1.5)
        rates = law.rates_up_to(100_000)
        partial = rates[0] + rates[2:].sum()
        assert lifetime_mean * partial == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("horizon", [1_000, 10_000])
    def test_rate_sum_tail_bound(self, horizon):
        law = make_stable_offspring(0.5, 1.0)
        rates = law.rates_up_to(horizon)
        tail = -law.a1 - rates[0] - rates[2:].sum()
        assert 0.0 < tail <= law.a0 * horizon**-0.5

    def test_stable_tail_constant(self):
        # a_j * j^(2+nu) approaches a0 / |gamma(-1-nu)|
        nu, a0 = 0.5, 1.0
        law = make_stable_offspring(nu, a0)
        rates = law.rates_up_to(10_000)
        j = np.array([100, 1_000, 10_000])
        scaled = rates[j] * j.astype(float) ** (2.0 + nu)
        limit = a0 / abs(math.gamma(-1.0 - nu))
        assert np.all(scaled > 0.0)
        assert scaled[-1] == pytest.approx(limit, rel=2e-2)
        assert scaled[0] == pytest.approx(scaled[-1], rel=5e-2)


class TestStableImmigration:
    def test_single_arrival(self):
        law = make_stable_immigration(1.0, 1.0)
        assert np.allclose(law.rates_up_to(3), [-1.0, 1.0, 0.0, 0.0], atol=1e-15)
        assert law.rates_up_to(3) @ np.arange(4) == pytest.approx(1.0)  # mean arrival rate h'(1)

    def test_heavy_tail_coefficient(self):
        law = make_stable_immigration(0.4, 0.1)
        assert law.rates_up_to(1)[1] == pytest.approx(0.04, abs=1e-15)

    def test_perturbed_positivity_scan_accepts(self):
        # 2*delta < 1 keeps both component series nonnegative
        law = make_stable_immigration(0.4, 0.1, kappa=0.25)
        rates = law.rates_up_to(10_000)
        assert np.all(rates[1:] >= 0.0)
        assert law.b0 == pytest.approx(-0.35)

    def test_perturbed_positivity_scan_rejects(self):
        # 2*delta > 1 flips signs in the second series for k >= 2; the scan's
        # bound scales with the law, so a power-of-two scale never changes acceptance
        for scale in (1.0, 2.0**-60):
            with pytest.raises(ValueError, match="index"):
                make_stable_immigration(0.9, 0.01 * scale, kappa=1.0 * scale)
            with pytest.raises(ValueError, match="offspring coefficient at index 3 is negative"):
                make_perturbed_offspring(0.5, scale, 5.0, 0.9)

    def test_negative_coefficient_message_prints_a_plain_float(self):
        with pytest.raises(ValueError) as err:
            make_perturbed_offspring(0.5, 1.0, 5.0, 0.9)
        assert str(err.value) == "offspring coefficient at index 3 is negative: -1.0574999999999997"

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            make_stable_immigration(0.0, 1.0)
        with pytest.raises(ValueError):
            make_stable_immigration(0.4, -0.1)
        with pytest.raises(ValueError):
            make_stable_immigration(0.4, 0.1, kappa=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"c must be in \(0, inf\)"):
                make_stable_immigration(0.4, bad)
            with pytest.raises(ValueError, match=r"kappa must be in \[0, inf\)"):
                make_stable_immigration(0.4, 0.1, kappa=bad)
        with pytest.raises(ValueError, match="need finite rates with b_0 < 0 and b_k >= 0"):
            make_finite_immigration([-(10**400), 10**400])


class TestFiniteLaws:
    def test_offspring_balance_required(self):
        with pytest.raises(ValueError):
            make_finite_offspring([1.0, -2.0, 0.5])

    def test_binary_critical_centered_form(self):
        for scale in (1.0, 2.0**-60):
            law = make_finite_offspring([scale, -2.0 * scale, scale])
            assert law.nu == 1.0
            assert law.from_gap(0.25) / scale == pytest.approx(0.25**2)  # dividing by a power of two is exact

    def test_small_rates_keep_their_terms(self):
        # an absolute cut at 1e-15 dropped every centered term of these laws,
        # so F stayed at s and b_0 read 0
        law = make_finite_offspring([1e-20, -2e-20, 1e-20])
        assert abs(kol.solve_gf(law, 1e20, 0.5).F - 2.0 / 3.0) <= 1e-8
        assert make_finite_immigration([-1e-16, 1e-16]).b0 == -1e-16

    def test_immigration_balance_required(self):
        with pytest.raises(ValueError):
            make_finite_immigration([-2.0, 1.0])

    @pytest.mark.parametrize("rates", [[1.0, math.nan, 1.0], [1.0, -2.0, math.inf], [math.nan, -2.0, 1.0]])
    def test_offspring_rates_must_be_finite(self, rates):
        # a NaN a_1 used to drop out of the centered terms and build the binary law
        with pytest.raises(ValueError, match="finite"):
            make_finite_offspring(rates)

    @pytest.mark.parametrize("rates", [[-math.inf, 1.0], [-1.0, math.nan], [-1.0, 1.0, math.inf]])
    def test_immigration_rates_must_be_finite(self, rates):
        with pytest.raises(ValueError, match="finite"):
            make_finite_immigration(rates)

    def test_single_arrival_mean(self):
        law = make_finite_immigration([-1.0, 1.0])
        assert law.slowly_varying().limit == pytest.approx(1.0)  # the constant h'(1)
        assert law.value(0.0) == pytest.approx(-1.0)

    def test_terms_are_python_floats(self):
        # numpy scalars would run every scalar solve of the law in numpy-scalar arithmetic
        for law in (make_finite_offspring([1.0, -2.0, 1.0]), make_finite_offspring([1.0, -1.65, 0.4, 0.15, 0.1]),
                    make_finite_immigration([-1.0, 1.0]), make_finite_immigration([-1.0, 0.5, 0.25, 0.25])):
            assert [(type(c), type(b)) for c, b in law.terms] == [(float, float)] * len(law.terms)


class TestClassify:
    # the sign of gamma = delta - nu sets the regime: transient below zero,
    # q-process at zero, positive recurrent above

    def test_transient_case(self):
        regime = classify(make_stable_offspring(0.5, 1.0), make_stable_immigration(0.4, 0.1))
        assert regime.gamma == pytest.approx(-0.1)
        assert regime.mu == pytest.approx(0.3)
        assert regime.gamma < 0.0 and regime.mu > 0.0  # the transient limit law applies

    def test_positive_recurrent_case(self):
        regime = classify(make_stable_offspring(0.2, 0.9), make_stable_immigration(0.9, 1.0))
        assert regime.gamma == pytest.approx(0.7)
        assert regime.gamma > 0.0

    def test_q_process_flag(self):
        regime = classify(make_stable_offspring(0.5, 1.0), make_stable_immigration(0.5, 1.0))
        assert regime.gamma == 0.0

    def test_pure_function(self):
        f_law = make_stable_offspring(0.5, 1.0)
        h_law = make_stable_immigration(0.4, 0.1)
        assert classify(f_law, h_law) == classify(f_law, h_law)


class TestPerturbedOffspring:
    def test_matches_component_sum(self):
        law = make_perturbed_offspring(0.5, 1.0, rho=0.3, p=0.5)
        r = 0.2
        assert law.from_gap(r) == pytest.approx(r**1.5 + 0.3 * r**2)
        assert law.slowly_varying().value(5.0) == pytest.approx(1.0 + 0.3 * 5.0**-0.5)

    def test_still_critical(self):
        law = make_perturbed_offspring(0.5, 1.0, rho=0.3, p=0.5)
        assert law.fprime_from_gap(0.0) == 0.0


class TestFromConfig:
    def test_builds_the_declared_law(self):
        fragment = {"kind": "perturbed", "nu": 0.5, "a0": 1.0, "rho": 0.3, "p": 0.5}
        assert offspring_from_config(fragment) == make_perturbed_offspring(0.5, 1.0, 0.3, 0.5)
        fragment = {"kind": "perturbed", "delta": 0.4, "c": 0.1, "kappa": 0.25}
        assert immigration_from_config(fragment) == make_stable_immigration(0.4, 0.1, 0.25)

    @pytest.mark.parametrize(
        "build,fragment,path",
        [
            (offspring_from_config, {"kind": "perturbed", "nu": 0.5, "a0": 1.0, "rho": 0.3}, "$.offspring.p"),
            (immigration_from_config, {"kind": "canonical", "delta": 0.4}, "$.immigration.c"),
            (immigration_from_config, {"kind": "stable", "delta": 0.4, "c": 0.1}, "$.immigration.kind"),
            (offspring_from_config, {"kind": "canonical", "nu": "0.5", "a0": 1.0}, "$.offspring.nu"),
            (offspring_from_config, [{"kind": "canonical", "nu": 0.5, "a0": 1.0}], "$.offspring"),
            (offspring_from_config, {"kind": "canonical", "nu": True, "a0": 1.0}, "$.offspring.nu"),
            (offspring_from_config, {"kind": "canonical", "nu": 0.5, "a0": 1.0, "rho": 0.3}, "$.offspring.rho"),
            (immigration_from_config, {"kind": "canonical", "delta": 0.4, "c": 0.1, "kappa": 0.25}, "$.immigration.kappa"),
            (offspring_from_config, {"kind": "finite", "rates": [1.0, math.nan, 1.0]}, "$.offspring.rates[1]"),
            (offspring_from_config, {"kind": "canonical", "nu": math.nan, "a0": 1.0}, "$.offspring.nu"),
            (offspring_from_config, {"kind": "canonical", "nu": 1.5, "a0": 1.0}, "$.offspring.nu"),
            (offspring_from_config, {"kind": "canonical", "nu": 0.5, "a0": 10**400}, "$.offspring.a0"),
            (offspring_from_config, {"kind": "finite", "rates": [1.0, -2.0, 2.0]}, "$.offspring"),
        ],
    )
    def test_errors_name_the_key(self, build, fragment, path):
        with pytest.raises(ValueError) as info:
            build(fragment)
        assert str(info.value).endswith(path)


@given(
    nu=st.floats(min_value=0.1, max_value=1.0),
    a0=st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=50)
def test_canonical_coefficients_nonnegative(nu, a0):
    law = make_stable_offspring(nu, a0)
    rates = law.rates_up_to(500)
    assert rates[0] == pytest.approx(a0)
    assert rates[1] < 0.0
    assert np.all(rates[2:] >= -1e-14)
    # generating function vanishes at 1 and stays positive below it
    assert law.from_gap(0.0) == 0.0
    assert law.value(0.9) > 0.0


# ---------------------------------------------------------------------------
# Library entry points check the same leaves as configs.

_HALF = make_stable_offspring(0.5, 1.0)
_IMM = make_stable_immigration(0.4, 0.1)


def _sim(**change):
    return mc.SimConfig(**dict(dict(offspring=_HALF, immigration=None, grid=(1.0,), replicas=10, seed=1), **change))


_GRID_LENGTH = f"at most {laws.MAX_GRID} entries"
# each call puts one argument outside its leaf: (call, argument name, the leaf's domain text)
_GUARDS = {
    "solve_gf(t=nan)": (lambda: kol.solve_gf(_HALF, math.nan, 0.5), "t", laws._PARAMS["t"].domain()),
    "solve_gf(s=1.5)": (lambda: kol.solve_gf(_HALF, 1.0, 1.5), "s", laws._PARAMS["s"].domain()),
    "solve_gf(tol=0)": (lambda: kol.solve_gf(_HALF, 1.0, 0.5, tol=0.0), "tol", laws._PARAMS["tol"].domain()),
    "closed_form_gf(t=-1)": (lambda: kol.closed_form_gf(0.5, 1.0, -1.0, 0.5), "t", laws._PARAMS["t"].domain()),
    "gf_derivative(s=-0.1)": (lambda: kol.gf_derivative(_HALF, 1.0, -0.1), "s", laws._PARAMS["s"].domain()),
    "immigration_gf(i=-1)": (lambda: kol.immigration_gf(_HALF, _IMM, -1, 1.0, 0.5), "i", laws._PARAMS["i"].domain()),
    "solve_gf_series(N=1025)": (lambda: kol.solve_gf_series(_HALF, 1.0, 1025), "order", laws._PARAMS["order"].domain()),
    "immigration_gf_series(i=-1)": (lambda: kol.immigration_gf_series(_HALF, _IMM, -1, 1.0, 8), "i",
                                    laws._PARAMS["i"].domain()),
    "uniformize(t=inf)": (lambda: oracle.uniformize(oracle.build_generator(_HALF, None, 4), math.inf), "t",
                          laws._PARAMS["t"].domain()),
    "build_generator(n_max=0)": (lambda: oracle.build_generator(_HALF, None, 0), "n_max", laws._PARAMS["n_max"].domain()),
    "SimConfig(replicas=0)": (lambda: _sim(replicas=0), "replicas", laws._PARAMS["replicas"].domain()),
    "SimConfig(cap=0)": (lambda: _sim(cap=0), "cap", laws._PARAMS["cap"].domain()),
    "SimConfig(start=-1)": (lambda: _sim(start=-1), "start", laws._PARAMS["start"].domain()),
    "SimConfig(grid=(-1.0,))": (lambda: _sim(grid=(-1.0,)), "grid", laws._PARAMS["grid"][0].domain()),
    "SimConfig(grid=101 times)": (lambda: _sim(grid=(1.0,) * (laws.MAX_GRID + 1)), "grid", _GRID_LENGTH),
    "survival_expansion(t=0)": (lambda: asy.survival_expansion(0.5, 1.0, lambda t: 1.0, 0.0), "t", laws._POSITIVE.domain()),
    "conditioned_gf(t=0)": (lambda: asy.conditioned_gf(_HALF, 0.0, 0.5), "t", laws._POSITIVE.domain()),
    # an integer argument takes integral numbers only, and seed is checked like start
    "solve_gf_series(N=8.5)": (lambda: kol.solve_gf_series(_HALF, 1.0, 8.5), "order", laws._PARAMS["order"].domain()),
    "immigration_gf(i=0.5)": (lambda: kol.immigration_gf(_HALF, _IMM, 0.5, 1.0, 0.3), "i", laws._PARAMS["i"].domain()),
    "build_generator(n_max=3.5)": (lambda: oracle.build_generator(_HALF, None, 3.5), "n_max",
                                   laws._PARAMS["n_max"].domain()),
    "SimConfig(replicas=2.5)": (lambda: _sim(replicas=2.5), "replicas", laws._PARAMS["replicas"].domain()),
    "SimConfig(cap=True)": (lambda: _sim(cap=True), "cap", laws._PARAMS["cap"].domain()),
    "SimConfig(start=1.5)": (lambda: _sim(start=1.5), "start", laws._PARAMS["start"].domain()),
    "SimConfig(seed=-1)": (lambda: _sim(seed=-1), "seed", laws._PARAMS["seed"].domain()),
    "SimConfig(seed=1.5)": (lambda: _sim(seed=1.5), "seed", laws._PARAMS["seed"].domain()),
    "SimConfig(grid=(True, '2'))": (lambda: _sim(grid=(True, "2")), "grid", laws._PARAMS["grid"][0].domain()),
    # an int past the float range is named, not printed: its repr raises beyond 4300 digits
    "solve_gf(t=10**5000)": (lambda: kol.solve_gf(_HALF, 10**5000, 0.5), "t", laws._PARAMS["t"].domain()),
    "SimConfig(replicas=10**5000)": (lambda: _sim(replicas=10**5000), "replicas", laws._PARAMS["replicas"].domain()),
    # a path started above the cap would count as uncapped until its first jump
    "SimConfig(start>cap)": (lambda: _sim(start=50, cap=10), "start", "not exceed cap=10"),
    # every leaf in its domain, but max(start, cap) * -a1 overflows: the branching share would be NaN
    "SimConfig(rate=inf)": (lambda: _sim(offspring=make_stable_offspring(0.5, 1e305), cap=10_000, start=np.int64(2000)),
                            "cap", "max(start, cap) * -a1 - b0 finite"),
    # 1.5e308 alone is finite: the immigration rate -b0 tips it over
    "SimConfig(rate=inf with -b0)": (lambda: _sim(offspring=make_stable_offspring(0.5, 1e308),
                                                  immigration=make_stable_immigration(0.4, 1e308), cap=1, start=0),
                                     "cap", "max(start, cap) * -a1 - b0 finite"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_library_guard_names_argument_and_leaf_domain(case):
    call, name, domain = _GUARDS[case]
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert message.startswith(f"{name} must ") and domain in message


def test_numpy_parameters_build_python_float_terms():
    # the terms feed every rate call of a solve, which numpy scalars would turn into numpy arithmetic
    f64 = np.float64
    built = [make_stable_offspring(f64(0.5), f64(1.0)), make_perturbed_offspring(f64(0.5), f64(1.0), f64(0.3), f64(0.5)),
             make_stable_immigration(f64(0.4), f64(0.1), f64(0.25))]
    plain = [make_stable_offspring(0.5, 1.0), make_perturbed_offspring(0.5, 1.0, 0.3, 0.5),
             make_stable_immigration(0.4, 0.1, 0.25)]
    for law, want in zip(built, plain):
        assert all(x.__class__ is float for term in law.terms for x in term)
        assert law.terms == want.terms
    assert kol.solve_gf(built[1], 1e3, 0.5) == kol.solve_gf(plain[1], 1e3, 0.5)


def test_library_guards_take_tuples_and_numpy_numbers():
    assert kol.solve_gf(_HALF, np.float64(1.0), np.float64(0.5), np.float64(1e-10)).F == kol.solve_gf(_HALF, 1.0, 0.5).F
    assert kol.solve_gf_series(_HALF, 1.0, np.int64(8)).F.coeffs.size == 9
    assert kol.immigration_gf(_HALF, _IMM, np.int64(2), 1.0, 0.5).P > 0.0
    cfg = _sim(grid=(np.float64(1.0), 2), replicas=np.int64(10), cap=np.int64(100), start=np.int64(1),
               seed=np.uint32(7))
    assert cfg.grid == (1.0, 2.0)


# ---------------------------------------------------------------------------
# The rates a solve builds over a law's terms, against the loops that defined
# them before: from 0, left to right, with the sign outside the sum.


def _loop_from_gap(terms, r):
    total = 0
    for c, b in terms:
        total += c * r ** b
    return total


def _loop_fprime_from_gap(terms, r):
    total = 0
    for c, b in terms:
        total += c * b * r ** (b - 1.0)
    return -total


def _bits(x):
    return struct.pack("<d", x)


# one, two, three and four centered terms: the written-out rates and the loop
_OFFSPRING_LAWS = {
    "canonical": make_stable_offspring(0.5, 1.0),
    "perturbed": make_perturbed_offspring(0.5, 1.0, 0.3, 0.5),
    "finite, one term": make_finite_offspring([1.0, -2.0, 1.0]),
    "finite, three terms": make_finite_offspring([1.0, -1.65, 0.4, 0.15, 0.1]),
    "finite, four terms": make_finite_offspring([1.0, -2.0, 0.5, 0.25, 0.25]),
}
_IMMIGRATION_LAWS = {
    "canonical": make_stable_immigration(0.4, 0.1),
    "perturbed": make_stable_immigration(0.4, 0.1, 0.25),
    "finite, one term": make_finite_immigration([-1.0, 1.0]),
    "finite, three terms": make_finite_immigration([-1.0, 0.5, 0.25, 0.25]),
}
_TINY_TO_ONE = st.floats(min_value=5e-324, max_value=1.0, allow_subnormal=True)


@given(law=st.sampled_from(sorted(_OFFSPRING_LAWS)), r=_TINY_TO_ONE)
@example(law="finite, three terms", r=5e-324)  # the negative cubic term underflows to -0.0
@settings(max_examples=200, deadline=None)
def test_offspring_rates_match_the_loops_bit_for_bit(law, r):
    f_law = _OFFSPRING_LAWS[law]
    loop = _loop_from_gap(f_law.terms, r)
    assert _bits(f_law.from_gap(r)) == _bits(loop)
    assert _bits(f_law.gap_rate(r)) == _bits(-loop)
    assert _bits(f_law.fprime_from_gap(r)) == _bits(_loop_fprime_from_gap(f_law.terms, r))


@given(law=st.sampled_from(sorted(_IMMIGRATION_LAWS)), r=_TINY_TO_ONE)
@settings(max_examples=200, deadline=None)
def test_immigration_rates_match_the_loop_bit_for_bit(law, r):
    h_law = _IMMIGRATION_LAWS[law]
    assert _bits(h_law.from_gap(r)) == _bits(_loop_from_gap(h_law.terms, r))


def test_from_gap_coeffs_matches_the_sum_from_zeros_bit_for_bit():
    # gaps with exact zero coefficients: a negative c times a +0.0 power
    # coefficient is -0.0, which the sum started from zeros turns into +0.0
    initial = np.zeros(41)
    initial[:2] = 1.0, -1.0
    even = np.zeros(90)  # two kernel blocks; the odd coefficients are zero
    even[::2] = 0.5 ** np.arange(45)
    negative_zeros = 0
    for law in (*_OFFSPRING_LAWS.values(), *_IMMIGRATION_LAWS.values()):
        for r in (initial, even):
            want = np.zeros_like(r)
            for c, b in law.terms:
                term = c * series._pow_coeffs(r, b)
                negative_zeros += np.count_nonzero((term == 0.0) & np.signbit(term))
                want += term
            assert law.from_gap_coeffs(r).tobytes() == want.tobytes()
    assert negative_zeros > 0


@given(
    terms=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1.0, 4.0)), min_size=1, max_size=4).map(tuple),
    r=_TINY_TO_ONE,
)
@example(terms=((-1.0, 2.0),), r=5e-324)  # a lone -0.0 term sums to +0.0
@example(terms=((-1.0, 2.0), (-3.0, 3.0)), r=1e-200)
@settings(max_examples=300, deadline=None)
def test_power_sums_match_the_loop_bit_for_bit(terms, r):
    loop = _loop_from_gap(terms, r)
    assert _bits(laws._power_sum(terms)(r)) == _bits(loop)
    assert _bits(laws._power_sum(terms, negate=True)(r)) == _bits(-loop)


def _int_zero_sum(terms, r, negate):
    """The bits of sum_m c_m r**b_m, left to right from the integer 0 and negated when ``negate``, or its error."""
    try:
        total = 0
        for c, b in terms:
            total = total + c * r ** b
    except OverflowError as exc:
        return f"OverflowError: {exc}"
    return _bits(-total if negate else total)


def _power_sum_outcome(terms, r, negate):
    try:
        return _bits(laws._power_sum(terms, negate=negate)(r))
    except OverflowError as exc:
        return f"OverflowError: {exc}"


@given(
    terms=st.lists(st.tuples(st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1e3, 1e3)), st.floats(0.5, 4.0)),
                   min_size=1, max_size=5).map(tuple),
    r=st.one_of(st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
                st.sampled_from([0.0, 5e-324, 1e-310, 1e200, 1e300])),
    negate=st.booleans(),
)
@example(terms=((-1.0, 2.0),), r=5e-324, negate=False)  # -1 * 0.0 is -0.0, which the sum makes +0.0
@example(terms=((-0.0, 1.5), (-0.0, 2.5)), r=0.5, negate=False)
@example(terms=((-0.0, 1.5), (-0.0, 2.0), (-0.0, 3.0)), r=0.5, negate=True)
@example(terms=((1.0, 1.5), (-2.0, 2.0), (3.0, 3.0)), r=1e-310, negate=False)  # a subnormal gap
@example(terms=((1.0, 2.0),), r=1e300, negate=True)  # r**2 overflows: OverflowError
@example(terms=((1.0, 1.0), (1.0, 2.0)), r=1e300, negate=False)
@example(terms=((1.0, 1.0), (1.0, 1.5), (1.0, 4.0)), r=1e200, negate=True)
@settings(max_examples=400, deadline=None)
def test_power_sum_closures_are_the_int_zero_sum(terms, r, negate):
    # the sum from 0.0 has the bits, and raises the OverflowError, of the sum from the integer 0
    # for one, two and more terms (written-out closures and the loop), with the sign folded in
    assert _power_sum_outcome(terms, r, negate) == _int_zero_sum(terms, r, negate)
