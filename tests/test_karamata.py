import numpy as np
import pytest

from criticalbranch import karamata as km


def shipped_forms():
    # second entry: slack allowed for the slowly-variation probe; the ids keep
    # the numbering the cases had when the log and table forms sat between them
    return [
        pytest.param(km.constant(0.9), 1e-3, id="L0-0.001"),
        pytest.param(km.power_corrected(1.0, 1.0, 0.5), 1e-3, id="L2-0.001"),
    ]


@pytest.mark.parametrize("L,tol", shipped_forms())
@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_slow_variation_at_declared_forms(L, tol, lam):
    x = 1e6
    assert L.value(lam * x) / L.value(x) == pytest.approx(1.0, abs=tol)


@pytest.mark.parametrize("L,_tol", shipped_forms())
def test_tail_functional_increasing_near_zero(L, _tol):
    y = np.logspace(-8, -1, 60)
    lam = np.array([v**0.5 * L(1.0 / v) for v in y])  # Lambda(y) = y^nu L(1/y)
    assert np.all(np.diff(lam) > 0.0)


def remainder_probe(L, nu, x):
    """x^nu (L(2x)/L(x) - 1), the scaled second-order remainder of L at x."""
    return x**nu * (L.value(2.0 * x) / L.value(x) - 1.0)


def power_elasticity(L, x):
    """x L'(x) / L(x) of the power form c(1 + rho/x^p), in closed form."""
    u = L.rho * x ** (-L.p)
    return -L.p * u / (1.0 + u)


class TestRemainderLimit:
    def test_constant_is_zero(self):
        L = km.constant(0.9)
        assert all(remainder_probe(L, 0.5, x) == 0.0 for x in (1e4, 1e6, 1e8))

    def test_power_form_matches_direct_substitution(self):
        # with p = nu the probe is rho (2^-nu - 1) / (1 + rho x^-nu)
        nu, rho = 0.5, 1.3
        L = km.power_corrected(2.0, rho, nu)
        limit = rho * (2.0**-nu - 1.0)
        probes = [remainder_probe(L, nu, x) for x in (1e4, 1e6, 1e8)]
        assert probes[-1] == pytest.approx(limit, rel=1e-3)
        assert abs(probes[2] - limit) < abs(probes[1] - limit) < abs(probes[0] - limit)

    def test_slow_power_remainder_diverges(self):
        # p = 0.2 < nu = 0.5: the probe grows like x^(nu - p), over 10% a decade
        L = km.power_corrected(1.0, 1.0, 0.2)
        r = [abs(remainder_probe(L, 0.5, x)) for x in (1e4, 1e5, 1e6, 1e7)]
        assert all(b > 1.1 * a for a, b in zip(r, r[1:]))


class TestRatioOf:
    def test_constant_pair(self):
        ratio = km.ratio_of(km.constant(1.0), km.constant(0.1))
        assert ratio.C_L == pytest.approx(0.1)
        assert ratio(123.0) == pytest.approx(0.1)

    def test_canonical_pair_limit(self):
        from criticalbranch import make_stable_immigration, make_stable_offspring

        f_law = make_stable_offspring(0.5, 1.0)
        h_law = make_stable_immigration(0.4, 0.1)
        ratio = km.ratio_of(f_law.slowly_varying(), h_law.slowly_varying())
        assert ratio.C_L == pytest.approx(0.1, abs=1e-12)

    def test_perturbed_ratio_decay_slope(self):
        # l(u) = 0.1 (1 + 1/(delta u^delta)): |C_L - L(t)| should decay like
        # t^(-delta); the approach is from above, which gets recorded
        delta = 0.4
        ell = km.power_corrected(0.1, 1.0 / delta, delta)
        ratio = km.ratio_of(km.constant(1.0), ell)
        assert ratio.C_L == pytest.approx(0.1)
        t = np.logspace(2, 6, 9)
        gap = np.array([ratio.C_L - ratio(v) for v in t])
        assert np.all(gap < 0.0)  # observed sign: ratio above its limit
        slope = np.polyfit(np.log(t), np.log(np.abs(gap)), 1)[0]
        assert slope == pytest.approx(-delta, abs=0.05)


class TestShiftResiduals:
    # residual of L(1/phi) = L(1/y) (1 + K(y) w(1/y)) for phi = y - y K(y),
    # with w the elasticity x L'(x)/L(x) of the form

    def test_constant_form_is_exact(self):
        L = km.constant(1.0)
        for y in (1e-2, 1e-3, 1e-4):
            phi = y - y * y
            assert L.value(1.0 / phi) - L.value(1.0 / y) == 0.0

    def test_power_form_second_order_bound(self):
        nu, y = 0.5, 1e-3
        L = km.power_corrected(1.0, 1.0, nu)
        phi = y - y * y
        resid = L.value(1.0 / phi) - L.value(1.0 / y) * (1.0 + y * power_elasticity(L, 1.0 / y))
        bound = abs(5.0 * 1e-3 * power_elasticity(L, 1e3))
        assert abs(resid) <= bound


class TestLimitGapReport:
    # scaled gap (limit - L(t)) * p * t^p / limit at the probe times

    PROBES = (1e3, 1e4, 1e5, 1e6)

    def test_calibrated_power_form_is_exactly_one(self):
        # L(x) = lam (1 - 1/(nu x^nu)) makes the scaled gap identically 1
        nu, lam = 0.5, 2.0
        L = km.power_corrected(lam, -1.0 / nu, nu)
        values = [(L.limit - L.value(t)) * nu * t**nu / L.limit for t in self.PROBES]
        assert np.allclose(values, 1.0, atol=1e-9)

    def test_constant_is_inapplicable(self):
        # a constant factor has no gap to calibrate: it is zero at every probe
        L = km.constant(1.0)
        assert all(L.limit - L.value(t) == 0.0 for t in self.PROBES)


def test_from_config_round_trip():
    from criticalbranch.laws import offspring_from_config

    law = offspring_from_config({"kind": "perturbed", "nu": 0.5, "a0": 1.0, "rho": 1.0, "p": 0.5})
    L = law.slowly_varying()
    assert L == km.power_corrected(1.0, 1.0, 0.5)
    assert L.value(4.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        offspring_from_config({"kind": "sinusoid"})
