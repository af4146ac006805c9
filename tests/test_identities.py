"""The identity registry: dual-route verification at population level,
machine-precision checks for the exact sample identities, and residual
shrinkage for the asymptotic ones."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdinfo import (
    ASYMPTOTIC_SAMPLE_TOL,
    DEFAULT_CONFIG,
    EXACT_SAMPLE_TOL,
    POPULATION_TOL,
    BadParameterError,
    Exponential,
    Identity,
    MeasureSpec,
    NoConvergenceError,
    NonFiniteError,
    NotApplicableError,
    Pareto,
    PhiSelector,
    PwmIndex,
    QuadratureConfig,
    REGISTRY,
    Uniform,
    Weibull,
    make_sample,
    measure_population,
    parse_weight,
    pwm_population,
    verify,
    verify_all,
)
from gmdinfo import population
from gmdinfo.identities import (
    _i13_u_sides,
    _i13_x_sides,
    _mx,
    _pick_t,
    _premia_direct,
    _range_moment_direct,
    _route_pairs,
)
from gmdinfo.population import (
    gce_population,
    ge_population,
    gmd_left_population,
    gmd_right_population,
    j_dyn_population,
    mean_residual_life,
)
from oracles import brute_pick_t

BY_ID = {identity.id: identity for identity in REGISTRY}
BELOW_EPS = QuadratureConfig(tol=1e-17)  # no integral is certified this tightly in doubles

# models beyond the ones the population acceptance sweep already covers
EXTRA_MODELS = [Uniform(0.5, 2.0), Weibull(1.5, 1.0), Pareto(4.0, 2.0),
                Exponential(1e5), Exponential(1e6), Exponential(1e-9), Exponential(1e-6),
                Weibull(1.5, 1e-4), Weibull(5.0, 1e-6), Pareto(3.0, 1e-5)]

EXACT_IDS = [i.id for i in REGISTRY if i.exactness == "exact-sample"]
ASYMPTOTIC_IDS = [i.id for i in REGISTRY if i.exactness == "asymptotic"]


class TestRegistry:
    def test_has_fourteen_entries_in_order(self):
        assert [i.id for i in REGISTRY] == [f"I{k}" for k in range(1, 15)]

    def test_metadata_is_complete(self):
        for identity in REGISTRY:
            assert identity.description
            assert identity.level in ("population", "sample", "both")
            assert identity.exactness in ("exact-sample", "asymptotic", "population-only")
        # I4 included: crj = -a_1 and cj = -b_1 are both unbiased PWM estimators
        assert EXACT_IDS == ["I1", "I3", "I4", "I5", "I6", "I9"]

    def test_only_the_transform_identity_lacks_a_sample_form(self):
        no_sample = [i.id for i in REGISTRY if i.sample_sides is None]
        assert no_sample == ["I13"]
        assert BY_ID["I13"].level == "population"

    def test_readme_identity_table_lists_the_registry(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Identities\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1].strip() for line in section.splitlines()
                if re.match(r"\| I\d+ \|", line)]
        assert rows == [identity.id for identity in REGISTRY]


class TestPopulationLevel:
    @pytest.mark.parametrize("model", EXTRA_MODELS, ids=lambda m: m.describe())
    def test_all_identities_pass(self, model):
        reports = verify_all(model)
        assert len(reports) == 14
        failed = [r.identity for r in reports if not r.passed]
        assert failed == [], f"residuals: {[(r.identity, r.abs_residual) for r in reports if not r.passed]}"

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_all_identities_pass_across_the_parameter_space(self, data):
        """Every family, its scale log-uniform in [1e-6, 1e6], at the default tolerance."""
        family = data.draw(st.sampled_from(["uniform", "exponential", "weibull", "pareto"]))
        c = 10.0 ** data.draw(st.floats(-6.0, 6.0))
        if family == "uniform":
            a = c * data.draw(st.floats(0.0, 2.0))
            model = Uniform(a, a + c * data.draw(st.floats(0.01, 3.0)))
        elif family == "exponential":
            model = Exponential(c)
        elif family == "weibull":
            model = Weibull(data.draw(st.floats(0.3, 5.0)), c)
        else:
            model = Pareto(data.draw(st.floats(2.01, 6.0)), c)
        reports = verify_all(model)
        assert len(reports) == 14
        failed = [(r.identity, r.rel_residual) for r in reports if not r.passed]
        assert failed == [], model.describe()

    @pytest.mark.parametrize("shape", [2.05, 2.2, 2.5])
    def test_heavy_tails(self, shape):
        # I10 and I11 integrate F - F^a and F^a - F^b, formed without cancelling in the tail
        for identity in REGISTRY:
            assert verify(identity, Pareto(shape)).passed, identity.id

    def test_report_fields(self):
        report = verify(BY_ID["I1"], Uniform(0.0, 1.0))
        assert report.identity == "I1"
        assert report.level == "population"
        assert report.source == "uniform(a=0, b=1)"
        assert report.tolerance == POPULATION_TOL
        assert report.lhs == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert report.rhs == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert report.abs_residual == abs(report.lhs - report.rhs)
        assert report.passed

    def test_residuals_are_tiny_not_just_under_gate(self):
        for report in verify_all(Exponential(1.0)):
            assert report.abs_residual < 1e-6, report.identity


class TestFailuresNameTheMeasure:
    """A population side's failure names the identity, the measure, its parameters,
    the model and the route, ahead of the quadrature's own message."""

    def test_truncated_gmd_side(self):
        # a request below double precision fails on every model; I5's quantile side runs first
        with pytest.raises(NoConvergenceError, match=r"^I5: gmd_left\(t=[0-9.]+\) on "
                           r"exponential\(mean=1\), quantile route: quadrature on "):
            verify(BY_ID["I5"], Exponential(1.0), cfg=BELOW_EPS)

    def test_generalized_entropy_side(self):
        with pytest.raises(NoConvergenceError, match=r"^I7: ge\(w=Fbar\^1, phi=2\*x\^1\) on "
                           r"weibull\(shape=0.3, scale=1\), quantile route: quadrature on "):
            verify(BY_ID["I7"], Weibull(0.3, 1.0), cfg=BELOW_EPS)


#: the specs of each identity whose population sides come from _route_pairs
ROUTE_PAIR_SPECS = {
    "I1": [MeasureSpec("gmd")],
    "I9": [MeasureSpec(mid) for mid in ("crj", "cj", "crjw", "wce")],
    "I10": [MeasureSpec(mid, alpha=a) for a in (2.0, 3.0, 2.5)
            for mid in ("crt", "ct", "wcrt", "wct")],
    "I11": [MeasureSpec(mid, alpha=a, beta=b) for a, b in ((1.0, 2.0), (2.0, 3.0), (1.5, 2.5))
            for mid in ("sr", "sp", "srw", "spw")],
    "I12": [MeasureSpec("s_gini", v=v) for v in (2.0, 3.0, 2.5)],
}


def _per_spec_sides(model, specs, cfg=DEFAULT_CONFIG):
    return [(measure_population(model, spec, cfg, route="direct"),
             measure_population(model, spec, cfg, route="quantile")) for spec in specs]


class TestSharedMoments:
    """The quantile sides of one identity integrate each distinct PWM once per call,
    and return exactly what measure_population returns spec by spec."""

    @pytest.fixture
    def pwm_integrals(self, monkeypatch):
        """The quantile integrals run: the measures of I10-I12 have PWM forms only."""
        calls, integrate = [], population._QDomain.__call__

        def counting(self, *args, **kwargs):
            calls.append(kwargs)
            return integrate(self, *args, **kwargs)

        monkeypatch.setattr(population._QDomain, "__call__", counting)
        return calls

    @pytest.mark.parametrize("iid, distinct, per_spec", [("I10", 14, 24), ("I11", 18, 24),
                                                         ("I12", 4, 6)])
    def test_each_distinct_moment_is_integrated_once(self, pwm_integrals, iid, distinct,
                                                     per_spec):
        model = Exponential(1.0)
        assert verify(BY_ID[iid], model).passed
        assert len(pwm_integrals) == distinct
        pwm_integrals.clear()
        for spec in ROUTE_PAIR_SPECS[iid]:
            measure_population(model, spec, route="quantile")
        assert len(pwm_integrals) == per_spec

    @pytest.mark.parametrize("iid", ROUTE_PAIR_SPECS)
    @pytest.mark.parametrize("model", [Uniform(0.5, 2.0), Weibull(0.7, 2.0), Pareto(4.0, 2.0)],
                             ids=lambda m: m.describe())
    def test_sides_equal_measure_population_per_spec(self, iid, model):
        want = _per_spec_sides(model, ROUTE_PAIR_SPECS[iid])
        assert _route_pairs(*ROUTE_PAIR_SPECS[iid])(model, DEFAULT_CONFIG) == want
        assert BY_ID[iid].population_sides(model, DEFAULT_CONFIG) == want

    @pytest.mark.parametrize("iid, model, cfg", [("I10", Pareto(2.2), BELOW_EPS),
                                                 ("I11", Pareto(2.2), BELOW_EPS),
                                                 ("I10", Weibull(0.3), BELOW_EPS)],
                             ids=["I10-pareto2.2", "I11-pareto2.2", "I10-weibull0.3"])
    def test_error_names_the_first_spec_that_fails(self, iid, model, cfg):
        with pytest.raises(NoConvergenceError) as per_spec:
            _per_spec_sides(model, ROUTE_PAIR_SPECS[iid], cfg)
        with pytest.raises(NoConvergenceError) as shared:
            verify(BY_ID[iid], model, cfg=cfg)
        assert str(shared.value) == f"{iid}: {per_spec.value}"

    def test_verify_all_raises_the_first_non_convergence(self):
        with pytest.raises(NoConvergenceError, match=r"^I1: gmd\(\) on pareto\(shape=2.2, scale=1\), "
                           r"direct route: quadrature on "):
            verify_all(Pareto(2.2), BELOW_EPS)


class TestRelativeGate:
    """The gate is max(tol * max(|lhs|, |rhs|), floor), with the floor in the source's
    units: tol times a model's mean, or EXACT_SAMPLE_TOL times a sample's largest value."""

    def test_tiny_scale_no_longer_passes_on_an_absolute_floor(self):
        report = verify(BY_ID["I1"], Exponential(1e-9), tolerance=1e-16)
        assert report.abs_residual < report.tolerance  # under the old absolute floor of tol
        assert not report.passed

    def test_large_scale_flat_sample_passes_at_rounding(self):
        # residuals of a few 1e-12 here went over the old absolute floor of 1e-12
        flat = make_sample([12345.678] * 10)
        for identity_id in ("I1", "I3"):
            assert verify(BY_ID[identity_id], flat).passed, identity_id

    def test_asymptotic_sample_gate_stays_relative_on_a_heavy_tail(self):
        # rounded Pareto(1.2) draws with half zeros: the tie gap in I8 is above
        # tol * max(|lhs|, |rhs|) but far below tol * max(x), which is no floor here
        sample = make_sample(np.repeat([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0, 12.0],
                                       [46, 21, 19, 7, 3, 1, 1, 1, 1]))
        report = verify(BY_ID["I8"], sample)
        denom = max(abs(report.lhs), abs(report.rhs))
        assert report.tolerance * denom < report.abs_residual < report.tolerance * sample.values[-1]
        assert not report.passed

    def test_model_mean_that_overflows_is_named(self):
        with pytest.raises(NonFiniteError, match=r"^I1: the mean of weibull\(shape=0.005, "):
            verify(BY_ID["I1"], Weibull(0.005, 1.0))


class TestTransformIdentity:
    """I13 as two pure dual-route pairs: int S^2 log S dx against
    int (1-u)(1 + 2 log(1-u)) Q du, and -int F^2 log F dx against
    int u (1 + 2 log u) Q du."""

    # (min pair, max pair), each (x side, quantile side), as the nested
    # form (conditional-mean integrals inside transform averages, inner
    # quadratures at 100x tighter tolerance) computed them
    NESTED = {
        "uniform(a=0, b=1)": ((-0.11111111111111115, -0.1111111111111111),
                              (0.11111111111111115, 0.11111111111111113)),
        "exponential(mean=0.5)": ((-0.12499999999999999, -0.12499999999999983),
                                  (0.1974670334241206, 0.1974670334241128)),
        "exponential(mean=1)": ((-0.24999999999999997, -0.24999999999999975),
                                (0.3949340668482412, 0.3949340668482256)),
        "exponential(mean=2)": ((-0.49999999999999994, -0.4999999999999992),
                                (0.7898681336964825, 0.7898681336964511)),
        "weibull(shape=0.5, scale=1)": ((-0.5000000000000003, -0.4999999999998108),
                                        (1.338916006863097, 1.3389160068637085)),
        "weibull(shape=1, scale=1)": ((-0.24999999999999997, -0.24999999999999975),
                                      (0.3949340668482412, 0.3949340668482256)),
        "weibull(shape=2, scale=1)": ((-0.15666426716445425, -0.15666426716431137),
                                      (0.18243272714598935, 0.18243272714552586)),
        "pareto(shape=3, scale=1)": ((-0.12000000000000016, -0.11999999999998986),
                                     (0.25383375159303634, 0.25383375159307553)),
        "weibull(shape=1.5, scale=1)": ((-0.18956463288039022, -0.1895646328804661),
                                        (0.24572847463648867, 0.24572847464130512)),
        "pareto(shape=4, scale=2)": ((-0.16326530612244902, -0.16326530612244475),
                                     (0.3165967546606656, 0.31659675466067294)),
    }
    MODELS = [Uniform(0.0, 1.0), Exponential(0.5), Exponential(1.0), Exponential(2.0),
              Weibull(0.5, 1.0), Weibull(1.0, 1.0), Weibull(2.0, 1.0), Pareto(3.0, 1.0),
              Weibull(1.5, 1.0), Pareto(4.0, 2.0)]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
    def test_single_integrals_reproduce_the_nested_values(self, model):
        pairs = zip(_i13_x_sides(model, DEFAULT_CONFIG), _i13_u_sides(model, DEFAULT_CONFIG))
        for got, want in zip(pairs, self.NESTED[model.describe()]):
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)
        assert verify(BY_ID["I13"], model).passed

    def test_sides_touch_disjoint_model_surfaces(self):
        plain = Weibull(1.5, 1.0)
        assert _i13_x_sides(NoQuantile(1.5, 1.0), DEFAULT_CONFIG) == \
            _i13_x_sides(plain, DEFAULT_CONFIG)
        assert _i13_u_sides(NoDistribution(1.5, 1.0), DEFAULT_CONFIG) == \
            _i13_u_sides(plain, DEFAULT_CONFIG)

    @pytest.mark.parametrize("shape", [2.2, 2.01])
    def test_heavy_tail_max_transform_does_not_cancel(self, shape):
        # -F^2 log F is taken as F^2 log1p(S/F), so a request near double precision converges
        report = verify(BY_ID["I13"], Pareto(shape, 1.0), QuadratureConfig(tol=1e-14),
                        tolerance=1e-14)
        assert report.passed, report.rel_residual

    @pytest.mark.parametrize("identity_id", ["I7", "I8", "I10", "I11", "I13"])
    def test_steep_weibull_passes(self, identity_id):
        assert verify(BY_ID[identity_id], Weibull(0.3, 1.0)).passed


class TestTruncationPoint:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ties", [False, True], ids=["untied", "tied"])
    def test_matches_the_center_outward_rule(self, seed, ties):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        x = rng.integers(0, 5, size=n).astype(float) if ties else rng.gamma(2.0, 1.0, size=n)
        sample = make_sample(x)
        for need_above in (0, 1, 2, n // 2, n):
            for need_below in (0, 1, 2, n // 2, n):
                assert _pick_t(sample, need_above, need_below) == \
                    brute_pick_t(x, need_above, need_below), (need_above, need_below)

    def test_all_equal_sample(self):
        flat = make_sample([3.0, 3.0, 3.0])
        assert _pick_t(flat, need_below=2) == 3.0
        assert _pick_t(flat, need_above=1) is None


class TestExactSampleLevel:
    @pytest.mark.parametrize("seed", range(8))
    def test_machine_precision_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 60))
        sample = make_sample(rng.gamma(2.0, 1.0, size=n))
        for identity_id in EXACT_IDS:
            report = verify(BY_ID[identity_id], sample)
            assert report.tolerance == EXACT_SAMPLE_TOL
            assert report.passed, (identity_id, report.abs_residual)
            assert report.abs_residual < 1e-10

    def test_ties_do_not_break_exact_identities(self):
        sample = make_sample([1.0, 1.0, 2.0, 2.0, 2.0, 5.0, 5.0, 9.0])
        for identity_id in EXACT_IDS:
            report = verify(BY_ID[identity_id], sample)
            assert report.passed, (identity_id, report.abs_residual)

    def test_two_point_sample(self):
        sample = make_sample([1.0, 4.0])
        for identity_id in ("I1", "I3", "I4", "I9"):
            assert verify(BY_ID[identity_id], sample).passed, identity_id


class TestExactSampleGaps:
    """Under hazen, some asymptotic pairs differ by a fixed factor of n, exactly.

    Pinned at 1e-12 so that a 1 % slip in either estimator fails here,
    where the single-sample gate of these identities would let it pass.
    """

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("ties", [False, True], ids=["untied", "tied"])
    def test_fixed_factors(self, seed, ties):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(3, 401))
        x = rng.integers(0, 6, size=n).astype(float) if ties else rng.gamma(2.0, 1.0, size=n)
        sample = make_sample(x)
        shrink = (n - 1) / n
        exact = dict(rel=1e-12, abs=0.0)
        ((gmd_, cov4),) = BY_ID["I2"].sample_sides(sample, "hazen")
        assert cov4 == pytest.approx(shrink * gmd_, **exact)
        k2, k3 = BY_ID["I14"].sample_sides(sample, "hazen")
        for premia, covs in (k2, k3):
            assert covs == pytest.approx(shrink * premia, **exact)
        plugin, s_gini_v2 = BY_ID["I12"].sample_sides(sample, "hazen")[0]
        assert s_gini_v2 == pytest.approx(plugin / shrink, **exact)


class TestNonFiniteSides:
    HUGE = [1e200, 2e200, 3e200]  # x^2 overflows

    def test_nan_in_a_later_pair_raises_naming_the_identity(self):
        with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteError, match="^I7: "):
            verify(BY_ID["I7"], make_sample(self.HUGE))

    @pytest.mark.parametrize("source", [make_sample([1.0, 2.0]), Uniform(0.0, 1.0)],
                             ids=["sample", "population"])
    def test_every_pair_is_checked(self, source):
        sides = lambda *args: [(1.0, 1.0), (float("nan"), 1.0), (1.0, 2.0)]
        ident = Identity("X", "test", "both", "asymptotic", sides, sides)
        with pytest.raises(NonFiniteError, match="^X: non-finite side"):
            verify(ident, source)

    def test_finite_identities_still_report(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert verify(BY_ID["I1"], make_sample(self.HUGE)).passed

    def test_verify_all_keeps_every_finite_report(self):
        with np.errstate(over="ignore", invalid="ignore"):
            reports = verify_all(make_sample(self.HUGE))
        assert [rep.identity for rep in reports] == [
            "I1", "I2", "I3", "I4", "I5", "I6", "I8", "I9", "I12", "I14"]
        for rep in reports:
            assert all(map(np.isfinite, (rep.lhs, rep.rhs, rep.abs_residual, rep.rel_residual)))


class NoQuantile(Weibull):
    def quantile(self, u):
        raise AssertionError("x-domain side called the quantile")

    def isf(self, v):
        raise AssertionError("x-domain side called the complementary quantile")


class NoDistribution(Weibull):
    def cdf(self, x):
        raise AssertionError("quantile side called the cdf")

    def sf(self, x):
        raise AssertionError("quantile side called the sf")


class LevelOnly(NoDistribution):
    """F and S at one point only: the truncation level of gmd_left and gmd_right."""

    def cdf(self, x):
        return Weibull.cdf(self, x) if np.ndim(x) == 0 else super().cdf(x)

    def sf(self, x):
        return Weibull.sf(self, x) if np.ndim(x) == 0 else super().sf(x)


class TestQuantileSidesNeverCallFOrS:
    """The quantile routes read Q through quantile and isf, and never F or S,
    except F(t) or S(t) as the level at which gmd_left and gmd_right truncate."""

    def test_pwm_population(self):
        model, plain = NoDistribution(0.7, 2.0), Weibull(0.7, 2.0)
        for idx in (PwmIndex(1), PwmIndex(2, 1.0, 0.5), PwmIndex(1, 0.0, -0.5)):
            assert pwm_population(model, idx) == pwm_population(plain, idx)

    @pytest.mark.parametrize("weight", ["const:2", "F^1.5", "Fbar^2.5"])
    def test_generalized_entropies(self, weight):
        model, plain = NoDistribution(0.7, 2.0), Weibull(0.7, 2.0)
        w, phi = parse_weight(weight), PhiSelector(2.0, 1.5)
        assert ge_population(model, w, phi) == ge_population(plain, w, phi)
        assert gce_population(model, w, phi) == gce_population(plain, w, phi)

    def test_truncated_gmds(self):
        model, plain = LevelOnly(0.7, 2.0), Weibull(0.7, 2.0)
        for t in (0.1, plain.median(), 5.0):
            assert gmd_left_population(model, t) == gmd_left_population(plain, t)
            assert gmd_right_population(model, t) == gmd_right_population(plain, t)


class TestXDomainSidesNeverCallQ:
    """The x-domain routes split at the closed-form median, not at Q(0.5)."""

    def test_median_is_q_at_one_half(self):
        for model in (Uniform(0.5, 2.0), Exponential(3.0), Weibull(0.7, 2.0), Pareto(2.2, 3.0)):
            assert model.median() == float(model.quantile(0.5))

    def test_measures_and_mean_lives(self):
        model, plain = NoQuantile(1.5, 1.0), Weibull(1.5, 1.0)
        assert _mx(model, DEFAULT_CONFIG, id="gmd") == _mx(plain, DEFAULT_CONFIG, id="gmd")
        t = plain.median()
        assert j_dyn_population(model, t) == j_dyn_population(plain, t)
        assert mean_residual_life(model, t) == mean_residual_life(plain, t)

    def test_identity_sides(self):
        model, plain = NoQuantile(1.5, 1.0), Weibull(1.5, 1.0)
        for v in (1.0, 2.0):  # I7
            assert (_range_moment_direct(model, v, DEFAULT_CONFIG)
                    == _range_moment_direct(plain, v, DEFAULT_CONFIG))
        for k in (2, 3):  # I14
            assert (_premia_direct(model, k, DEFAULT_CONFIG)
                    == _premia_direct(plain, k, DEFAULT_CONFIG))


class TestAsymptoticSampleLevel:
    def test_single_sample_reports_pass_within_gate(self):
        rng = np.random.default_rng(99)
        sample = make_sample(rng.exponential(1.0, size=400))
        for identity_id in ASYMPTOTIC_IDS:
            report = verify(BY_ID[identity_id], sample)
            assert report.passed, (identity_id, report.rel_residual)

    def test_gate_grows_for_small_samples(self):
        small = make_sample(np.random.default_rng(1).exponential(1.0, size=10))
        report = verify(BY_ID["I2"], small)
        assert report.tolerance == pytest.approx(0.4)  # 4/n at n=10
        big = make_sample(np.random.default_rng(1).exponential(1.0, size=1000))
        report = verify(BY_ID["I2"], big)
        assert report.tolerance == ASYMPTOTIC_SAMPLE_TOL

    @pytest.mark.parametrize("identity_id", ASYMPTOTIC_IDS)
    def test_residuals_shrink_with_n(self, identity_id):
        """The real content of an asymptotic identity: the two estimator
        routes converge to each other as the sample grows."""
        identity = BY_ID[identity_id]

        def median_residual(n: int) -> float:
            out = []
            for rep in range(5):
                rng = np.random.default_rng(1000 * rep + 7)
                sample = make_sample(rng.exponential(1.0, size=n))
                out.append(verify(identity, sample).abs_residual)
            return float(np.median(out))

        coarse = median_residual(100)
        fine = median_residual(10_000)
        assert fine < 0.3 * coarse, (identity_id, coarse, fine)


class TestApplicability:
    def test_population_only_identity_rejects_samples(self):
        sample = make_sample([1.0, 2.0, 3.0])
        with pytest.raises(NotApplicableError, match="no sample-level form"):
            verify(BY_ID["I13"], sample)

    def test_verify_all_skips_inapplicable(self):
        reports = verify_all(make_sample([1.0, 2.0, 3.0]))
        ids = [r.identity for r in reports]
        assert "I13" not in ids
        assert len(ids) == 13

    def test_degenerate_sample_has_no_upper_truncation(self):
        flat = make_sample([2.0, 2.0, 2.0])
        with pytest.raises(NotApplicableError, match="truncation"):
            verify(BY_ID["I5"], flat)
        # the at-or-below side still works: every point sits at t
        assert verify(BY_ID["I6"], flat).passed

    def test_all_equal_sample_runs_the_rest(self):
        flat = make_sample([2.0, 2.0, 2.0])
        reports = verify_all(flat)
        assert all(r.passed for r in reports)
        assert "I5" not in [r.identity for r in reports]

    def test_bad_source_type(self):
        with pytest.raises(BadParameterError, match="Sample or ParametricModel"):
            verify(BY_ID["I1"], [1.0, 2.0, 3.0])

    def test_small_sample_skips_k3_but_keeps_k2(self):
        pair = make_sample([1.0, 3.0])
        report = verify(BY_ID["I14"], pair)
        assert report.passed  # k=3 branch skipped internally, k=2 still checked
        assert len(BY_ID["I14"].sample_sides(pair, "hazen")) == 1


class TestToleranceOverride:
    def test_forcing_failure_with_zero_headroom(self):
        rng = np.random.default_rng(5)
        sample = make_sample(rng.exponential(1.0, size=50))
        report = verify(BY_ID["I2"], sample, tolerance=1e-15)
        assert not report.passed
        assert report.tolerance == 1e-15

    def test_loosening_a_population_check(self):
        report = verify(BY_ID["I1"], Exponential(1.0), tolerance=0.5)
        assert report.tolerance == 0.5
        assert report.passed

    @pytest.mark.parametrize("bad, error", [(float("inf"), NonFiniteError),
                                            (float("nan"), NonFiniteError),
                                            (-1e-8, BadParameterError)])
    def test_a_tolerance_that_cannot_gate_is_refused(self, bad, error):
        with pytest.raises(error, match="identity tolerance"):
            verify(REGISTRY[0], Exponential(1.0), tolerance=bad)

    def test_a_zero_tolerance_gates_exactly(self):
        assert verify(BY_ID["I1"], Uniform(0.0, 1.0), tolerance=0.0).tolerance == 0.0
