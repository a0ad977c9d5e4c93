import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from paircomp import estimators
from paircomp.errors import AssumptionViolationError, RunnerError
from paircomp.estimators import DiffKind, SEMethod
from paircomp.runners import (AlgorithmKind, AlgorithmSpec, InstanceRef,
                              bind, build_tsp_instance)
from paircomp import sampler as sampler_module
from paircomp.sampler import SamplingConfig, calc_nreps
from paircomp.seeding import BOOTSTRAP_STREAM, derive_seed


def normal_spec(alias, mu, sigma):
    return AlgorithmSpec(alias=alias, kind=AlgorithmKind.SYNTHETIC_NORMAL,
                         params={"mu": mu, "sigma": sigma})


INSTANCE = InstanceRef(id="inst-0")


def normal_runs(mu1, sd1, mu2, sd2):
    return (bind(normal_spec("a1", mu1, sd1), INSTANCE),
            bind(normal_spec("a2", mu2, sd2), INSTANCE))


def scripted(values):
    """A run that replays a fixed sequence of values, cycling; ignores seeds."""
    replay = itertools.cycle([float(v) for v in values])
    return lambda seed, key: next(replay)


def recording(algo_index, log, run):
    """Runs as ``run`` does, and records each run's algorithm, seed, key and value."""
    def record(seed, key):
        value = run(seed, key)
        log.append((algo_index, seed, key, value))
        return value
    return record


def recording_runs(log, mu1, sd1, mu2, sd2):
    r1, r2 = normal_runs(mu1, sd1, mu2, sd2)
    return recording(0, log, r1), recording(1, log, r2)


def run_seeds(log):
    return [seed for _, seed, _, _ in log]


def observations(log, algo_index):
    return [value for algo, _, _, value in log if algo == algo_index]


@contextlib.contextmanager
def se_spy():
    """Records ``(n1, n2, se)`` for every SE the sampler computes, in order."""
    trace = []

    def spying(estimator):
        def spy(s1, s2, *args):
            se = estimator(s1, s2, *args)
            trace.append((s1.n, s2.n, se))
            return se
        return spy

    with pytest.MonkeyPatch.context() as mp:
        for name in ("se_simple", "se_percent", "bootstrap_se"):
            mp.setattr(sampler_module, name, spying(getattr(sampler_module, name)))
        yield trace


class TestStoppingBehavior:
    def test_generous_budget_stops_at_n0(self):
        r1, r2 = normal_runs(10, 1, 12, 1)
        cfg = SamplingConfig(se_max=5.0, n0=15, n_max=100)
        with se_spy() as trace:
            out = calc_nreps(r1, r2, INSTANCE, cfg, seed=1)
        assert (out.n1, out.n2) == (15, 15)
        assert len(trace) == 1
        assert not out.budget_exhausted
        assert out.se_hat == pytest.approx(math.sqrt(2 / 15), rel=0.5)

    def test_unreachable_budget_exhausts_n_max(self):
        r1, r2 = normal_runs(10, 1, 12, 1)
        cfg = SamplingConfig(se_max=0.001, n0=15, n_max=40)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=1)
        assert out.budget_exhausted
        assert out.n1 + out.n2 == 40

    def test_se_contract_when_not_exhausted(self):
        r1, r2 = normal_runs(10, 2, 12, 1)
        cfg = SamplingConfig(se_max=0.5, n0=5, n_max=400)
        for seed in range(10):
            with se_spy() as trace:
                out = calc_nreps(r1, r2, INSTANCE, cfg, seed=seed)
            assert not out.budget_exhausted
            assert out.se_hat <= 0.5
            n1, n2, se = trace[-1]
            assert se == out.se_hat
            assert (n1, n2) == (out.n1, out.n2)
            if len(trace) > 1:
                # extra runs shrank the uncertainty below the starting level
                assert trace[-1][2] < trace[0][2]

    def test_trace_totals_increase_by_one(self):
        r1, r2 = normal_runs(0, 1, 0.5, 1)
        cfg = SamplingConfig(se_max=0.3, n0=5, n_max=200)
        with se_spy() as trace:
            calc_nreps(r1, r2, INSTANCE, cfg, seed=3)
        totals = [n1 + n2 for n1, n2, _ in trace]
        assert totals[0] == 10
        assert all(b - a == 1 for a, b in zip(totals, totals[1:]))


class TestSEBudgetContract:
    """Whatever the data and knobs: the budget is met, or spent exactly."""

    @given(kind=st.sampled_from(list(DiffKind)),
           method=st.sampled_from(list(SEMethod)),
           mu1=st.floats(20.0, 50.0), mu2=st.floats(20.0, 50.0),
           sd1=st.floats(0.5, 5.0), sd2=st.floats(0.5, 5.0),
           se_scale=st.floats(0.002, 0.1), n0=st.integers(2, 10),
           extra=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_contract(self, kind, method, mu1, mu2, sd1, sd2, se_scale, n0,
                      extra, seed):
        log = []
        r1, r2 = recording_runs(log, mu1, sd1, mu2, sd2)
        # percent differences are relative, simple ones are in data units
        se_max = se_scale if kind is DiffKind.PERCENT else 20.0 * se_scale
        cfg = SamplingConfig(se_max=se_max, n0=n0, n_max=2 * n0 + extra,
                             diff_kind=kind, se_method=method,
                             resamples=100)
        with se_spy() as trace:
            out = calc_nreps(r1, r2, INSTANCE, cfg, seed=seed)
        n1, n2 = len(observations(log, 0)), len(observations(log, 1))
        assert (out.n1, out.n2) == (n1, n2)
        if out.budget_exhausted:
            assert n1 + n2 == cfg.n_max and out.se_hat > se_max
        else:
            assert out.se_hat <= se_max
        assert n1 + n2 <= cfg.n_max
        assert n1 >= n0 and n2 >= n0
        assert len(run_seeds(log)) == n1 + n2 == len(set(run_seeds(log)))
        assert trace[-1] == (n1, n2, out.se_hat)


class TestOverflowingEstimate:
    """A finite SE does not make a finite estimate: the sampler refuses
    either one that is not finite, so no such row is journaled."""

    def test_means_whose_difference_overflows(self):
        # runs of 1e308 and -1e308: no spread, so a parametric SE of 0, and
        # 2e308 between the means (the bootstrap SE of these runs is nan)
        cfg = SamplingConfig(se_max=0.5, n0=3, n_max=8)
        with pytest.raises(AssumptionViolationError, match="the estimate of the "
                           "difference is -inf after 3 \\+ 3 runs"):
            calc_nreps(scripted([1e308]), scripted([-1e308]), INSTANCE, cfg, seed=1)

    def test_runs_whose_mean_overflows(self):
        # 1e308 then -1e308 on one side: the running mean is -inf, and so
        # is the spread, which the SE check refuses
        cfg = SamplingConfig(se_max=0.5, n0=2, n_max=4)
        with pytest.raises(AssumptionViolationError, match="the standard error "
                           "of the difference is inf after 2 \\+ 2 runs"):
            calc_nreps(scripted([1e308, -1e308]), scripted([0.0]), INSTANCE, cfg,
                       seed=1)


class TestAllocation:
    def test_ratio_tracks_spread_ratio(self):
        # spread ratio 2: terminal allocation should sit near n1/n2 = 2
        ratios = []
        n1_ge_n2 = 0
        for seed in range(100):
            r1, r2 = normal_runs(10, 2, 10, 1)
            cfg = SamplingConfig(se_max=0.2, n0=10, n_max=600)
            out = calc_nreps(r1, r2, INSTANCE, cfg, seed=seed)
            ratios.append(out.n1 / out.n2)
            n1_ge_n2 += out.n1 >= out.n2
        assert 1.6 <= float(np.median(ratios)) <= 2.4
        assert n1_ge_n2 >= 90

    def test_forced_balance_keeps_counts_even(self):
        r1, r2 = normal_runs(10, 3, 10, 1)
        cfg = SamplingConfig(se_max=0.4, n0=5, n_max=400, force_balance=True)
        for seed in range(5):
            out = calc_nreps(r1, r2, INSTANCE, cfg, seed=seed)
            assert abs(out.n1 - out.n2) <= 1


class TestDeterminism:
    def test_identical_inputs_identical_outcomes(self):
        cfg = SamplingConfig(se_max=0.3, n0=5, n_max=100)
        outs, logs, traces = [], [], []
        for _ in range(2):
            logs.append([])
            r1, r2 = recording_runs(logs[-1], 10, 2, 11, 1)
            with se_spy() as trace:
                outs.append(calc_nreps(r1, r2, INSTANCE, cfg, seed=77))
            traces.append(trace)
        a, b = outs
        assert observations(logs[0], 0) == observations(logs[1], 0)
        assert observations(logs[0], 1) == observations(logs[1], 1)
        assert traces[0] == traces[1]
        assert a == b
        assert logs[0] == logs[1]

    def test_run_seeds_unique(self):
        log = []
        r1, r2 = recording_runs(log, 10, 2, 11, 1)
        cfg = SamplingConfig(se_max=0.2, n0=10, n_max=300)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=5)
        assert len(set(run_seeds(log))) == len(log)
        assert len(log) == out.n1 + out.n2


class TestPercentKind:
    def test_percent_se_contract(self):
        r1, r2 = normal_runs(100, 5, 105, 5)
        cfg = SamplingConfig(se_max=0.01, n0=10, n_max=500,
                             diff_kind=DiffKind.PERCENT)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=11)
        assert not out.budget_exhausted
        assert out.se_hat <= 0.01
        assert out.diff_kind is DiffKind.PERCENT

    @pytest.mark.parametrize("se_method", list(SEMethod), ids=lambda m: m.value)
    def test_nonpositive_baseline_refused_at_the_first_se(self, se_method):
        # the instance is named by run_experiment, which knows it
        log = []
        r1, r2 = recording_runs(log, -5, 1, 5, 1)
        cfg = SamplingConfig(se_max=0.01, n0=5, n_max=50,
                             diff_kind=DiffKind.PERCENT, se_method=se_method,
                             resamples=100)
        with pytest.raises(AssumptionViolationError,
                           match="strictly positive baseline mean"):
            calc_nreps(r1, r2, INSTANCE, cfg, seed=1)
        assert len(log) == 10

    def test_zero_gap_keeps_the_parametric_se(self):
        # identical means with spread: the percent SE is its zero-gap limit
        r1 = scripted([1.0, 3.0, 2.0, 2.0])
        r2 = scripted([3.0, 1.0, 2.0, 2.0])
        cfg = SamplingConfig(se_max=0.4, n0=4, n_max=60,
                             diff_kind=DiffKind.PERCENT,
                             resamples=200)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=1)
        assert out.se_method is SEMethod.PARAMETRIC
        assert (out.n1, out.n2, out.phi_hat) == (4, 4, 0.0)
        assert out.se_hat == math.sqrt(2 / 3 / 4 + 2 / 3 / 4) / 2.0

    @pytest.mark.parametrize("se_method, derived", [(SEMethod.PARAMETRIC, []),
                                                    (SEMethod.BOOTSTRAP, [(3, BOOTSTRAP_STREAM)])])
    def test_bootstrap_seed_derived_only_for_the_bootstrap(self, monkeypatch,
                                                           se_method, derived):
        calls = []

        def counting(*words):
            calls.append(words)
            return derive_seed(*words)

        monkeypatch.setattr(sampler_module, "derive_seed", counting)
        r1, r2 = normal_runs(100, 5, 105, 5)
        cfg = SamplingConfig(se_max=0.02, n0=5, n_max=40,
                             diff_kind=DiffKind.PERCENT, se_method=se_method,
                             resamples=100)
        calc_nreps(r1, r2, INSTANCE, cfg, seed=3)
        assert calls == derived

    def test_bootstrap_method_from_start(self):
        r1, r2 = normal_runs(100, 5, 105, 5)
        cfg = SamplingConfig(se_max=0.02, n0=10, n_max=400,
                             diff_kind=DiffKind.PERCENT,
                             se_method=SEMethod.BOOTSTRAP,
                             resamples=300)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=2)
        assert out.se_method is SEMethod.BOOTSTRAP
        assert out.se_hat <= 0.02 or out.budget_exhausted


def full_bootstrap_se(s1, s2, diff_kind, resamples, seed, stop_above=None):
    """The bootstrap SE run to all its resamples, whatever the sampler asks."""
    return estimators.bootstrap_se(s1, s2, diff_kind, resamples, seed)


class TestBootstrapEarlyExit:
    """A non-final bootstrap SE may stop at a bound above se_max; the
    sampler must still make every decision and report every number the
    full SE gives."""

    @pytest.mark.parametrize("kind, runs, se_max, n_max", [
        (DiffKind.SIMPLE, (0.0, 1.0, 0.5, 2.0), 0.25, 400),
        (DiffKind.SIMPLE, (0.0, 1.0, 0.5, 2.0), 0.05, 60),
        (DiffKind.PERCENT, (10.0, 3.0, 12.0, 4.0), 0.05, 500),
        (DiffKind.PERCENT, (10.0, 3.0, 12.0, 4.0), 0.005, 60),
    ], ids=["simple-converges", "simple-exhausts", "percent-converges",
            "percent-exhausts"])
    def test_matches_the_full_se_sampler(self, monkeypatch, kind, runs, se_max, n_max):
        certified = []

        def counting(phis, R, limit):
            bound = certify(phis, R, limit)
            certified.append(bound is not None)
            return bound

        certify = estimators._certified_sd
        monkeypatch.setattr(estimators, "_certified_sd", counting)
        cfg = SamplingConfig(se_max=se_max, n0=5, n_max=n_max, diff_kind=kind,
                             se_method=SEMethod.BOOTSTRAP, resamples=200)
        exhausted = []
        for seed in range(10):
            early = calc_nreps(*normal_runs(*runs), INSTANCE, cfg, seed=seed)
            with monkeypatch.context() as mp:
                mp.setattr(sampler_module, "bootstrap_se", full_bootstrap_se)
                full = calc_nreps(*normal_runs(*runs), INSTANCE, cfg, seed=seed)
            assert early == full
            exhausted.append(full.budget_exhausted)
        assert all(exhausted) == (n_max == 60) and any(exhausted) == (n_max == 60)
        assert any(certified)
        if n_max != 60:
            # as the SE nears se_max, some heads cannot certify, and the
            # evaluation reads the rest of the rows
            assert not all(certified)


class TestFailuresAndValidation:
    def test_runner_failure_carries_context(self):
        r1 = bind(AlgorithmSpec(alias="broken", kind=AlgorithmKind.SUBPROCESS,
                                params={"executable": "/nonexistent/solver"}), INSTANCE)
        _, r2 = normal_runs(0, 1, 0, 1)
        cfg = SamplingConfig(se_max=0.1, n0=5, n_max=50)
        with pytest.raises(RunnerError, match="could not launch") as err:
            calc_nreps(r1, r2, INSTANCE, cfg, seed=1)
        assert err.value.alias == "broken"
        assert err.value.instance_id == "inst-0"
        # the first run of the first algorithm failed
        assert err.value.seed == derive_seed(1, 0, 0)

    @pytest.mark.parametrize("kwargs", [
        dict(se_max=0.0), dict(se_max=-1.0), dict(n0=1),
        dict(n0=20, n_max=30), dict(resamples=99),
    ])
    def test_invalid_config_rejected(self, kwargs):
        base = dict(se_max=0.1, n0=5, n_max=100)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SamplingConfig(**base)

    def test_budget_beyond_one_run_index_word_rejected(self):
        # a run index is derived from as one 32-bit word
        SamplingConfig(se_max=0.1, n0=5, n_max=2 ** 32 - 1)
        with pytest.raises(ValueError, match="n_max must be below 2\\*\\*32"):
            SamplingConfig(se_max=0.1, n0=5, n_max=2 ** 32)


class TestRunSeedBlocks:
    # the last two budgets are lopsided: one algorithm gets every run the
    # other's n0 leaves, up to run index n_max - n0 - 1, over several blocks
    @pytest.mark.parametrize("n0, n_max, sd2", [(2, 4, 1.0), (3, 97, 3.0),
                                                  (5, 200, 0.2), (4, 41, 1.0),
                                                  (2, 400, 1e3), (4, 300, 1e-3)])
    def test_every_run_gets_its_seed_and_key(self, monkeypatch, n0, n_max, sd2):
        # both algorithms' later runs come in joint blocks that grow from n0
        # and never pass the most runs one algorithm can have, n_max - n0;
        # whatever the allocation, run r of algorithm a has
        # derive_seed(seed, a, r)
        log, blocks = [], []
        kernel = sampler_module.run_keys

        def recording_kernel(prefixes, runs):
            blocks.append((list(prefixes), runs))
            return kernel(prefixes, runs)

        monkeypatch.setattr(sampler_module, "run_keys", recording_kernel)
        cfg = SamplingConfig(se_max=1e-6, n0=n0, n_max=n_max)
        out = calc_nreps(*recording_runs(log, 0.0, 1.0, 0.0, sd2),
                         INSTANCE, cfg, seed=8)
        assert out.n1 + out.n2 == n_max == len(log)
        counts = [0, 0]
        for algo, seed, key, _ in log:
            assert seed == derive_seed(8, algo, counts[algo])
            assert key == oracles.reference_key(seed)
            counts[algo] += 1
        assert len(set(run_seeds(log))) == len(log)
        if sd2 in (1e3, 1e-3):
            assert max(counts) == n_max - n0 and len(blocks) > 2
        derived = n0
        for prefixes, runs in blocks:
            assert prefixes == [(8, 0), (8, 1)]
            assert list(runs) == list(range(derived, runs[-1] + 1))
            assert runs[-1] < n_max - n0
            assert len(runs) <= max(derived, sampler_module._MIN_BLOCK)
            derived += len(runs)
        assert derived >= max(counts)


class TestAnnealingDemo:
    def test_two_temperatures_meet_percent_budget(self):
        # scenario shape: one distance matrix, two annealing temperatures
        instance = build_tsp_instance("tsp21", n_cities=21, layout_seed=4)
        r1 = bind(AlgorithmSpec(alias="cool", kind=AlgorithmKind.DEMO_SANN_TSP,
                                params={"temp": 2000.0, "budget": 1500}), instance)
        r2 = bind(AlgorithmSpec(alias="hot", kind=AlgorithmKind.DEMO_SANN_TSP,
                                params={"temp": 4000.0, "budget": 1500}), instance)
        cfg = SamplingConfig(se_max=0.01, n0=20, n_max=200,
                             diff_kind=DiffKind.PERCENT)
        out = calc_nreps(r1, r2, instance, cfg, seed=1234)
        assert out.se_hat <= 0.01 or out.budget_exhausted
        assert out.n1 >= 20 and out.n2 >= 20
        assert out.n1 + out.n2 <= 200
