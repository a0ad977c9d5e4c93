import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from paircomp.errors import AssumptionViolationError, RunnerError
from paircomp.estimators import DiffKind, SEMethod
from paircomp.runners import (AlgorithmKind, AlgorithmSpec, InstanceRef,
                              Runner, build_tsp_instance)
from paircomp.sampler import SamplingConfig, calc_nreps
from paircomp.seeding import derive_seed


def normal_spec(alias, mu, sigma):
    return AlgorithmSpec(alias=alias, kind=AlgorithmKind.SYNTHETIC_NORMAL,
                         params={"mu": mu, "sigma": sigma})


def normal_runners(mu1, sd1, mu2, sd2):
    return Runner(normal_spec("a1", mu1, sd1)), Runner(normal_spec("a2", mu2, sd2))


INSTANCE = InstanceRef(id="inst-0")


class ScriptedRunner:
    """Replays a fixed sequence of values, cycling; ignores seeds."""

    concurrent_safe = True

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def run(self, instance, seed):
        v = self.values[self.calls % len(self.values)]
        self.calls += 1
        return float(v)

    def bind(self, instance):
        return lambda seed, key: self.run(instance, seed)


class RecordingRunner:
    """Runs as the runner it wraps does, and records each run's algorithm,
    seed and key."""

    concurrent_safe = True

    def __init__(self, algo_index, log, runner):
        self.algo_index, self.log, self.runner = algo_index, log, runner

    def bind(self, instance):
        run = self.runner.bind(instance)

        def record(seed, key):
            self.log.append((self.algo_index, seed, key))
            return run(seed, key)
        return record


def recording_runners(log, mu1, sd1, mu2, sd2):
    r1, r2 = normal_runners(mu1, sd1, mu2, sd2)
    return RecordingRunner(0, log, r1), RecordingRunner(1, log, r2)


def run_seeds(log):
    return [seed for _, seed, _ in log]


class TestStoppingBehavior:
    def test_generous_budget_stops_at_n0(self):
        r1, r2 = normal_runners(10, 1, 12, 1)
        cfg = SamplingConfig(se_max=5.0, n0=15, n_max=100)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=1)
        assert (out.samples[0].n, out.samples[1].n) == (15, 15)
        assert len(out.se_trace) == 1
        assert not out.diff.budget_exhausted
        assert out.diff.se_hat == pytest.approx(math.sqrt(2 / 15), rel=0.5)

    def test_unreachable_budget_exhausts_n_max(self):
        r1, r2 = normal_runners(10, 1, 12, 1)
        cfg = SamplingConfig(se_max=0.001, n0=15, n_max=40)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=1)
        assert out.diff.budget_exhausted
        assert out.samples[0].n + out.samples[1].n == 40

    def test_se_contract_when_not_exhausted(self):
        r1, r2 = normal_runners(10, 2, 12, 1)
        cfg = SamplingConfig(se_max=0.5, n0=5, n_max=400)
        for seed in range(10):
            out = calc_nreps(r1, r2, INSTANCE, cfg, seed=seed)
            assert not out.diff.budget_exhausted
            assert out.diff.se_hat <= 0.5
            n1, n2, se = out.se_trace[-1]
            assert se == out.diff.se_hat
            assert (n1, n2) == (out.samples[0].n, out.samples[1].n)
            if len(out.se_trace) > 1:
                # extra runs shrank the uncertainty below the starting level
                assert out.se_trace[-1][2] < out.se_trace[0][2]

    def test_trace_totals_increase_by_one(self):
        r1, r2 = normal_runners(0, 1, 0.5, 1)
        cfg = SamplingConfig(se_max=0.3, n0=5, n_max=200)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=3)
        totals = [n1 + n2 for n1, n2, _ in out.se_trace]
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
        r1, r2 = recording_runners(log, mu1, sd1, mu2, sd2)
        # percent differences are relative, simple ones are in data units
        se_max = se_scale if kind is DiffKind.PERCENT else 20.0 * se_scale
        cfg = SamplingConfig(se_max=se_max, n0=n0, n_max=2 * n0 + extra,
                             diff_kind=kind, se_method=method,
                             resamples=100)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=seed)
        n1, n2 = out.samples[0].n, out.samples[1].n
        assert (out.diff.n1, out.diff.n2) == (n1, n2)
        if out.diff.budget_exhausted:
            assert n1 + n2 == cfg.n_max and out.diff.se_hat > se_max
        else:
            assert out.diff.se_hat <= se_max
        assert n1 + n2 <= cfg.n_max
        assert n1 >= n0 and n2 >= n0
        assert len(run_seeds(log)) == n1 + n2 == len(set(run_seeds(log)))
        assert out.se_trace[-1] == (n1, n2, out.diff.se_hat)


class TestAllocation:
    def test_ratio_tracks_spread_ratio(self):
        # spread ratio 2: terminal allocation should sit near n1/n2 = 2
        ratios = []
        n1_ge_n2 = 0
        for seed in range(100):
            r1, r2 = normal_runners(10, 2, 10, 1)
            cfg = SamplingConfig(se_max=0.2, n0=10, n_max=600)
            out = calc_nreps(r1, r2, INSTANCE, cfg, seed=seed)
            ratios.append(out.samples[0].n / out.samples[1].n)
            n1_ge_n2 += out.samples[0].n >= out.samples[1].n
        assert 1.6 <= float(np.median(ratios)) <= 2.4
        assert n1_ge_n2 >= 90

    def test_forced_balance_keeps_counts_even(self):
        r1, r2 = normal_runners(10, 3, 10, 1)
        cfg = SamplingConfig(se_max=0.4, n0=5, n_max=400, force_balance=True)
        for seed in range(5):
            out = calc_nreps(r1, r2, INSTANCE, cfg, seed=seed)
            assert abs(out.samples[0].n - out.samples[1].n) <= 1


class TestDeterminism:
    def test_identical_inputs_identical_outcomes(self):
        cfg = SamplingConfig(se_max=0.3, n0=5, n_max=100)
        outs, logs = [], []
        for _ in range(2):
            logs.append([])
            r1, r2 = recording_runners(logs[-1], 10, 2, 11, 1)
            outs.append(calc_nreps(r1, r2, INSTANCE, cfg, seed=77))
        a, b = outs
        assert a.samples[0].observations == b.samples[0].observations
        assert a.samples[1].observations == b.samples[1].observations
        assert a.se_trace == b.se_trace
        assert a.diff == b.diff
        assert logs[0] == logs[1]

    def test_run_seeds_unique(self):
        log = []
        r1, r2 = recording_runners(log, 10, 2, 11, 1)
        cfg = SamplingConfig(se_max=0.2, n0=10, n_max=300)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=5)
        assert len(set(run_seeds(log))) == len(log)
        assert len(log) == out.samples[0].n + out.samples[1].n


class TestPercentKind:
    def test_percent_se_contract(self):
        r1, r2 = normal_runners(100, 5, 105, 5)
        cfg = SamplingConfig(se_max=0.01, n0=10, n_max=500,
                             diff_kind=DiffKind.PERCENT)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=11)
        assert not out.diff.budget_exhausted
        assert out.diff.se_hat <= 0.01
        assert out.diff.diff_kind is DiffKind.PERCENT

    def test_nonpositive_baseline_names_instance(self):
        r1, r2 = normal_runners(-5, 1, 5, 1)
        cfg = SamplingConfig(se_max=0.01, n0=5, n_max=50,
                             diff_kind=DiffKind.PERCENT)
        with pytest.raises(AssumptionViolationError, match="inst-0"):
            calc_nreps(r1, r2, INSTANCE, cfg, seed=1)

    def test_zero_gap_falls_back_to_bootstrap(self):
        # identical means with spread: the parametric percent SE degenerates
        r1 = ScriptedRunner([1.0, 3.0, 2.0, 2.0])
        r2 = ScriptedRunner([3.0, 1.0, 2.0, 2.0])
        cfg = SamplingConfig(se_max=0.4, n0=4, n_max=60,
                             diff_kind=DiffKind.PERCENT,
                             resamples=200)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=1)
        assert out.diff.se_method is SEMethod.BOOTSTRAP
        assert any("bootstrap" in e for e in out.events)

    def test_bootstrap_method_from_start(self):
        r1, r2 = normal_runners(100, 5, 105, 5)
        cfg = SamplingConfig(se_max=0.02, n0=10, n_max=400,
                             diff_kind=DiffKind.PERCENT,
                             se_method=SEMethod.BOOTSTRAP,
                             resamples=300)
        out = calc_nreps(r1, r2, INSTANCE, cfg, seed=2)
        assert out.diff.se_method is SEMethod.BOOTSTRAP
        assert out.diff.se_hat <= 0.02 or out.diff.budget_exhausted


class TestFailuresAndValidation:
    def test_runner_failure_carries_context(self):
        r1 = Runner(AlgorithmSpec(alias="broken", kind=AlgorithmKind.SUBPROCESS,
                                  params={"executable": "/nonexistent/solver"}))
        _, r2 = normal_runners(0, 1, 0, 1)
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
    @pytest.mark.parametrize("n0, n_max, sd2", [(2, 4, 1.0), (3, 97, 3.0),
                                                  (5, 200, 0.2), (4, 41, 1.0)])
    def test_every_run_gets_its_seed_and_key(self, n0, n_max, sd2):
        # blocks double from n0 and stop at the budget; whatever the
        # allocation, run r of algorithm a has derive_seed(seed, a, r)
        log = []
        cfg = SamplingConfig(se_max=1e-6, n0=n0, n_max=n_max)
        out = calc_nreps(*recording_runners(log, 0.0, 1.0, 0.0, sd2),
                         INSTANCE, cfg, seed=8)
        assert out.samples[0].n + out.samples[1].n == n_max == len(log)
        counts = [0, 0]
        for algo, seed, key in log:
            assert seed == derive_seed(8, algo, counts[algo])
            assert key == oracles.reference_key(seed)
            counts[algo] += 1
        assert len(set(run_seeds(log))) == len(log)


class TestAnnealingDemo:
    def test_two_temperatures_meet_percent_budget(self):
        # scenario shape: one distance matrix, two annealing temperatures
        instance = build_tsp_instance("tsp21", n_cities=21, layout_seed=4)
        r1 = Runner(AlgorithmSpec(alias="cool", kind=AlgorithmKind.DEMO_SANN_TSP,
                                  params={"temp": 2000.0, "budget": 1500}))
        r2 = Runner(AlgorithmSpec(alias="hot", kind=AlgorithmKind.DEMO_SANN_TSP,
                                  params={"temp": 4000.0, "budget": 1500}))
        cfg = SamplingConfig(se_max=0.01, n0=20, n_max=200,
                             diff_kind=DiffKind.PERCENT)
        out = calc_nreps(r1, r2, instance, cfg, seed=1234)
        assert out.diff.se_hat <= 0.01 or out.diff.budget_exhausted
        assert out.samples[0].n >= 20 and out.samples[1].n >= 20
        assert out.samples[0].n + out.samples[1].n <= 200
