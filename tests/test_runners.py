import math
import shlex
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import oracles
import paircomp.runners as runners_module
from paircomp.design import ComparisonDesign
from paircomp.errors import RunnerError
from paircomp.experiment import ExperimentPlan
from paircomp.runners import (PARAMS, _REQUIRED, AlgorithmKind, AlgorithmSpec,
                              InstanceRef, bind, build_synthetic_pool,
                              build_tsp_instance)
from paircomp.sampler import SamplingConfig
from paircomp.seeding import derive_seed, run_keys


def spec(kind, alias="algo", **params):
    return AlgorithmSpec(alias=alias, kind=kind, params=params)


def plan_with(algorithm, instance):
    """A plan that runs ``algorithm`` against a synthetic one on ``instance``."""
    other = AlgorithmSpec(alias="other", kind=AlgorithmKind.SYNTHETIC_NORMAL)
    return ExperimentPlan(
        design=ComparisonDesign(alpha=0.05, power_target=0.8, mres_d=0.5),
        sampling=SamplingConfig(se_max=1.0), instance_pool=(instance,),
        algorithms=(algorithm, other), master_seed=1)


class TestSyntheticRunners:
    def test_degenerate_spread_returns_mean_exactly(self):
        s = spec(AlgorithmKind.SYNTHETIC_NORMAL, mu=5.0, sigma=0.0)
        for seed in (0, 1, 999):
            assert oracles.run_once(s, InstanceRef(id="i"), seed) == 5.0

    def test_same_seed_same_value(self):
        s = spec(AlgorithmKind.SYNTHETIC_NORMAL, mu=0.0, sigma=1.0)
        inst = InstanceRef(id="i")
        assert oracles.run_once(s, inst, 42) == oracles.run_once(s, inst, 42)

    def test_different_seeds_differ(self):
        s = spec(AlgorithmKind.SYNTHETIC_NORMAL, mu=0.0, sigma=1.0)
        inst = InstanceRef(id="i")
        assert oracles.run_once(s, inst, 1) != oracles.run_once(s, inst, 2)

    def test_law_of_large_numbers(self):
        s = spec(AlgorithmKind.SYNTHETIC_NORMAL, mu=0.0, sigma=1.0)
        inst = InstanceRef(id="i")
        values = np.array([oracles.run_once(s, inst, seed) for seed in range(10**5)])
        assert abs(values.mean()) < 0.02
        assert abs(values.std(ddof=1) - 1.0) < 0.02

    def test_instance_payload_overrides_parameters(self):
        s = spec(AlgorithmKind.SYNTHETIC_NORMAL, alias="a2", mu=0.0, sigma=0.0)
        inst = InstanceRef(id="i", payload={"a2": {"mu": 3.25}})
        assert oracles.run_once(s, inst, 7) == 3.25

    def test_lognormal_is_positive_and_deterministic(self):
        s = spec(AlgorithmKind.SYNTHETIC_LOGNORMAL, mu=1.0, sigma=0.5)
        inst = InstanceRef(id="i")
        vals = [oracles.run_once(s, inst, k) for k in range(50)]
        assert all(v > 0 for v in vals)
        assert oracles.run_once(s, inst, 3) == vals[3]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match=r"params\.sigma must be a finite "
                                             r"number >= 0, got -1\.0"):
            spec(AlgorithmKind.SYNTHETIC_NORMAL, mu=0.0, sigma=-1.0)

    def test_run_returns_finite_float(self):
        s = spec(AlgorithmKind.SYNTHETIC_NORMAL, mu=2.0, sigma=1.0)
        value = oracles.run_once(s, InstanceRef(id="i"), 11)
        assert type(value) is float and math.isfinite(value)


class TestSyntheticPool:
    def test_fully_degenerate_pool(self):
        pool, (s1, s2) = build_synthetic_pool(4, delta=0.0, sigma_phi=0.0,
                                              noise_sd=0.0, seed=1, base_mean=7.0)
        for inst in pool:
            v1 = {oracles.run_once(s1, inst, k) for k in range(3)}
            v2 = {oracles.run_once(s2, inst, k) for k in range(3)}
            assert v1 == v2 == {7.0}

    def test_ids_distinct_and_sized(self):
        pool, _ = build_synthetic_pool(250, delta=0.1, sigma_phi=1.0,
                                       noise_sd=0.5, seed=2)
        assert len(pool) == 250
        assert len({i.id for i in pool}) == 250

    def test_latent_differences_center_on_delta(self):
        pool, (s1, s2) = build_synthetic_pool(10**4, delta=0.5, sigma_phi=1.0,
                                              noise_sd=0.01, seed=3)
        run_once = oracles.run_once
        phis = []
        for k, inst in enumerate(pool):
            a = np.mean([run_once(s1, inst, 2 * k), run_once(s1, inst, 2 * k + 1)])
            b = np.mean([run_once(s2, inst, 10**7 + 2 * k),
                         run_once(s2, inst, 10**7 + 2 * k + 1)])
            phis.append(b - a)
        assert abs(np.mean(phis) - 0.5) < 0.02

    def test_pool_is_seed_deterministic(self):
        p1, _ = build_synthetic_pool(5, delta=0.3, sigma_phi=1.0, noise_sd=0.1, seed=9)
        p2, _ = build_synthetic_pool(5, delta=0.3, sigma_phi=1.0, noise_sd=0.1, seed=9)
        assert [i.payload for i in p1] == [i.payload for i in p2]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            build_synthetic_pool(0, delta=0.0, sigma_phi=1.0, noise_sd=1.0, seed=1)

    @pytest.mark.parametrize("extra", [1, 10 ** 400])
    def test_oversized_pool_rejected_before_any_draw(self, extra):
        count = runners_module.MAX_POOL_INSTANCES + extra
        with pytest.raises(ValueError, match=f"at most 1000000 instances are allowed, "
                                             f"got {count}: .* 1.2 kB per instance"):
            build_synthetic_pool(count, seed=1)


@pytest.fixture
def echo_stub(tmp_path):
    """Executable printing a header line plus a seed-derived value."""
    script = tmp_path / "echo_stub.py"
    script.write_text(textwrap.dedent("""\
        import sys
        instance, seed = sys.argv[1], int(sys.argv[2])
        print("solver log line, instance", instance)
        print(repr(seed * 0.125 + 3.0))
        """))
    return script


class TestSubprocessRunner:
    def sub_spec(self, stub, **kwargs):
        params = {"executable": sys.executable,
                  "args": [str(stub), "{instance}", "{seed}"]}
        params.update(kwargs.pop("params", {}))
        return AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                             params=params, **kwargs)

    def test_round_trip_is_bit_exact(self, echo_stub):
        s = self.sub_spec(echo_stub)
        inst = InstanceRef(id="case7", payload={"path": "case7.txt"})
        assert oracles.run_once(s, inst, 816) == 816 * 0.125 + 3.0

    def test_instance_placeholder_uses_payload_path(self, echo_stub, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("import sys; print(len(sys.argv[1]))")
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": sys.executable,
                                  "args": [str(probe), "{instance}"]})
        assert oracles.run_once(s, InstanceRef(id="x", payload={"path": "abcdef"}), 1) == 6.0

    def test_args_string_is_split_like_a_shell(self, echo_stub, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("import sys; print(len(sys.argv[1]))")
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": sys.executable,
                                  "args": f"{shlex.quote(str(probe))} 'a b {{seed}}'"})
        assert oracles.run_once(s, InstanceRef(id="x"), 123) == 7.0  # 'a b 123'
        s = self.sub_spec(echo_stub, params={
            "args": f"{shlex.quote(str(echo_stub))} {{instance}} {{seed}}"})
        assert oracles.run_once(s, InstanceRef(id="case7"), 816) == 816 * 0.125 + 3.0

    def test_nonzero_exit_raises(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import sys; print('partial'); sys.exit(3)")
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": sys.executable, "args": [str(bad)]})
        with pytest.raises(RunnerError, match="status 3") as err:
            oracles.run_once(s, InstanceRef(id="i"), 1)
        assert "partial" in (err.value.output_excerpt or "")

    def test_unparsable_output_raises(self, tmp_path):
        bad = tmp_path / "words.py"
        bad.write_text("print('no numbers here')")
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": sys.executable, "args": [str(bad)]})
        with pytest.raises(RunnerError, match="not a decimal"):
            oracles.run_once(s, InstanceRef(id="i"), 1)

    def test_empty_output_raises(self, tmp_path):
        quiet = tmp_path / "quiet.py"
        quiet.write_text("pass")
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": sys.executable, "args": [str(quiet)]})
        with pytest.raises(RunnerError, match="no output"):
            oracles.run_once(s, InstanceRef(id="i"), 1)

    def test_timeout_raises(self, tmp_path):
        slow = tmp_path / "slow.py"
        slow.write_text("import time; time.sleep(30); print(1.0)")
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": sys.executable, "args": [str(slow)]},
                          timeout=0.2)
        with pytest.raises(RunnerError, match="timed out"):
            oracles.run_once(s, InstanceRef(id="i"), 1)

    def test_timeout_keeps_output_excerpt(self):
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": "/bin/sh",
                                  "args": ["-c", "echo partial; echo warn >&2; sleep 30"]},
                          timeout=0.5)
        with pytest.raises(RunnerError, match="timed out") as info:
            oracles.run_once(s, InstanceRef(id="i"), 1)
        assert "partial" in info.value.output_excerpt
        assert "warn" in info.value.output_excerpt

    def test_timeout_kills_the_whole_process_group(self, tmp_path):
        marker = tmp_path / "MARKER"
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": "/bin/sh",
                                  "args": ["-c", f"(sleep 2; touch {marker}) & wait"]},
                          timeout=0.5)
        with pytest.raises(RunnerError, match="timed out"):
            oracles.run_once(s, InstanceRef(id="i"), 1)
        time.sleep(3.0)
        assert not marker.exists()

    def test_interrupt_kills_the_whole_process_group(self, tmp_path, monkeypatch):
        marker = tmp_path / "MARKER"
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": "/bin/sh",
                                  "args": ["-c", f"(sleep 2; touch {marker}) & wait"]})

        def interrupted(proc, timeout=None):
            time.sleep(0.5)  # the shell has started its background job by now
            raise KeyboardInterrupt

        monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            oracles.run_once(s, InstanceRef(id="i"), 1)
        monkeypatch.undo()
        time.sleep(3.0)
        assert not marker.exists()

    def test_a_stop_set_mid_wait_kills_the_whole_process_group(self, tmp_path):
        # the stop comes from another thread, as an experiment's interrupt
        # sets it; the waiting run must see it within a slice
        marker = tmp_path / "MARKER"
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": "/bin/sh",
                                  "args": ["-c", f"(sleep 2; touch {marker}) & wait"]})
        stop, set_at = threading.Event(), []

        def set_stop():
            set_at.append(time.monotonic())
            stop.set()

        setter = threading.Timer(0.5, set_stop)  # the background job has started
        setter.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                bind(s, InstanceRef(id="i"), stop)(1, oracles.reference_key(1))
            raised = time.monotonic()
        finally:
            setter.join(timeout=5)
        assert not setter.is_alive()
        assert raised - set_at[0] < 1.0
        time.sleep(3.0)
        assert not marker.exists()

    @pytest.mark.parametrize("kind", [AlgorithmKind.SUBPROCESS,
                                      AlgorithmKind.SYNTHETIC_NORMAL])
    def test_a_set_stop_starts_no_run(self, tmp_path, kind):
        marker = tmp_path / "MARKER"
        params = ({"executable": "/bin/sh", "args": ["-c", f"touch {marker}; echo 1"]}
                  if kind is AlgorithmKind.SUBPROCESS else {})
        stop = threading.Event()
        stop.set()
        run = bind(AlgorithmSpec(alias="ext", kind=kind, params=params),
                   InstanceRef(id="i"), stop)
        with pytest.raises(KeyboardInterrupt):
            run(1, oracles.reference_key(1))
        assert not marker.exists()

    def test_the_timeout_is_not_stretched_by_the_slices(self, tmp_path):
        slow = tmp_path / "slow.py"
        slow.write_text("import time; time.sleep(5); print(1.0)")
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": sys.executable, "args": [str(slow)]},
                          timeout=0.25)
        run = bind(s, InstanceRef(id="i"), threading.Event())
        started = time.monotonic()
        with pytest.raises(RunnerError, match="timed out after 0.25s"):
            run(1, oracles.reference_key(1))
        assert time.monotonic() - started < 0.6

    def test_no_executable_parameter_is_config_error(self):
        with pytest.raises(ValueError, match=r"params\.executable is required"):
            AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS, params={})

    def test_missing_executable_raises(self):
        s = AlgorithmSpec(alias="ext", kind=AlgorithmKind.SUBPROCESS,
                          params={"executable": "/nonexistent/solver"})
        with pytest.raises(RunnerError, match="launch"):
            oracles.run_once(s, InstanceRef(id="i"), 1)


class TestAnnealingDemoRunner:
    def test_deterministic_given_seed(self):
        inst = build_tsp_instance("t", n_cities=15, layout_seed=1)
        s = spec(AlgorithmKind.DEMO_SANN_TSP, temp=2000.0, budget=800)
        assert oracles.run_once(s, inst, 5) == oracles.run_once(s, inst, 5)

    def test_positive_tour_length(self):
        inst = build_tsp_instance("t", n_cities=12, layout_seed=2)
        s = spec(AlgorithmKind.DEMO_SANN_TSP, temp=1000.0, budget=500)
        assert oracles.run_once(s, inst, 1) > 0

    def test_longer_budget_does_not_hurt(self):
        inst = build_tsp_instance("t", n_cities=18, layout_seed=3)
        short = spec(AlgorithmKind.DEMO_SANN_TSP, temp=1000.0, budget=50)
        long = spec(AlgorithmKind.DEMO_SANN_TSP, temp=1000.0, budget=5000)
        short_best = np.median([oracles.run_once(short, inst, k) for k in range(9)])
        long_best = np.median([oracles.run_once(long, inst, k) for k in range(9)])
        assert long_best <= short_best

    def test_inline_matrix_payload(self):
        d = [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
        inst = InstanceRef(id="sq", payload={"distance_matrix": d})
        s = spec(AlgorithmKind.DEMO_SANN_TSP, temp=10.0, budget=400)
        # optimal tour of this line graph costs 1+1+1+3
        assert oracles.run_once(s, inst, 0) >= 6.0

    def test_generated_payload_form(self):
        inst = InstanceRef(id="gen", payload={"cities": 10, "layout_seed": 4})
        s = spec(AlgorithmKind.DEMO_SANN_TSP, temp=100.0, budget=300)
        assert oracles.run_once(s, inst, 0) > 0

    def test_builder_refuses_fewer_than_four_cities(self):
        with pytest.raises(ValueError, match="at least 4 cities, got 3"):
            build_tsp_instance("t", n_cities=3)

    def test_builder_refuses_more_cities_than_the_bound(self, monkeypatch):
        # the refusal comes before the layout draw, let alone the matrix
        def refuse(seed):
            raise AssertionError("the layout was drawn")

        monkeypatch.setattr(runners_module, "make_generator", refuse)
        with pytest.raises(ValueError, match="at most 1000 cities are allowed, "
                                             "got 1000000"):
            build_tsp_instance("t", n_cities=10 ** 6)
        monkeypatch.undo()
        assert len(build_tsp_instance("t", n_cities=1000).payload["distance_matrix"]) \
            == 1000

    def test_bad_payload_rejected(self):
        s = spec(AlgorithmKind.DEMO_SANN_TSP)
        with pytest.raises(ValueError, match="instance 'nothing', algorithm "
                                             "'algo': the payload needs"):
            plan_with(s, InstanceRef(id="nothing"))

    @pytest.mark.parametrize("payload, params, message", [
        ({"distance_matrix": [[0, 1], [1, 0]]}, {},
         "payload.distance_matrix must be a square matrix"),
        ({"cities": 3}, {}, "payload.cities must be an integer >= 4, got 3"),
        ({"cities": 5}, {"temp": 0.0}, "params.temp must be a finite number > 0"),
        ({"cities": 5}, {"budget": 0}, "params.budget must be an integer >= 1"),
    ], ids=["two-by-two-matrix", "three-cities", "zero-temp", "zero-budget"])
    def test_invalid_instance_or_params_rejected(self, payload, params, message):
        # params are refused with the spec, the payload with the plan
        with pytest.raises(ValueError, match=message):
            plan_with(spec(AlgorithmKind.DEMO_SANN_TSP, **params),
                      InstanceRef(id="bad", payload=payload))


class TestSpecValidation:
    def test_empty_alias_rejected(self):
        with pytest.raises(ValueError):
            AlgorithmSpec(alias="", kind=AlgorithmKind.SYNTHETIC_NORMAL)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            AlgorithmSpec(alias="a", kind="quantum")

    def test_empty_instance_id_rejected(self):
        with pytest.raises(ValueError):
            InstanceRef(id="")


class TestParamTables:
    """Each kind's params table decides what a spec accepts and what it runs."""

    @pytest.mark.parametrize("kind, key", [
        pytest.param(kind, key, id=f"{kind.value}.{key}")
        for kind, table in PARAMS.items() for key in table])
    def test_every_param_refuses_a_bool_and_accepts_its_default(self, kind, key):
        _, ok, default = PARAMS[kind][key]
        assert not ok(True)
        assert default is _REQUIRED or ok(default)

    @pytest.mark.parametrize("kind, params", [
        (AlgorithmKind.SYNTHETIC_NORMAL, {}),
        (AlgorithmKind.SYNTHETIC_LOGNORMAL, {}),
        (AlgorithmKind.DEMO_SANN_TSP, {"budget": 300}),
        (AlgorithmKind.DEMO_SANN_TSP, {"temp": 10.0}),
    ], ids=["normal", "lognormal", "tsp-temp", "tsp-budget"])
    def test_an_absent_param_runs_at_its_default(self, kind, params):
        explicit = {key: default for key, (_, _, default) in PARAMS[kind].items()}
        explicit.update(params)
        inst = build_tsp_instance("t", n_cities=6, layout_seed=1)
        assert oracles.run_once(spec(kind, **params), inst, 3) == \
            oracles.run_once(spec(kind, **explicit), inst, 3)

    @pytest.mark.parametrize("kind, params, message", [
        (AlgorithmKind.SYNTHETIC_NORMAL, {"mu": 1, "sgima": 5},
         r"params\.sgima is not a synthetic_normal parameter; "
         r"allowed: \['mu', 'sigma'\]"),
        (AlgorithmKind.SYNTHETIC_NORMAL, {"temp": 5},
         r"params\.temp is not a synthetic_normal parameter"),
        (AlgorithmKind.SYNTHETIC_NORMAL, {"mu": [1]}, r"params\.mu must be a finite number"),
        (AlgorithmKind.SYNTHETIC_NORMAL, {"mu": "x"}, r"params\.mu must be"),
        (AlgorithmKind.SYNTHETIC_NORMAL, {"mu": True}, r"params\.mu must be"),
        (AlgorithmKind.SYNTHETIC_NORMAL, {"mu": 10 ** 400}, r"params\.mu must be"),
        (AlgorithmKind.SYNTHETIC_LOGNORMAL, {"sigma": math.inf}, r"params\.sigma must be"),
        (AlgorithmKind.SYNTHETIC_LOGNORMAL, {"sigma": math.nan}, r"params\.sigma must be"),
        (AlgorithmKind.DEMO_SANN_TSP, {"budget": 2.5}, r"params\.budget must be an integer"),
        (AlgorithmKind.DEMO_SANN_TSP, {"budget": True}, r"params\.budget must be"),
        (AlgorithmKind.DEMO_SANN_TSP, {"temp": -1}, r"params\.temp must be"),
        (AlgorithmKind.SUBPROCESS, {"executable": ""}, r"params\.executable must be"),
        (AlgorithmKind.SUBPROCESS, {"executable": 5}, r"params\.executable must be"),
        (AlgorithmKind.SUBPROCESS, {"executable": "x", "args": 5}, r"params\.args must be"),
        (AlgorithmKind.SUBPROCESS, {"executable": "x", "args": "'open"},
         r"params\.args must be"),
    ], ids=["typo", "other-kind", "mu-list", "mu-string", "mu-bool", "mu-huge-int",
            "sigma-inf", "sigma-nan", "budget-float", "budget-bool", "temp-negative",
            "executable-empty", "executable-number", "args-number", "args-open-quote"])
    def test_bad_params_refused_with_the_spec(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            spec(kind, **params)

    @pytest.mark.parametrize("algorithm, payload, message", [
        (spec(AlgorithmKind.SYNTHETIC_NORMAL), {"algo": 5},
         r"payload\.algo must be a mapping, got 5"),
        (spec(AlgorithmKind.SYNTHETIC_NORMAL), {"algo": {"mu": "x"}},
         r"payload\.algo\.mu must be a finite number, got 'x'"),
        (spec(AlgorithmKind.SYNTHETIC_NORMAL), {"algo": {"sgima": 1}},
         r"payload\.algo\.sgima is not a synthetic_normal parameter"),
        (spec(AlgorithmKind.DEMO_SANN_TSP), {"cities": 4.0}, r"payload\.cities must be"),
        (spec(AlgorithmKind.DEMO_SANN_TSP), {"cities": 5, "layout_seed": -1},
         r"payload\.layout_seed must be an integer >= 0"),
        (spec(AlgorithmKind.DEMO_SANN_TSP), {"distance_matrix": [[0, 1, 2, 3]] * 3},
         r"payload\.distance_matrix must be a square matrix"),
        (spec(AlgorithmKind.DEMO_SANN_TSP), {"distance_matrix": [[0, 1], [1]]},
         r"payload\.distance_matrix must be a square matrix"),
        (spec(AlgorithmKind.SUBPROCESS, executable="x"), {"path": 5},
         r"payload\.path must be a string, got 5"),
    ], ids=["override-not-a-mapping", "override-mu-string", "override-typo",
            "cities-float", "negative-layout-seed", "matrix-not-square",
            "matrix-ragged", "path-number"])
    def test_bad_payload_refused_with_the_plan(self, algorithm, payload, message):
        inst = InstanceRef(id="i7", payload=payload)
        with pytest.raises(ValueError, match="instance 'i7', algorithm 'algo': "
                                             + message):
            plan_with(algorithm, inst)
        # a run reads its payload through the same check
        with pytest.raises(ValueError, match=message):
            oracles.run_once(algorithm, inst, 1)

    def test_payload_keys_no_algorithm_reads_are_free(self):
        # a subprocess reads only 'path', a synthetic algorithm only its alias
        inst = InstanceRef(id="i", payload={"path": "p", "cities": 3, "algo": 5,
                                            "other": {"mu": 2.0}, "notes": [1]})
        plan = plan_with(spec(AlgorithmKind.SUBPROCESS, executable="x"), inst)
        assert plan.instance_pool == (inst,)


class TestBoundRuns:
    """A bound run re-keys one kept generator; it must draw what a generator
    built by numpy's own constructor from the run's seed draws."""

    SEEDS = [derive_seed(31, algo, run) for algo in (0, 1) for run in range(40)]

    def keys(self):
        return run_keys([(31, 0), (31, 1)], range(40))[1].reshape(80, 2).tolist()

    def test_normal_values_equal_reference_draws(self):
        run = bind(spec(AlgorithmKind.SYNTHETIC_NORMAL, mu=2.0, sigma=0.5),
                   InstanceRef(id="i"))
        for seed, key in zip(self.SEEDS, self.keys()):
            assert run(seed, key) == \
                2.0 + 0.5 * oracles.reference_generator(seed).standard_normal()

    def test_lognormal_values_equal_reference_draws(self):
        run = bind(spec(AlgorithmKind.SYNTHETIC_LOGNORMAL, mu=0.1, sigma=0.3),
                   InstanceRef(id="i", payload={"algo": {"sigma": 0.7}}))
        for seed, key in zip(self.SEEDS, self.keys()):
            assert run(seed, key) == \
                math.exp(0.1 + 0.7 * oracles.reference_generator(seed).standard_normal())

    def test_tsp_values_equal_reference_draws(self, monkeypatch):
        inst = build_tsp_instance("t", n_cities=12, layout_seed=4)
        algorithm = spec(AlgorithmKind.DEMO_SANN_TSP, temp=500.0, budget=300)
        keys = self.keys()[:12]
        rekeyed = [bind(algorithm, inst)(seed, key) for seed, key in zip(self.SEEDS, keys)]
        by_key = {tuple(key): seed for seed, key in zip(self.SEEDS, keys)}
        monkeypatch.setattr(runners_module, "kept_generator",
                            lambda key: oracles.reference_generator(by_key[tuple(key)]))
        reference = [bind(algorithm, inst)(seed, key) for seed, key in zip(self.SEEDS, keys)]
        assert rekeyed == reference

    def test_inputs_are_read_once_per_binding(self, monkeypatch):
        # the binder reads the payload; the runs it returns must not
        binds, reads = [], []
        binder = runners_module._BINDERS[AlgorithmKind.SYNTHETIC_NORMAL]

        def counting(spec_, instance, stop):
            binds.append(instance.id)
            return binder(spec_, instance, stop)

        class Payload(dict):
            def get(self, *args):
                reads.append(args[0])
                return super().get(*args)

        monkeypatch.setitem(runners_module._BINDERS, AlgorithmKind.SYNTHETIC_NORMAL,
                            counting)
        bound = bind(spec(AlgorithmKind.SYNTHETIC_NORMAL),
                     InstanceRef(id="i", payload=Payload(algo={"mu": 1.0})))
        assert binds == ["i"] and reads == ["algo"]
        for seed, key in zip(self.SEEDS, self.keys()):
            bound(seed, key)
        assert binds == ["i"] and reads == ["algo"]
