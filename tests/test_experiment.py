import dataclasses
import json
import math
import os
import signal
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import paircomp.experiment as experiment_module
import paircomp.runners as runners_module
import paircomp.sampler as sampler_module
import paircomp.seeding as seeding_module
from paircomp.design import Alternative, ComparisonDesign, TestFamily, calc_power
from paircomp.errors import (ConfigError, ExperimentAbortedError, RunnerError)
from paircomp.estimators import DiffKind, SEMethod
from paircomp.experiment import (ExperimentPlan, _plan_fingerprint, run_experiment,
                                 select_instances)
from paircomp.reporting import write_report_json, write_results_table, write_values
from paircomp.runners import (AlgorithmKind, AlgorithmSpec, InstanceRef, bind,
                              build_synthetic_pool, build_tsp_instance)
from paircomp.sampler import SamplingConfig, calc_nreps


def null_pool(size):
    """Instances with no latent differences for identically distributed algorithms."""
    return tuple(InstanceRef(id=f"i{k:03d}") for k in range(size))


def identical_normal_specs():
    return (AlgorithmSpec(alias="a1", kind=AlgorithmKind.SYNTHETIC_NORMAL,
                          params={"mu": 0.0, "sigma": 1.0}),
            AlgorithmSpec(alias="a2", kind=AlgorithmKind.SYNTHETIC_NORMAL,
                          params={"mu": 0.0, "sigma": 1.0}))


def make_plan(pool_size=50, d=0.5, power=0.85, alpha=0.05, family=TestFamily.T_TEST,
              alternative=Alternative.TWO_SIDED, se_max=1.0, n0=4, n_max=40,
              master_seed=2024, use_all=False, workers=1, pool=None, specs=None):
    design = ComparisonDesign(alpha=alpha, power_target=power, mres_d=d,
                              alternative=alternative, test_family=family)
    sampling = SamplingConfig(se_max=se_max, n0=n0, n_max=n_max, resamples=200)
    if pool is None:
        pool, built = build_synthetic_pool(pool_size, delta=0.3, sigma_phi=1.0,
                                           noise_sd=0.5, seed=11,
                                           aliases=("a1", "a2"))
        specs = specs or built
    return ExperimentPlan(design=design, sampling=sampling,
                          instance_pool=tuple(pool), algorithms=tuple(specs),
                          master_seed=master_seed, use_all_instances=use_all,
                          workers=workers)


class TestInstanceSelection:
    def test_exactly_n_star_instances_used(self):
        report, _ = run_experiment(make_plan(pool_size=50))
        assert report.n_instances_used == 38
        ids = [d.instance_id for d in report.per_instance]
        assert len(set(ids)) == 38

    def test_small_pool_uses_all_and_warns(self):
        plan = make_plan(pool_size=20)
        report, _ = run_experiment(plan)
        assert report.n_instances_used == 20
        joined = "\n".join(report.warnings)
        assert "20" in joined and "38" in joined
        achievable = calc_power(20, 0.5, plan.design.alpha, plan.design.alternative)
        assert f"{achievable:.6g}" in joined

    def test_use_all_instances(self):
        report, _ = run_experiment(make_plan(pool_size=45, use_all=True))
        assert report.n_instances_used == 45

    def test_selection_deterministic_under_master_seed(self):
        r1, _ = run_experiment(make_plan(master_seed=7))
        r2, _ = run_experiment(make_plan(master_seed=7))
        r3, _ = run_experiment(make_plan(master_seed=8))
        ids1 = [d.instance_id for d in r1.per_instance]
        ids2 = [d.instance_id for d in r2.per_instance]
        ids3 = [d.instance_id for d in r3.per_instance]
        assert ids1 == ids2
        assert ids1 != ids3

    def test_wilcoxon_family_consumes_adjusted_count(self):
        report, _ = run_experiment(make_plan(pool_size=60,
                                             family=TestFamily.WILCOXON))
        assert report.n_instances_used == 45
        assert report.test_family is TestFamily.WILCOXON


class TestReportContents:
    def test_pseudoreplication_guard(self):
        # degrees of freedom follow the instance count, not the run counts
        plan = make_plan(pool_size=40, se_max=0.3, n0=4, n_max=60)
        report, _ = run_experiment(plan)
        run_counts = {(d.n1, d.n2) for d in report.per_instance}
        assert len(run_counts) > 1
        assert report.df == report.n_instances_used - 1

    def test_per_instance_table_shape(self):
        report, _ = run_experiment(make_plan(pool_size=20))
        for d in report.per_instance:
            assert d.n1 >= 4 and d.n2 >= 4
            assert d.se_hat >= 0.0
            assert d.diff_kind is DiffKind.SIMPLE

    def test_diagnostics_attached(self):
        report, diag = run_experiment(make_plan(pool_size=20))
        assert len(diag.qq_points) == report.n_instances_used
        assert len(diag.boot_sdm) == 200

    def test_determinism_end_to_end(self):
        a, diag_a = run_experiment(make_plan())
        b, diag_b = run_experiment(make_plan())
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        assert [(d.phi_hat, d.se_hat, d.n1, d.n2) for d in a.per_instance] == \
               [(d.phi_hat, d.se_hat, d.n1, d.n2) for d in b.per_instance]
        assert diag_a.boot_sdm == diag_b.boot_sdm

    def test_workers_do_not_change_results(self):
        serial, _ = run_experiment(make_plan(pool_size=20, workers=1))
        threaded, _ = run_experiment(make_plan(pool_size=20, workers=4))
        assert serial.statistic == threaded.statistic
        assert [d.phi_hat for d in serial.per_instance] == \
               [d.phi_hat for d in threaded.per_instance]

    @pytest.mark.parametrize("pool_kind", ["synthetic", "tsp"])
    def test_eight_workers_write_the_bytes_of_one(self, tmp_path, pool_kind):
        # each worker thread re-keys a generator of its own; the outputs
        # must not depend on which thread ran which instance
        if pool_kind == "synthetic":
            plan = make_plan(pool_size=24, use_all=True, se_max=0.3, n0=3, n_max=30)
        else:
            pool = [build_tsp_instance(f"t{k}", n_cities=8, layout_seed=k)
                    for k in range(10)]
            specs = tuple(AlgorithmSpec(alias=alias, kind=AlgorithmKind.DEMO_SANN_TSP,
                                        params={"temp": temp, "budget": 60})
                          for alias, temp in (("cool", 50.0), ("hot", 400.0)))
            plan = make_plan(pool=pool, specs=specs, use_all=True, se_max=0.5,
                             n0=3, n_max=14)
        written = []
        for workers in (1, 8):
            out = tmp_path / f"w{workers}"
            out.mkdir()
            report, diagnostics = run_experiment(
                replace(plan, workers=workers), checkpoint_path=out / "chk.jsonl")
            write_results_table(out / "results.csv", report.per_instance)
            write_report_json(out / "report.json", report)
            write_values(out / "boot_sdm.csv", diagnostics.boot_sdm, "mean")
            header, *rows = (out / "chk.jsonl").read_text().splitlines()
            # rows land in completion order, which threads may change
            written.append([(out / name).read_bytes() for name in
                            ("results.csv", "report.json", "boot_sdm.csv")]
                           + [header, sorted(rows)])
        assert written[0] == written[1]

    def test_one_instance_alone_equals_its_row_in_the_experiment(self):
        # run_experiment derives the first stage of all instances at once,
        # calc_nreps alone derives its own; the runs must be the same
        plan = make_plan(pool_size=30, use_all=True, se_max=0.2, n0=3, n_max=25)
        report, _ = run_experiment(plan)
        for (inst, seed), row in zip(select_instances(plan, 0), report.per_instance):
            runs = [bind(spec, inst) for spec in plan.algorithms]
            alone = calc_nreps(*runs, inst, plan.sampling, seed)
            assert alone == row

    @pytest.mark.parametrize("workers", [1, 4])
    def test_run_keys_derives_blocks_not_runs(self, monkeypatch, workers):
        # one call for the instance seeds, one per first-stage chunk, and per
        # instance one joint block for both algorithms' later runs,
        # since n_max - n0 runs fit in the first; a derivation per run would
        # take n_max - 2 * n0 per instance
        calls = []
        kernel = seeding_module.run_keys

        def counting(prefixes, runs):
            calls.append(len(prefixes))
            return kernel(prefixes, runs)

        for module in (seeding_module, sampler_module, experiment_module):
            monkeypatch.setattr(module, "run_keys", counting)
        n0, n_max = 3, 40
        plan = make_plan(pool_size=50, use_all=True, se_max=1e-6, n0=n0,
                         n_max=n_max, workers=workers)
        report, _ = run_experiment(plan)
        count = len(report.per_instance)
        assert all(d.n1 + d.n2 == n_max for d in report.per_instance)
        chunks = math.ceil(count / (seeding_module._FIRST_STAGE_RUNS // (2 * n0)))
        assert len(calls) == 1 + chunks + count

    @pytest.mark.parametrize("workers", [1, 4])
    def test_no_run_seed_is_used_twice(self, monkeypatch, workers):
        # every bound run of every instance and both algorithms, across the
        # first-stage blocks and the sampler's later ones
        seeds = []

        def recording_bind(spec, instance, stop=None):
            run = bind(spec, instance, stop)

            def record(seed, key):
                seeds.append(seed)
                return run(seed, key)
            return record

        monkeypatch.setattr(experiment_module, "bind", recording_bind)
        plan = make_plan(pool_size=30, use_all=True, se_max=0.3, n0=3, n_max=40,
                         workers=workers)
        report, _ = run_experiment(plan)
        runs = [d.n1 + d.n2 for d in report.per_instance]
        assert max(runs) > 2 * plan.sampling.n0
        assert len(seeds) == sum(runs)
        assert len(set(seeds)) == len(seeds)

    def test_unsafe_runner_forces_serial_execution(self):
        plan = make_plan(pool_size=20, workers=1)
        specs = tuple(
            AlgorithmSpec(alias=s.alias, kind=s.kind, params=dict(s.params),
                          concurrent_safe=False)
            for s in plan.algorithms)
        unsafe = make_plan(pool_size=20, workers=4, pool=plan.instance_pool,
                           specs=specs)
        serial, _ = run_experiment(plan)
        forced, _ = run_experiment(unsafe)
        assert serial.statistic == forced.statistic


class TestCalibration:
    def test_type_one_error_rate(self):
        # identical algorithms: rejection frequency must match alpha
        design_kwargs = dict(d=0.8, power=0.8, alpha=0.05)
        rejections = 0
        n_rep = 400
        for rep in range(n_rep):
            plan = make_plan(pool=null_pool(15), specs=identical_normal_specs(),
                             use_all=True, master_seed=rep * 7919 + 13,
                             **design_kwargs)
            report, _ = run_experiment(plan)
            rejections += report.p_value < plan.design.alpha
        rate = rejections / n_rep
        assert abs(rate - 0.05) < 0.03

    def test_large_effect_mostly_rejects(self):
        hits = 0
        for rep in range(50):
            pool, specs = build_synthetic_pool(15, delta=1.5, sigma_phi=0.5,
                                               noise_sd=0.2, seed=rep,
                                               aliases=("a1", "a2"))
            plan = make_plan(pool=pool, specs=specs, use_all=True, d=0.8,
                             power=0.8, master_seed=900_000 + rep)
            report, _ = run_experiment(plan)
            hits += report.p_value < 0.05
        assert hits >= 45


class TestCheckpointing:
    def test_journal_written_and_resume_skips(self, tmp_path, monkeypatch):
        plan = make_plan(pool_size=12, use_all=True)
        chk = tmp_path / "chk.jsonl"
        first, _ = run_experiment(plan, checkpoint_path=chk)
        lines = [json.loads(ln) for ln in chk.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert len(lines) == 1 + 12

        calls = []
        real = experiment_module.calc_nreps

        def counting(*args, **kwargs):
            calls.append(args[2].id)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment_module, "calc_nreps", counting)
        second, _ = run_experiment(plan, checkpoint_path=chk, resume=True)
        assert calls == []
        assert second.p_value == first.p_value
        assert [d.phi_hat for d in second.per_instance] == \
               [d.phi_hat for d in first.per_instance]

    def test_abort_preserves_partial_results(self, tmp_path, monkeypatch):
        plan = make_plan(pool_size=10, use_all=True)
        target = plan.instance_pool[6].id
        chk = tmp_path / "chk.jsonl"
        real = experiment_module.calc_nreps
        armed = {"on": True}

        def flaky(r1, r2, inst, cfg, seed, first):
            if armed["on"] and inst.id == target:
                raise RunnerError("injected failure", instance_id=inst.id)
            return real(r1, r2, inst, cfg, seed, first)

        monkeypatch.setattr(experiment_module, "calc_nreps", flaky)
        with pytest.raises(ExperimentAbortedError) as err:
            run_experiment(plan, checkpoint_path=chk)
        assert isinstance(err.value.cause, RunnerError)
        assert err.value.checkpoint_path == chk
        completed_rows = [ln for ln in chk.read_text().splitlines()[1:] if ln]
        assert len(completed_rows) == 6

        armed["on"] = False
        report, _ = run_experiment(plan, checkpoint_path=chk, resume=True)
        assert report.n_instances_used == 10

    def test_threaded_abort_journals_completed_instances(self, tmp_path, monkeypatch):
        plan = make_plan(pool_size=10, use_all=True, workers=4)
        target = plan.instance_pool[9].id
        chk = tmp_path / "chk.jsonl"
        real = experiment_module.calc_nreps
        armed = {"on": True}
        calls = []

        def flaky(r1, r2, inst, cfg, seed, first):
            calls.append(inst.id)
            if armed["on"] and inst.id == target:
                raise RunnerError("injected failure", instance_id=inst.id)
            return real(r1, r2, inst, cfg, seed, first)

        monkeypatch.setattr(experiment_module, "calc_nreps", flaky)
        with pytest.raises(ExperimentAbortedError):
            run_experiment(plan, checkpoint_path=chk)
        journaled = len(chk.read_text().splitlines()) - 1
        assert 0 <= journaled <= 9

        armed["on"] = False
        calls.clear()
        report, _ = run_experiment(plan, checkpoint_path=chk, resume=True)
        assert report.n_instances_used == 10
        assert len(calls) == 10 - journaled  # only the missing ones re-ran

    def test_threaded_abort_journals_what_the_pool_finishes(self, tmp_path, monkeypatch):
        # instance 1 fails while instances 0, 2 and 3 are still running:
        # each instance that returns must be journaled, so resume skips it
        plan = make_plan(pool_size=10, use_all=True, workers=4)
        target = plan.instance_pool[1].id
        chk = tmp_path / "chk.jsonl"
        real = experiment_module.calc_nreps
        returned = []

        def slow_or_failing(r1, r2, inst, cfg, seed, first):
            if inst.id == target:
                time.sleep(0.05)
                raise RunnerError("injected failure", instance_id=inst.id)
            time.sleep(0.3)
            outcome = real(r1, r2, inst, cfg, seed, first)
            returned.append(inst.id)
            return outcome

        monkeypatch.setattr(experiment_module, "calc_nreps", slow_or_failing)
        with pytest.raises(ExperimentAbortedError) as err:
            run_experiment(plan, checkpoint_path=chk)
        rows = [json.loads(ln) for ln in chk.read_text().splitlines()[1:]]
        assert returned
        assert sorted(row["instance_id"] for row in rows) == sorted(returned)
        assert err.value.completed == len(returned)

    def test_each_row_reaches_the_file_before_the_next_instance(self, tmp_path,
                                                                monkeypatch):
        # what a crash would leave behind: every finished row, while the
        # journal's handle is still open
        plan = make_plan(pool_size=8, use_all=True)
        chk = tmp_path / "chk.jsonl"
        real = experiment_module.calc_nreps
        seen = []

        def reading(*args):
            seen.append(len(chk.read_text().splitlines()))
            return real(*args)

        monkeypatch.setattr(experiment_module, "calc_nreps", reading)
        run_experiment(plan, checkpoint_path=chk)
        assert seen == list(range(1, 9))

    @pytest.mark.parametrize("error, raised", [
        (RunnerError("injected failure"), ExperimentAbortedError),
        (KeyboardInterrupt(), KeyboardInterrupt),
    ], ids=["runner-error", "interrupt"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_runner_raising_leaves_journal_closed_and_whole(self, tmp_path, monkeypatch,
                                                            workers, error, raised):
        plan = make_plan(pool_size=10, use_all=True, workers=workers)
        target = plan.instance_pool[6].id
        chk = tmp_path / "chk.jsonl"
        opened = []
        real_open = Path.open

        def spying_open(self, *args, **kwargs):
            fh = real_open(self, *args, **kwargs)
            if self == chk:
                opened.append(fh)
            return fh

        def failing_bind(spec, instance, stop=None):
            run = bind(spec, instance, stop)
            if instance.id != target:
                return run

            def fail(seed, key):
                raise error
            return fail

        real = experiment_module.calc_nreps
        returned = []

        def recording(*args):
            outcome = real(*args)
            returned.append(args[2].id)
            return outcome

        monkeypatch.setattr(Path, "open", spying_open)
        monkeypatch.setattr(experiment_module, "bind", failing_bind)
        monkeypatch.setattr(experiment_module, "calc_nreps", recording)
        with pytest.raises(raised):
            run_experiment(plan, checkpoint_path=chk)
        assert opened and all(fh.closed for fh in opened)
        header, *rows = chk.read_text().splitlines()
        assert json.loads(header)["kind"] == "header"
        assert sorted(json.loads(row)["instance_id"] for row in rows) == sorted(returned)
        ids = [inst.id for inst in plan.instance_pool]
        assert set(ids[:5]) <= set(returned) and target not in returned

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_unwritten_row_is_not_counted(self, tmp_path, monkeypatch, workers):
        plan = make_plan(pool_size=10, use_all=True, workers=workers)
        chk = tmp_path / "chk.jsonl"
        real = experiment_module._Journal.append
        appended = []

        def third_fails(journal, diff):
            appended.append(diff.instance_id)
            if len(appended) == 3:
                raise OSError("no space left on device")
            real(journal, diff)

        monkeypatch.setattr(experiment_module._Journal, "append", third_fails)
        with pytest.raises(ExperimentAbortedError) as err:
            run_experiment(plan, checkpoint_path=chk)
        assert isinstance(err.value.cause, OSError)
        assert f"instance {appended[2]}: no space left" in str(err.value)
        rows = chk.read_text().splitlines()[1:]
        assert err.value.completed == len(rows)
        assert f"aborted after {len(rows)} instance(s)" in str(err.value)

    def test_resume_rejects_other_configuration(self, tmp_path):
        chk = tmp_path / "chk.jsonl"
        run_experiment(make_plan(pool_size=12, use_all=True, master_seed=1),
                       checkpoint_path=chk)
        other = make_plan(pool_size=12, use_all=True, master_seed=2)
        with pytest.raises(ConfigError, match="different experiment"):
            run_experiment(other, checkpoint_path=chk, resume=True)

    def test_fresh_run_overwrites_journal(self, tmp_path):
        plan = make_plan(pool_size=12, use_all=True)
        chk = tmp_path / "chk.jsonl"
        run_experiment(plan, checkpoint_path=chk)
        size_one = len(chk.read_text().splitlines())
        run_experiment(plan, checkpoint_path=chk)
        assert len(chk.read_text().splitlines()) == size_one


# the fields no journaled row depends on, so a resume may change them
NOT_FINGERPRINTED = {"timeout", "concurrent_safe", "workers", "sigma_phi_bound"}

# another valid value for each field, or a function of the old value; a
# field added later has none, and fails below until someone decides
# whether the rows depend on it
OTHER_VALUE = {
    ComparisonDesign: {
        "alpha": 0.01, "power_target": 0.9, "mres_d": 0.6,
        "alternative": Alternative.ONE_SIDED, "test_family": TestFamily.SIGN,
        "mu0": 0.1},
    SamplingConfig: {
        "se_max": 0.9, "n0": 5, "n_max": 41, "diff_kind": DiffKind.PERCENT,
        "se_method": SEMethod.BOOTSTRAP, "resamples": 500, "force_balance": True},
    AlgorithmSpec: {
        "alias": "renamed", "kind": AlgorithmKind.SYNTHETIC_LOGNORMAL,
        "params": {"mu": 1.0}, "timeout": 60.0, "concurrent_safe": False},
    InstanceRef: {"id": "renamed", "payload": {"a1": {"mu": 9.0}}},
    ExperimentPlan: {
        "design": lambda design: replace(design, alpha=0.01),
        "sampling": lambda sampling: replace(sampling, n0=5),
        "instance_pool": lambda pool: pool[::-1],
        "algorithms": lambda algorithms: algorithms[::-1],
        "master_seed": 1, "use_all_instances": True, "workers": 3,
        "sigma_phi_bound": 2.0},
}


def with_field(plan, cls, name):
    """``plan`` with field ``name`` of its first ``cls`` object changed."""
    def change(obj):
        old = getattr(obj, name)
        new = OTHER_VALUE[cls][name]
        new = new(old) if callable(new) else new
        assert new != old
        return replace(obj, **{name: new})

    if cls is ExperimentPlan:
        return change(plan)
    if cls is ComparisonDesign:
        return replace(plan, design=change(plan.design))
    if cls is SamplingConfig:
        return replace(plan, sampling=change(plan.sampling))
    if cls is AlgorithmSpec:
        return replace(plan, algorithms=(change(plan.algorithms[0]), plan.algorithms[1]))
    return replace(plan, instance_pool=(change(plan.instance_pool[0]),
                                        *plan.instance_pool[1:]))


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, field.name, id=f"{cls.__name__}.{field.name}")
    for cls in OTHER_VALUE for field in dataclasses.fields(cls)])
def test_fingerprint_holds_what_decides_the_rows(cls, name):
    plan = make_plan(pool_size=4)
    same = _plan_fingerprint(with_field(plan, cls, name)) == _plan_fingerprint(plan)
    assert same == (name in NOT_FINGERPRINTED)


class TestPlanValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            make_plan(pool=(), specs=identical_normal_specs())

    def test_duplicate_instance_ids_rejected(self):
        pool = (InstanceRef(id="same"), InstanceRef(id="same"))
        with pytest.raises(ValueError):
            make_plan(pool=pool, specs=identical_normal_specs())

    def test_same_alias_rejected(self):
        spec = AlgorithmSpec(alias="dup", kind=AlgorithmKind.SYNTHETIC_NORMAL)
        with pytest.raises(ValueError):
            make_plan(pool=null_pool(3), specs=(spec, spec))

    @pytest.mark.parametrize("field, value", [
        ("workers", 2.5), ("workers", "2"), ("workers", True),
        ("master_seed", 1.5), ("master_seed", True),
    ])
    def test_non_integer_count_or_seed_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
            replace(make_plan(pool_size=5), **{field: value})


def recording_bind(before_run):
    """``bind`` whose runs call ``before_run(instance)`` as they start."""
    def bind_recording(spec, instance, stop=None):
        run = bind(spec, instance, stop)

        def recorded(seed, key):
            before_run(instance)
            return run(seed, key)
        return recorded
    return bind_recording


class TestInterrupt:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_sigint_stops_every_run_and_resume_completes(self, tmp_path, monkeypatch,
                                                         workers):
        # instance 6's first run, as it starts, sends the calling thread
        # SIGINT, as Ctrl-C would; each run that starts after it lasts long
        # enough for the calling thread to take the interrupt
        plan = make_plan(pool_size=12, use_all=True, workers=workers)
        target = plan.instance_pool[6].id
        chk = tmp_path / "chk.jsonl"
        signalled = threading.Event()
        late = []  # the thread of each run that starts after the signal
        started_late, finished = set(), set()

        def before_run(instance):
            if signalled.is_set():
                late.append(threading.get_ident())
                time.sleep(0.5)
            elif instance.id == target:
                signalled.set()
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        real = experiment_module.calc_nreps

        def tracking(*args):
            if signalled.is_set():
                started_late.add(args[2].id)
            outcome = real(*args)
            finished.add(args[2].id)
            return outcome

        monkeypatch.setattr(experiment_module, "bind", recording_bind(before_run))
        monkeypatch.setattr(experiment_module, "calc_nreps", tracking)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(plan, checkpoint_path=chk)
        assert len(late) == len(set(late)) <= workers  # one run per worker at most
        journaled = {json.loads(row)["instance_id"]
                     for row in chk.read_text().splitlines()[1:]}
        assert journaled == finished and target not in journaled
        assert not journaled & started_late
        if workers == 1:
            assert journaled == {inst.id for inst in plan.instance_pool[:6]}

        monkeypatch.undo()
        written = []
        for out, resume in ((tmp_path, True), (tmp_path / "whole", False)):
            out.mkdir(exist_ok=True)
            report, _ = run_experiment(plan, checkpoint_path=out / "chk.jsonl",
                                       resume=resume)
            write_results_table(out / "results.csv", report.per_instance)
            write_report_json(out / "report.json", report)
            written.append([(out / name).read_bytes()
                            for name in ("results.csv", "report.json")])
        assert written[0] == written[1]

    def test_an_interrupt_inside_the_kill_still_kills_every_solver(self, tmp_path,
                                                                   monkeypatch):
        # two solvers run; the kill that an interrupt starts is itself
        # interrupted right after its first kill, as a second Ctrl-C can
        # be, and the other solver must still die at once
        pids = tmp_path / "pids"
        pids.mkdir()
        solver = tmp_path / "solver.py"
        solver.write_text("import os, sys, time\nfrom pathlib import Path\n"
                          "(Path(sys.argv[1]) / str(os.getpid())).touch()\n"
                          "time.sleep(20)\nprint(1.0)\n")
        specs = tuple(AlgorithmSpec(alias=alias, kind=AlgorithmKind.SUBPROCESS,
                                    concurrent_safe=True,
                                    params={"executable": sys.executable,
                                            "args": [str(solver), str(pids)]})
                      for alias in ("one", "two"))
        plan = make_plan(pool=null_pool(4), specs=specs, use_all=True, workers=2,
                         n0=2, n_max=4)
        real_killpg, killed = os.killpg, []

        def killpg_then_interrupted(pgid, sig):
            real_killpg(pgid, sig)
            killed.append(pgid)
            if len(killed) == 1:
                raise KeyboardInterrupt

        sent = []

        def interrupt_once_both_run():
            deadline = time.monotonic() + 60
            while len(list(pids.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            sent.append(time.monotonic())
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        monkeypatch.setattr(runners_module.os, "killpg", killpg_then_interrupted)
        interrupter = threading.Thread(target=interrupt_once_both_run)
        interrupter.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_experiment(plan)
            ended = time.monotonic()
        finally:
            interrupter.join(timeout=60)
        assert not interrupter.is_alive()
        started = {int(pid.name) for pid in pids.iterdir()}
        assert len(started) == 2 and set(killed) == started
        assert ended - sent[0] < 5.0  # no solver ran out its 20 s

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_solver_spawned_as_the_interrupt_lands_dies(self, tmp_path, monkeypatch,
                                                          workers):
        # the third spawn sends the calling thread SIGINT while its run is
        # inside Popen, past its look at the stop, and only then starts a
        # solver that sleeps 20 s; that solver must die within a slice
        hold = tmp_path / "hold"
        solver = tmp_path / "solver.py"
        solver.write_text("import sys, time\nfrom pathlib import Path\n"
                          "if Path(sys.argv[1]).exists():\n    time.sleep(20)\n"
                          "print(1.0)\n")
        specs = tuple(AlgorithmSpec(alias=alias, kind=AlgorithmKind.SUBPROCESS,
                                    params={"executable": sys.executable,
                                            "args": [str(solver), str(hold)]})
                      for alias in ("one", "two"))
        plan = make_plan(pool=null_pool(4), specs=specs, use_all=True,
                         workers=workers, n0=2, n_max=4)
        real_popen, lock = runners_module.subprocess.Popen, threading.Lock()
        spawns, held, sent = [], [], []

        def popen_past_the_interrupt(*args, **kwargs):
            with lock:
                spawns.append(None)
                third = len(spawns) == 3
            if third:
                hold.touch()
                sent.append(time.monotonic())
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                time.sleep(0.3)  # the calling thread takes the interrupt
            proc = real_popen(*args, **kwargs)
            if hold.exists():
                held.append(proc)
            return proc

        monkeypatch.setattr(runners_module.subprocess, "Popen", popen_past_the_interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(plan)
        assert time.monotonic() - sent[0] < 2.0
        assert held and all(proc.returncode == -signal.SIGKILL for proc in held)

    def test_no_more_threads_than_instances(self, monkeypatch):
        plan = make_plan(pool_size=3, use_all=True, workers=64)
        threads = set()
        monkeypatch.setattr(experiment_module, "bind", recording_bind(
            lambda instance: threads.add(threading.get_ident())))
        report, _ = run_experiment(plan)
        assert report.n_instances_used == 3
        assert 1 <= len(threads) <= 3
