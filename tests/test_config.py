"""The config reader: one typed table per section.

Every key of every table refuses a value of the wrong type with exit
code 2 and a message that names the key as ``section.key``; an absent
key takes the default of the class it configures.
"""

import copy
import json

import pytest
import yaml

from paircomp import config
from paircomp.cli import main
from paircomp.design import ComparisonDesign
from paircomp.experiment import ExperimentPlan
from paircomp.runners import (AlgorithmKind, AlgorithmSpec, InstanceRef,
                              build_synthetic_pool)
from paircomp.sampler import SamplingConfig
from paircomp.seeding import POOL_STREAM, derive_seed

# only the required keys
INLINE = {
    "design": {"alpha": 0.05, "power": 0.8, "d": 0.5},
    "sampling": {"se_max": 0.5},
    "algorithms": [{"alias": "one", "kind": "synthetic_normal"},
                   {"alias": "two", "kind": "synthetic_normal"}],
    "instances": {"inline": [{"id": "a"}]},
    "master_seed": 1,
}
POOL = {key: value for key, value in INLINE.items() if key != "algorithms"}
POOL["instances"] = {"synthetic_pool": {"count": 3}}

# table, document, the section's path in it, and its name in messages
SECTIONS = {
    "top": (config.TOP, INLINE, (), "config"),
    "design": (config.DESIGN, INLINE, ("design",), "design"),
    "sampling": (config.SAMPLING, INLINE, ("sampling",), "sampling"),
    "bootstrap": (config.BOOTSTRAP, INLINE, ("sampling", "bootstrap"),
                  "sampling.bootstrap"),
    "algorithm": (config.ALGORITHM, INLINE, ("algorithms", 1), "algorithms[1]"),
    "instances": (config.INSTANCES, INLINE, ("instances",), "instances"),
    "instance": (config.INSTANCE, INLINE, ("instances", "inline", 0),
                 "instances.inline[0]"),
    "synthetic_pool": (config.SYNTHETIC_POOL, POOL,
                       ("instances", "synthetic_pool"), "instances.synthetic_pool"),
}

WRONG = {
    bool: ["false"],
    int: [3.9, "7", float("inf"), True],
    float: ["x"],
    str: [7],
    dict: ["x"],
    list: ["x"],
}


def _cases():
    for section, (table, _, _, _) in SECTIONS.items():
        for key, (_, kind) in table.items():
            values = ["no_such_name"] if isinstance(kind, dict) else WRONG[kind]
            for value in values:
                yield pytest.param(section, key, value, id=f"{section}.{key}={value!r}")


def _write(tmp_path, doc):
    path = tmp_path / "config.yaml"
    path.write_text(doc if isinstance(doc, str) else yaml.safe_dump(doc))
    return path


def _with(doc, path, key, value):
    doc = copy.deepcopy(doc)
    node = doc
    for step in path:
        node = node.setdefault(step, {}) if isinstance(node, dict) else node[step]
    node[key] = value
    return doc


@pytest.mark.parametrize("section, key, value", _cases())
def test_wrong_type_exits_two_naming_the_key(capsys, tmp_path, section, key, value):
    _, doc, path, where = SECTIONS[section]
    cfg = _write(tmp_path, _with(doc, path, key, value))
    code = main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{where}.{key} must be" in err
    assert not (tmp_path / "out").exists()


FLOAT_KEYS = [pytest.param(section, key, id=f"{section}.{key}")
              for section, (table, _, _, _) in SECTIONS.items()
              for key, (_, kind) in table.items() if kind is float]


@pytest.mark.parametrize("value", [2 ** 1024, -(10 ** 400)], ids=["2**1024", "-10**400"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_integer_beyond_float_range_exits_two_naming_the_key(capsys, tmp_path,
                                                             section, key, value):
    _, doc, path, where = SECTIONS[section]
    cfg = _write(tmp_path, _with(doc, path, key, value))
    code = main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    [line] = capsys.readouterr().err.splitlines()
    assert code == 2
    assert line.startswith(f"error: {where}.{key} must be a number, got ")
    assert not (tmp_path / "out").exists()


def test_an_integer_in_float_range_stays_an_integer():
    # a float would change the fingerprint of journals written before
    for value in (3, 2 ** 1023):
        assert type(config._read({"d": value}, config.DESIGN, "design")["mres_d"]) is int


def _algorithm(kind, **params):
    """``INLINE`` with its second algorithm of ``kind`` with ``params``."""
    return _with(INLINE, ("algorithms",), 1,
                 {"alias": "two", "kind": kind, "params": params})


REFUSED = {
    "not-yaml": ("design: [\n", "is not valid YAML"),
    "nested-too-deep": ("design: " + "[" * 1000 + "]" * 1000 + "\n",
                        "nests collections too deeply"),
    "not-a-mapping": ("- design\n", "config must be a mapping, got list"),
    "no-master-seed": ({k: v for k, v in INLINE.items() if k != "master_seed"},
                       "missing required key 'master_seed' in config"),
    "zero-workers": (dict(INLINE, workers=0), "config: workers must be at least 1"),
    "too-many-workers": (dict(INLINE, workers=1025),
                         "config: workers must be at most 1024, got 1025"),
    "infinite-mu0": (_with(INLINE, ("design",), "mu0", float("inf")),
                     "design: mu0 must be finite"),
    "zero-timeout": (_with(INLINE, ("algorithms", 1), "timeout", 0),
                     "algorithms[1]: timeout must be a positive finite number"),
    "instance-not-a-mapping": (dict(INLINE, instances={"inline": ["a"]}),
                               "instances.inline[0] must be a mapping"),
    "empty-manifest": (dict(INLINE, instances={"manifest": "pool.yaml"}),
                       "the 'instances' list is empty"),
    "negative-spread": (_with(POOL, ("instances", "synthetic_pool"), "sigma_phi", -1.0),
                        "instances.synthetic_pool: spread parameters must be nonnegative"),
    # a pool's algorithms are always algo1 and algo2
    "aliases": (_with(POOL, ("instances", "synthetic_pool"), "aliases", ["x", "y"]),
                "unknown key(s) ['aliases'] in instances.synthetic_pool"),
    "no-instance-form": (dict(INLINE, instances={}),
                         "instances: give exactly one of"),
    "two-instance-forms": (_with(INLINE, ("instances",), "manifest", "pool.yaml"),
                           "instances: give exactly one of"),
    "empty-inline": (dict(INLINE, instances={"inline": []}),
                     "instances.inline is empty"),
    "one-algorithm": (dict(INLINE, algorithms=INLINE["algorithms"][:1]),
                      "config.algorithms must list exactly two"),
    # bootstrap seeds derive from each instance's seed, so a fixed one is refused
    "bootstrap-rng-seed": (_with(INLINE, ("sampling", "bootstrap"), "rng_seed", 5),
                           "unknown key(s) ['rng_seed'] in sampling.bootstrap"),
    "negative-master-seed": (dict(INLINE, master_seed=-4),
                             "config: master_seed must be non-negative, got -4"),
    "negative-pool-seed": (_with(POOL, ("instances", "synthetic_pool"), "seed", -1),
                           "instances.synthetic_pool: seed must be non-negative, got -1"),
    # a params key or an instance payload the algorithm reads is checked
    # before the output directory exists
    "params-typo": (_algorithm("synthetic_normal", sgima=5),
                    "algorithms[1]: params.sgima is not a synthetic_normal "
                    "parameter; allowed: ['mu', 'sigma']"),
    "params-of-another-kind": (_algorithm("synthetic_normal", temp=5),
                               "algorithms[1]: params.temp is not a synthetic_normal"),
    "mu-list": (_algorithm("synthetic_normal", mu=[1]),
                "algorithms[1]: params.mu must be a finite number, got [1]"),
    "mu-string": (_algorithm("synthetic_normal", mu="x"),
                  "algorithms[1]: params.mu must be a finite number, got 'x'"),
    "mu-bool": (_algorithm("synthetic_normal", mu=True),
                "algorithms[1]: params.mu must be a finite number, got True"),
    "negative-sigma": (_algorithm("synthetic_normal", sigma=-1),
                       "algorithms[1]: params.sigma must be a finite number >= 0"),
    "infinite-sigma": (_algorithm("synthetic_normal", sigma=float("inf")),
                       "algorithms[1]: params.sigma must be a finite number >= 0"),
    "tsp-zero-temp": (_algorithm("demo_sann_tsp", temp=0),
                      "algorithms[1]: params.temp must be a finite number > 0"),
    "tsp-zero-budget": (_algorithm("demo_sann_tsp", budget=0),
                        "algorithms[1]: params.budget must be an integer >= 1"),
    "tsp-fractional-budget": (_algorithm("demo_sann_tsp", budget=2.5),
                              "algorithms[1]: params.budget must be an integer >= 1"),
    "subprocess-no-executable": (_algorithm("subprocess"),
                                 "algorithms[1]: params.executable is required"),
    "subprocess-args-number": (_algorithm("subprocess", executable="solver", args=5),
                               "algorithms[1]: params.args must be a list"),
    "override-mu-string": (dict(INLINE, instances={"inline": [
        {"id": "a", "payload": {"two": {"mu": "x"}}}]}),
        "config: instance 'a', algorithm 'two': payload.two.mu must be a finite number"),
    "override-typo": (dict(INLINE, instances={"inline": [
        {"id": "a", "payload": {"two": {"sgima": 1}}}]}),
        "config: instance 'a', algorithm 'two': payload.two.sgima is not a "
        "synthetic_normal parameter"),
    "tsp-three-cities": (dict(_algorithm("demo_sann_tsp"), instances={"inline": [
        {"id": "a", "payload": {"cities": 3}}]}),
        "config: instance 'a', algorithm 'two': payload.cities must be an "
        "integer >= 4, got 3"),
    "tsp-two-by-two": (dict(_algorithm("demo_sann_tsp"), instances={"inline": [
        {"id": "a", "payload": {"distance_matrix": [[0, 1], [1, 0]]}}]}),
        "config: instance 'a', algorithm 'two': payload.distance_matrix must be "
        "a square matrix"),
}


@pytest.mark.parametrize("doc, message", REFUSED.values(), ids=list(REFUSED))
def test_refused_before_a_run(capsys, tmp_path, doc, message):
    (tmp_path / "pool.yaml").write_text("instances: []\n")
    cfg = _write(tmp_path, doc)
    code = main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_required_keys_only_take_the_class_defaults(tmp_path):
    plan, output_dir = config.load_config(_write(tmp_path, INLINE))
    assert output_dir is None
    assert plan == ExperimentPlan(
        design=ComparisonDesign(alpha=0.05, power_target=0.8, mres_d=0.5),
        sampling=SamplingConfig(se_max=0.5),
        instance_pool=(InstanceRef(id="a"),),
        algorithms=(AlgorithmSpec(alias="one", kind=AlgorithmKind.SYNTHETIC_NORMAL),
                    AlgorithmSpec(alias="two", kind=AlgorithmKind.SYNTHETIC_NORMAL)),
        master_seed=1)


def test_synthetic_pool_takes_the_builder_defaults(tmp_path):
    plan, _ = config.load_config(_write(tmp_path, POOL))
    pool, specs = build_synthetic_pool(3, seed=derive_seed(1, POOL_STREAM))
    assert plan.instance_pool == tuple(pool)
    assert plan.algorithms == specs


def test_output_dir_is_relative_to_the_config(tmp_path):
    _, output_dir = config.load_config(_write(tmp_path, dict(INLINE, output_dir="res")))
    assert output_dir == tmp_path / "res"


@pytest.mark.parametrize("design, message", [
    ({"d": 0.5, "delta": 0.1, "sigma_bound": 1.0}, "either 'd' or 'delta'"),
    ({"delta": 0.1}, "'delta' requires 'sigma_bound'"),
    ({}, "an effect size is required"),
    ({"d": 0.0}, "mres_d must be a positive finite real"),
    ({"delta": 0.0, "sigma_bound": 1.0}, "delta must be nonzero"),
])
def test_effect_size_rule(capsys, tmp_path, design, message):
    doc = dict(INLINE, design={"alpha": 0.05, "power": 0.8, **design})
    assert main(["run", "--config", str(_write(tmp_path, doc))]) == 2
    assert message in capsys.readouterr().err


def test_design_command_shares_the_rule(capsys):
    code = main(["design", "--alpha", "0.05", "--power", "0.8",
                 "--d", "0.5", "--delta", "0.1", "--sigma-bound", "1"])
    assert code == 2
    assert "either 'd' or 'delta'" in capsys.readouterr().err


def test_json_exponents_are_numbers(capsys, tmp_path):
    # json.dumps writes 1e-09 and 2e-05, which YAML 1.1 reads as strings
    doc = dict(POOL, sampling={"se_max": 1e-9, "n0": 2, "n_max": 6},
               design={"alpha": 0.05, "power": 0.8, "d": 0.5, "mu0": 2e-5})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    plan, _ = config.load_config(path)
    assert plan.sampling.se_max == 1e-9 and plan.design.mu0 == 2e-5
    assert plan.sampling.n0 == 2 and type(plan.sampling.n0) is int
    code = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("text, value", [
    ("1e-9", 1e-9), ("1E+3", 1000.0), ("-2.5e3", -2500.0), (".5e1", 5.0),
    ("1.0e-3", 1e-3), ("0.25", 0.25), ("7", 7), ("'1e-9'", "1e-9"),
    ('"1e-9"', "1e-9"), ("1e", "1e"), ("e5", "e5"),
])
def test_plain_scalars_in_yaml_1_2_float_form_are_floats(tmp_path, text, value):
    path = tmp_path / "doc.yaml"
    path.write_text(f"x: {text}\n")
    got = config._load_yaml(path, "test document")["x"]
    assert got == value and type(got) is type(value)


def test_quoted_exponent_stays_a_string(capsys, tmp_path):
    cfg = _write(tmp_path, "design: {alpha: 0.05, power: 0.8, d: 0.5}\n"
                           "sampling: {se_max: '1e-9'}\n"
                           "instances: {synthetic_pool: {count: 3}}\n"
                           "master_seed: 1\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "sampling.se_max must be a number, got '1e-9'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "reps"])
def test_budget_beyond_one_run_index_word_exits_two(capsys, tmp_path, command):
    doc = dict(POOL, sampling={"se_max": 0.5, "n_max": 2 ** 32})
    argv = [command, "--config", str(_write(tmp_path, doc)),
            "--output-dir", str(tmp_path / "out")]
    if command == "reps":
        argv = argv[:3] + ["--instance", "synth-00000"]
    assert main(argv) == 2
    assert "sampling: n_max must be below 2**32" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
def test_sigma_phi_bound_must_be_positive_and_finite(capsys, tmp_path, value):
    # nothing read such a bound, so a run went on without the se* warning
    cfg = _write(tmp_path, dict(POOL, sigma_phi_bound=value))
    code = main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    [line] = capsys.readouterr().err.splitlines()
    assert code == 2
    assert line.startswith("error: config: sigma_phi_bound must be a positive "
                           "finite number, got ")
    assert not (tmp_path / "out").exists()
