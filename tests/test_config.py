"""The config reader: one typed table per section.

Every key of every table refuses a value of the wrong type with exit
code 2 and a message that names the key as ``section.key``; an absent
key takes the default of the class it configures.
"""

import copy

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
    path.write_text(yaml.safe_dump(doc))
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
