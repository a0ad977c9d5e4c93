"""Experiment configuration files and instance manifests.

Configurations are human-editable YAML (JSON works too) with a strict
schema: unknown keys are rejected so typos fail loudly before anything
runs.  A full document looks like::

    design:
      alpha: 0.05
      power: 0.85
      d: 0.5                 # or: delta: -0.05  plus  sigma_bound: 0.1
      alternative: two_sided # two_sided | one_sided (one-sided tests H1: mu_D < mu0)
      test: t_test           # t_test | wilcoxon | sign
      mu0: 0.0
    sampling:
      se_max: 0.05
      n0: 15
      n_max: 200
      diff: simple           # simple | percent
      se_method: parametric  # parametric | bootstrap
      bootstrap: {resamples: 999}  # its seeds derive from each instance's seed
      force_balance: false
    algorithms:              # omitted when instances.synthetic_pool is used
      - alias: algo1
        kind: synthetic_normal
        params: {mu: 10.0, sigma: 1.0}
      - alias: algo2
        kind: synthetic_normal
        params: {mu: 12.0, sigma: 2.0}
    instances:               # exactly one of the three forms
      manifest: instances.yaml
      # inline: [{id: a, payload: {...}}, ...]
      # synthetic_pool: {count: 50, delta: 0.5, sigma_phi: 1.0, noise_sd: 0.1}
    master_seed: 1234
    workers: 1
    use_all_instances: false
    output_dir: results
    sigma_phi_bound: 1.0     # optional, positive and finite; enables the se* warning

Each section is read through one table of ``key -> (constructor keyword,
kind)``.  A kind is an exact type (a number takes an int or a float; an
integer takes neither ``true`` nor ``3.9``; a boolean only ``true`` or
``false``) or a table of accepted names.  An absent key is not passed
on, so the class it configures applies its own default.  An algorithm's
``params`` and the instance payloads are checked by the classes they
configure, against the tables in :mod:`paircomp.runners`.

A manifest file is a YAML document with a single ``instances`` list of
``{id, payload}`` entries.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import yaml

from .design import Alternative, ComparisonDesign, TestFamily
from .errors import ConfigError
from .estimators import DiffKind, SEMethod
from .experiment import ExperimentPlan
from .runners import AlgorithmKind, AlgorithmSpec, InstanceRef, build_synthetic_pool
from .sampler import SamplingConfig
from .seeding import POOL_STREAM, derive_seed

__all__ = ["load_config", "load_manifest", "parse_design"]

ALT_NAMES = {
    "two_sided": Alternative.TWO_SIDED, "two-sided": Alternative.TWO_SIDED,
    "one_sided": Alternative.ONE_SIDED, "one-sided": Alternative.ONE_SIDED,
}
TEST_NAMES = {
    "t": TestFamily.T_TEST, "t_test": TestFamily.T_TEST,
    "t-test": TestFamily.T_TEST, "wilcoxon": TestFamily.WILCOXON,
    "sign": TestFamily.SIGN,
}


def _values(enum) -> dict:
    return {member.value: member for member in enum}


DESIGN = {
    "alpha": ("alpha", float), "power": ("power_target", float),
    "d": ("mres_d", float), "delta": ("delta", float),
    "sigma_bound": ("sigma_bound", float),
    "alternative": ("alternative", ALT_NAMES),
    "test": ("test_family", TEST_NAMES), "mu0": ("mu0", float),
}
SAMPLING = {
    "se_max": ("se_max", float), "n0": ("n0", int), "n_max": ("n_max", int),
    "diff": ("diff_kind", _values(DiffKind)),
    "se_method": ("se_method", _values(SEMethod)),
    "bootstrap": ("bootstrap", dict),
    "force_balance": ("force_balance", bool),
}
BOOTSTRAP = {"resamples": ("resamples", int)}
ALGORITHM = {
    "alias": ("alias", str), "kind": ("kind", _values(AlgorithmKind)),
    "params": ("params", dict), "timeout": ("timeout", float),
    "concurrent_safe": ("concurrent_safe", bool),
}
INSTANCE = {"id": ("id", str), "payload": ("payload", dict)}
INSTANCES = {
    "manifest": ("manifest", str), "inline": ("inline", list),
    "synthetic_pool": ("synthetic_pool", dict),
}
SYNTHETIC_POOL = {
    "count": ("n_instances", int), "delta": ("delta", float),
    "sigma_phi": ("sigma_phi", float), "noise_sd": ("noise_sd", float),
    "base_mean": ("base_mean", float), "seed": ("seed", int),
}
TOP = {
    "design": ("design", dict), "sampling": ("sampling", dict),
    "algorithms": ("algorithms", list), "instances": ("instances", dict),
    "master_seed": ("master_seed", int), "workers": ("workers", int),
    "use_all_instances": ("use_all_instances", bool),
    "output_dir": ("output_dir", str),
    "sigma_phi_bound": ("sigma_phi_bound", float),
}

_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", dict: "a mapping", list: "a list"}


def _read(node, table: dict, where: str, required: tuple = ()) -> dict:
    """Constructor keywords for the keys of ``node``, each checked against its kind."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    unknown = [key for key in node if key not in table]
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: "
                          f"{sorted(table)}")
    for key in required:
        if key not in node:
            raise ConfigError(f"missing required key {key!r} in {where}")
    kwargs = {}
    for key, value in node.items():
        keyword, kind = table[key]
        if isinstance(kind, dict):
            if not isinstance(value, str) or value not in kind:
                raise ConfigError(f"{where}.{key} must be one of {sorted(kind)}, "
                                  f"got {value!r}")
            value = kind[value]
        # an integer stays one, as journal fingerprints hold it, unless no
        # float reaches it
        elif not (type(value) is kind or (kind is float and type(value) is int
                                          and abs(value) <= sys.float_info.max)):
            raise ConfigError(f"{where}.{key} must be {_KIND_NAMES[kind]}, "
                              f"got {value!r}")
        kwargs[keyword] = value
    return kwargs


def _call(build, kwargs: dict, where: str):
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_design(node) -> ComparisonDesign:
    """The design a ``design`` section, or the ``design`` command's flags, declare.

    The effect size is ``d``, or ``delta`` with ``sigma_bound``.
    """
    kwargs = _read(node, DESIGN, "design", required=("alpha", "power"))
    d = kwargs.pop("mres_d", None)
    delta = kwargs.pop("delta", None)
    sigma_bound = kwargs.pop("sigma_bound", None)
    if d is not None and delta is not None:
        raise ConfigError("design: give either 'd' or 'delta', not both")
    if d is not None:
        return _call(ComparisonDesign, dict(kwargs, mres_d=d), "design")
    if delta is None:
        raise ConfigError("design: an effect size is required ('d', or "
                          "'delta' with 'sigma_bound')")
    if sigma_bound is None:
        raise ConfigError("design: 'delta' requires 'sigma_bound' (an upper "
                          "bound for the total standard deviation of the "
                          "paired differences)")
    return _call(ComparisonDesign.from_delta,
                 dict(kwargs, delta=delta, sigma_bound=sigma_bound), "design")


def _parse_sampling(node) -> SamplingConfig:
    kwargs = _read(node, SAMPLING, "sampling", required=("se_max",))
    if "bootstrap" in kwargs:
        kwargs.update(_read(kwargs.pop("bootstrap"), BOOTSTRAP, "sampling.bootstrap"))
    return _call(SamplingConfig, kwargs, "sampling")


def _parse_algorithm(node, where: str) -> AlgorithmSpec:
    return _call(AlgorithmSpec,
                 _read(node, ALGORITHM, where, required=("alias", "kind")), where)


def _parse_instance(node, where: str) -> InstanceRef:
    return _call(InstanceRef, _read(node, INSTANCE, where, required=("id",)), where)


class _Loader(yaml.SafeLoader):
    """YAML's safe loader, plus YAML 1.2's floats that YAML 1.1 reads as
    strings: an exponent without a dot or without a sign, as in ``1e-09``,
    which ``json.dumps`` writes.  Integers and quoted scalars are unchanged."""


# tried after YAML 1.1's own float and int forms, so an integer stays one
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"))


def _load_yaml(path: Path, what: str):
    try:
        return yaml.load(path.read_text(), Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what} {path} is not valid YAML: {exc}") from exc
    except RecursionError:
        # the loader builds nested collections by recursion
        raise ConfigError(f"{what} {path} nests collections too deeply") from None


def load_manifest(path: str | Path) -> list[InstanceRef]:
    """Read an instance manifest file into a pool."""
    path = Path(path)
    where = f"manifest {path}"
    entries = _read(_load_yaml(path, "instance manifest"),
                    {"instances": ("instances", list)}, where,
                    required=("instances",))["instances"]
    if not entries:
        raise ConfigError(f"{where}: the 'instances' list is empty")
    return [_parse_instance(e, f"{where} instances[{i}]")
            for i, e in enumerate(entries)]


def _parse_instances(node, master_seed: int, base_dir: Path):
    forms = _read(node, INSTANCES, "instances")
    if len(forms) != 1:
        raise ConfigError("instances: give exactly one of 'manifest', 'inline' "
                          f"or 'synthetic_pool', got {list(forms) or 'none'}")
    if "manifest" in forms:
        return load_manifest(base_dir / forms["manifest"]), None
    if "inline" in forms:
        if not forms["inline"]:
            raise ConfigError("instances.inline is empty")
        return [_parse_instance(e, f"instances.inline[{i}]")
                for i, e in enumerate(forms["inline"])], None
    where = "instances.synthetic_pool"
    kwargs = _read(forms["synthetic_pool"], SYNTHETIC_POOL, where,
                   required=("count",))
    if "seed" not in kwargs:
        if master_seed < 0:  # the plan's rule, needed before the plan exists
            raise ConfigError(f"config: master_seed must be non-negative, "
                              f"got {master_seed!r}")
        kwargs["seed"] = derive_seed(master_seed, POOL_STREAM)
    return _call(build_synthetic_pool, kwargs, where)


def load_config(path: str | Path,
                overrides: dict | None = None) -> tuple[ExperimentPlan, Path | None]:
    """Parse and validate an experiment configuration file.

    ``overrides`` maps top-level keys to values that replace the file's
    before anything is read, and are checked as the file's would be; so
    an overridden ``master_seed`` also seeds a synthetic pool.  Returns
    the plan and the output directory, resolved against the file's
    directory, or None when the file names none.
    """
    path = Path(path)
    doc = _load_yaml(path, "config file")
    if overrides and isinstance(doc, dict):
        doc = {**doc, **overrides}
    kwargs = _read(doc, TOP, "config",
                   required=("design", "sampling", "instances", "master_seed"))
    output_dir = kwargs.pop("output_dir", None)
    algorithms = kwargs.pop("algorithms", None)
    kwargs["design"] = parse_design(kwargs["design"])
    kwargs["sampling"] = _parse_sampling(kwargs["sampling"])
    kwargs["instance_pool"], pool_specs = _parse_instances(
        kwargs.pop("instances"), kwargs["master_seed"], path.parent)
    if pool_specs is not None:
        if algorithms is not None:
            raise ConfigError("a synthetic_pool builds its own algorithm pair; "
                              "remove the 'algorithms' section")
        kwargs["algorithms"] = pool_specs
    else:
        if algorithms is None or len(algorithms) != 2:
            raise ConfigError("config.algorithms must list exactly two algorithms")
        kwargs["algorithms"] = tuple(_parse_algorithm(a, f"algorithms[{i}]")
                                     for i, a in enumerate(algorithms))
    plan = _call(ExperimentPlan, kwargs, "config")
    return plan, None if output_dir is None else path.parent / output_dir
