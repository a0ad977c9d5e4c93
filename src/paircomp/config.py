"""Experiment configuration files and instance manifests.

Configurations are human-editable YAML (JSON works too) with a strict
schema: unknown keys are rejected so typos fail loudly before anything
runs.  A full document looks like::

    design:
      alpha: 0.05
      power: 0.85            # or omit and pass N via use_all_instances
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
      bootstrap: {resamples: 999}
      force_balance: false
      batch: 1
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
    sigma_phi_bound: 1.0     # optional, enables the se* sanity warning

A manifest file is a YAML document with a single ``instances`` list of
``{id, payload}`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .design import Alternative, ComparisonDesign, TestFamily
from .errors import ConfigError
from .estimators import BootstrapConfig, DiffKind, SEMethod
from .experiment import ExperimentPlan
from .runners import AlgorithmKind, AlgorithmSpec, InstanceRef, build_synthetic_pool
from .sampler import SamplingConfig
from .seeding import POOL_STREAM, derive_seed

__all__ = ["ExperimentConfig", "load_config", "load_manifest"]

ALT_NAMES = {
    "two_sided": Alternative.TWO_SIDED, "two-sided": Alternative.TWO_SIDED,
    "one_sided": Alternative.ONE_SIDED, "one-sided": Alternative.ONE_SIDED,
}
TEST_NAMES = {
    "t": TestFamily.T_TEST, "t_test": TestFamily.T_TEST,
    "t-test": TestFamily.T_TEST, "wilcoxon": TestFamily.WILCOXON,
    "sign": TestFamily.SIGN,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated configuration, ready to be turned into a plan."""
    plan: ExperimentPlan
    output_dir: Path | None


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: "
                          f"{sorted(allowed)}")


def _get_number(node: dict, key: str, where: str, required: bool = True,
                default=None):
    if key not in node:
        if required:
            raise ConfigError(f"missing required key {key!r} in {where}")
        return default
    v = node[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
    return v


def _parse_design(node, where: str = "design") -> ComparisonDesign:
    node = _require_mapping(node, where)
    _reject_unknown(node, {"alpha", "power", "d", "delta", "sigma_bound",
                           "alternative", "test", "mu0"}, where)
    alpha = _get_number(node, "alpha", where)
    power = _get_number(node, "power", where)
    alt_raw = str(node.get("alternative", "two_sided"))
    if alt_raw not in ALT_NAMES:
        raise ConfigError(f"{where}.alternative must be one of "
                          f"{sorted(ALT_NAMES)}, got {alt_raw!r}")
    test_raw = str(node.get("test", "t_test"))
    if test_raw not in TEST_NAMES:
        raise ConfigError(f"{where}.test must be one of {sorted(TEST_NAMES)}, "
                          f"got {test_raw!r}")
    mu0 = _get_number(node, "mu0", where, required=False, default=0.0)
    kwargs = dict(alpha=alpha, power_target=power, alternative=ALT_NAMES[alt_raw],
                  test_family=TEST_NAMES[test_raw], mu0=mu0)
    has_d = "d" in node
    has_delta = "delta" in node
    sigma_bound = _get_number(node, "sigma_bound", where, required=False)
    try:
        if has_d and has_delta:
            raise ConfigError(f"{where}: give either 'd' or 'delta', not both")
        if has_d:
            design = ComparisonDesign(mres_d=_get_number(node, "d", where), **kwargs)
        elif has_delta:
            if sigma_bound is None:
                raise ConfigError(f"{where}: 'delta' requires 'sigma_bound' "
                                  f"(an upper bound for the total standard "
                                  f"deviation of the paired differences)")
            design = ComparisonDesign.from_delta(
                _get_number(node, "delta", where), sigma_bound, **kwargs)
        else:
            raise ConfigError(f"{where}: an effect size is required ('d', or "
                              f"'delta' with 'sigma_bound')")
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return design


def _parse_sampling(node, where: str = "sampling") -> SamplingConfig:
    node = _require_mapping(node, where)
    _reject_unknown(node, {"se_max", "n0", "n_max", "diff", "se_method",
                           "bootstrap", "force_balance", "batch"}, where)
    boot = BootstrapConfig()
    if "bootstrap" in node:
        bnode = _require_mapping(node["bootstrap"], f"{where}.bootstrap")
        _reject_unknown(bnode, {"resamples", "rng_seed"}, f"{where}.bootstrap")
        boot = BootstrapConfig(
            resamples=int(_get_number(bnode, "resamples", f"{where}.bootstrap",
                                      required=False, default=999)),
            rng_seed=int(_get_number(bnode, "rng_seed", f"{where}.bootstrap",
                                     required=False, default=0)))
    diff_raw = str(node.get("diff", "simple"))
    se_raw = str(node.get("se_method", "parametric"))
    try:
        return SamplingConfig(
            se_max=_get_number(node, "se_max", where),
            n0=int(_get_number(node, "n0", where, required=False, default=15)),
            n_max=int(_get_number(node, "n_max", where, required=False, default=200)),
            diff_kind=DiffKind(diff_raw),
            se_method=SEMethod(se_raw),
            bootstrap=boot,
            force_balance=bool(node.get("force_balance", False)),
            batch=int(_get_number(node, "batch", where, required=False, default=1)),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_algorithm(node, where: str) -> AlgorithmSpec:
    node = _require_mapping(node, where)
    _reject_unknown(node, {"alias", "kind", "params", "timeout",
                           "concurrent_safe"}, where)
    for key in ("alias", "kind"):
        if key not in node:
            raise ConfigError(f"missing required key {key!r} in {where}")
    try:
        return AlgorithmSpec(
            alias=str(node["alias"]),
            kind=AlgorithmKind(str(node["kind"])),
            params=dict(_require_mapping(node.get("params", {}), f"{where}.params")),
            timeout=float(_get_number(node, "timeout", where, required=False,
                                      default=3600.0)),
            concurrent_safe=bool(node.get("concurrent_safe", True)),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_manifest(path: str | Path) -> list[InstanceRef]:
    """Read an instance manifest file into a pool."""
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"instance manifest {path} does not exist") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"instance manifest {path} is not valid YAML: {exc}") from exc
    doc = _require_mapping(doc, f"manifest {path}")
    _reject_unknown(doc, {"instances"}, f"manifest {path}")
    entries = doc.get("instances")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"manifest {path} must contain a nonempty 'instances' list")
    return [_parse_instance(e, f"manifest {path} instances[{i}]")
            for i, e in enumerate(entries)]


def _parse_instance(node, where: str) -> InstanceRef:
    node = _require_mapping(node, where)
    _reject_unknown(node, {"id", "payload"}, where)
    if "id" not in node:
        raise ConfigError(f"missing required key 'id' in {where}")
    payload = node.get("payload", {})
    return InstanceRef(id=str(node["id"]),
                       payload=dict(_require_mapping(payload, f"{where}.payload")))


def _parse_instances(node, master_seed: int, base_dir: Path,
                     where: str = "instances"):
    node = _require_mapping(node, where)
    _reject_unknown(node, {"manifest", "inline", "synthetic_pool"}, where)
    forms = [k for k in ("manifest", "inline", "synthetic_pool") if k in node]
    if len(forms) != 1:
        raise ConfigError(f"{where}: give exactly one of 'manifest', 'inline' "
                          f"or 'synthetic_pool', got {forms or 'none'}")
    if "manifest" in node:
        raw = Path(str(node["manifest"]))
        return load_manifest(raw if raw.is_absolute() else base_dir / raw), None
    if "inline" in node:
        entries = node["inline"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError(f"{where}.inline must be a nonempty list")
        return [_parse_instance(e, f"{where}.inline[{i}]")
                for i, e in enumerate(entries)], None
    pnode = _require_mapping(node["synthetic_pool"], f"{where}.synthetic_pool")
    _reject_unknown(pnode, {"count", "delta", "sigma_phi", "noise_sd",
                            "base_mean", "seed", "aliases"},
                    f"{where}.synthetic_pool")
    aliases = pnode.get("aliases", ["algo1", "algo2"])
    if (not isinstance(aliases, list) or len(aliases) != 2
            or aliases[0] == aliases[1]):
        raise ConfigError(f"{where}.synthetic_pool.aliases must be two distinct names")
    seed = pnode.get("seed")
    if seed is None:
        seed = derive_seed(master_seed, POOL_STREAM)
    try:
        pool, specs = build_synthetic_pool(
            n_instances=int(_get_number(pnode, "count", f"{where}.synthetic_pool")),
            delta=_get_number(pnode, "delta", f"{where}.synthetic_pool",
                              required=False, default=0.0),
            sigma_phi=_get_number(pnode, "sigma_phi", f"{where}.synthetic_pool",
                                  required=False, default=0.0),
            noise_sd=_get_number(pnode, "noise_sd", f"{where}.synthetic_pool",
                                 required=False, default=1.0),
            base_mean=_get_number(pnode, "base_mean", f"{where}.synthetic_pool",
                                  required=False, default=0.0),
            seed=int(seed),
            aliases=(str(aliases[0]), str(aliases[1])),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}.synthetic_pool: {exc}") from exc
    return pool, specs


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a full experiment configuration file."""
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    doc = _require_mapping(doc, f"config {path}")
    _reject_unknown(doc, {"design", "sampling", "algorithms", "instances",
                          "master_seed", "workers", "use_all_instances",
                          "output_dir", "sigma_phi_bound"}, f"config {path}")
    for key in ("design", "sampling", "instances", "master_seed"):
        if key not in doc:
            raise ConfigError(f"missing required section {key!r} in config {path}")

    design = _parse_design(doc["design"])
    sampling = _parse_sampling(doc["sampling"])
    master_seed = int(_get_number(doc, "master_seed", "config"))

    pool, pool_specs = _parse_instances(doc["instances"], master_seed, path.parent)

    if pool_specs is not None:
        if "algorithms" in doc:
            raise ConfigError("a synthetic_pool builds its own algorithm pair; "
                              "remove the 'algorithms' section")
        algorithms = pool_specs
    else:
        algos_node = doc.get("algorithms")
        if not isinstance(algos_node, list) or len(algos_node) != 2:
            raise ConfigError("config must list exactly two algorithms")
        algorithms = tuple(_parse_algorithm(a, f"algorithms[{i}]")
                           for i, a in enumerate(algos_node))

    sigma_phi_bound = _get_number(doc, "sigma_phi_bound", "config", required=False)
    try:
        plan = ExperimentPlan(
            design=design,
            sampling=sampling,
            instance_pool=tuple(pool),
            algorithms=algorithms,
            master_seed=master_seed,
            use_all_instances=bool(doc.get("use_all_instances", False)),
            workers=int(_get_number(doc, "workers", "config", required=False,
                                    default=1)),
            sigma_phi_bound=sigma_phi_bound,
        )
    except ValueError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc

    out = doc.get("output_dir")
    output_dir = None
    if out is not None:
        output_dir = Path(str(out))
        if not output_dir.is_absolute():
            output_dir = path.parent / output_dir
    return ExperimentConfig(plan=plan, output_dir=output_dir)
