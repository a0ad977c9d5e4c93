"""Algorithm and instance abstractions: one run -> one performance value.

``Runner(spec).run(instance, seed)`` is the one entry point: it performs
a single run and returns its value as a finite float.  Four algorithm
kinds are provided:

* ``subprocess`` wraps an external solver.  The command line is the
  executable followed by its argument template with ``{instance}`` and
  ``{seed}`` substituted; the last nonempty line of standard output must
  parse as a decimal performance value, the exit status must be 0, and a
  per-spec timeout applies.  Each run starts in a session of its own, and
  a timeout kills its whole process group, so a solver launched through a
  shell wrapper leaves nothing behind.  A timed-out or failed run is an
  error, never an observation.
* ``synthetic_normal`` / ``synthetic_lognormal`` draw deterministically
  from the declared distribution given the run seed.  Instances may carry
  per-alias parameter overrides in their payload, which is how synthetic
  pools encode per-instance latent differences.
* ``demo_sann_tsp`` performs one simulated-annealing run on a travelling
  salesman instance (payload: full distance matrix, or a city count plus
  layout seed to generate one) and returns the best tour length found.
  Moves are 2-opt segment reversals under a logarithmic cooling schedule;
  the temperature parameter sets the initial acceptance scale.

Raw values are recorded as-is: whether smaller or larger is better lives
entirely in the experiment design's alternative hypothesis.
"""

from __future__ import annotations

import math
import os
import shlex
import signal
import subprocess
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, RunnerError
from .seeding import make_generator

__all__ = [
    "AlgorithmKind", "AlgorithmSpec", "InstanceRef", "Runner",
    "build_synthetic_pool", "build_tsp_instance",
]

_EXCERPT_CHARS = 400


class AlgorithmKind(str, Enum):
    SUBPROCESS = "subprocess"
    SYNTHETIC_NORMAL = "synthetic_normal"
    SYNTHETIC_LOGNORMAL = "synthetic_lognormal"
    DEMO_SANN_TSP = "demo_sann_tsp"


@dataclass(frozen=True)
class AlgorithmSpec:
    """A fully parameterized algorithm, identified by a unique alias."""
    alias: str
    kind: AlgorithmKind
    params: dict = field(default_factory=dict)
    timeout: float = 3600.0
    concurrent_safe: bool = True

    def __post_init__(self):
        object.__setattr__(self, "kind", AlgorithmKind(self.kind))
        object.__setattr__(self, "timeout", float(self.timeout))
        if not self.alias:
            raise ValueError("algorithm alias must be nonempty")
        if not (self.timeout > 0 and math.isfinite(self.timeout)):
            raise ValueError(f"timeout must be a positive finite number of "
                             f"seconds, got {self.timeout!r}")


@dataclass(frozen=True)
class InstanceRef:
    """A problem instance: an id plus kind-specific payload."""
    id: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ValueError("instance id must be nonempty")


@dataclass(frozen=True)
class Runner:
    """Callable binding of a spec, as consumed by the adaptive sampler."""
    spec: AlgorithmSpec

    @property
    def alias(self) -> str:
        return self.spec.alias

    @property
    def concurrent_safe(self) -> bool:
        return self.spec.concurrent_safe

    def run(self, instance: InstanceRef, seed: int) -> float:
        """Run the algorithm once on the instance and return its performance value."""
        spec = self.spec
        if spec.kind is AlgorithmKind.SUBPROCESS:
            value = _run_subprocess(spec, instance, seed)
        elif spec.kind is AlgorithmKind.SYNTHETIC_NORMAL:
            value = _run_synthetic(spec, instance, seed, lognormal=False)
        elif spec.kind is AlgorithmKind.SYNTHETIC_LOGNORMAL:
            value = _run_synthetic(spec, instance, seed, lognormal=True)
        elif spec.kind is AlgorithmKind.DEMO_SANN_TSP:
            value = _run_sann_tsp(spec, instance, seed)
        else:  # pragma: no cover
            raise ConfigError(f"unknown algorithm kind {spec.kind!r}")
        if not math.isfinite(value):
            raise RunnerError(f"run produced a non-finite value {value!r}",
                              alias=spec.alias, instance_id=instance.id, seed=seed)
        return float(value)


# ---------------------------------------------------------------------------
# synthetic runners


def _synthetic_params(spec: AlgorithmSpec, instance: InstanceRef) -> dict:
    # instance payload may override distribution parameters per alias
    params = {"mu": 0.0, "sigma": 1.0}
    params.update(spec.params)
    override = instance.payload.get(spec.alias)
    if override:
        params.update(override)
    return params


def _run_synthetic(spec: AlgorithmSpec, instance: InstanceRef, seed: int,
                   lognormal: bool) -> float:
    params = _synthetic_params(spec, instance)
    mu = float(params["mu"])
    sigma = float(params["sigma"])
    if sigma < 0.0:
        raise ConfigError(f"sigma must be nonnegative, got {sigma!r} "
                          f"(algorithm {spec.alias!r})")
    if sigma == 0.0:
        draw = mu
    else:
        draw = mu + sigma * make_generator(seed).standard_normal()
    return math.exp(draw) if lognormal else draw


def build_synthetic_pool(n_instances: int, delta: float = 0.0,
                         sigma_phi: float = 0.0, noise_sd: float = 1.0, *,
                         seed: int, base_mean: float = 0.0,
                         aliases: tuple[str, str] = ("algo1", "algo2"),
                         ) -> tuple[list[InstanceRef], tuple[AlgorithmSpec, AlgorithmSpec]]:
    """Instance pool with latent per-instance differences, plus paired runners.

    Each instance carries a true difference drawn from Normal(delta,
    sigma_phi); the first runner's observations center on ``base_mean``
    and the second's on ``base_mean`` plus the instance's difference,
    both with per-observation noise ``noise_sd``.  Used for calibration:
    the across-instances spread and the within-instance noise are known
    by construction.
    """
    if n_instances < 1:
        raise ValueError(f"need at least one instance, got {n_instances!r}")
    if sigma_phi < 0.0 or noise_sd < 0.0:
        raise ValueError("spread parameters must be nonnegative")
    a1, a2 = aliases
    if a1 == a2:
        raise ValueError("aliases must be distinct")
    rng = make_generator(seed)
    phis = delta + sigma_phi * rng.standard_normal(n_instances)
    width = max(5, len(str(n_instances)))
    pool = [
        InstanceRef(
            id=f"synth-{j:0{width}d}",
            payload={a1: {"mu": base_mean}, a2: {"mu": base_mean + float(phis[j])}},
        )
        for j in range(n_instances)
    ]
    spec1 = AlgorithmSpec(alias=a1, kind=AlgorithmKind.SYNTHETIC_NORMAL,
                          params={"mu": base_mean, "sigma": noise_sd})
    spec2 = AlgorithmSpec(alias=a2, kind=AlgorithmKind.SYNTHETIC_NORMAL,
                          params={"mu": base_mean, "sigma": noise_sd})
    return pool, (spec1, spec2)


# ---------------------------------------------------------------------------
# subprocess runner


def _run_subprocess(spec: AlgorithmSpec, instance: InstanceRef, seed: int) -> float:
    executable = spec.params.get("executable")
    if not executable:
        raise ConfigError(f"subprocess algorithm {spec.alias!r} needs an "
                          f"'executable' parameter")
    args = spec.params.get("args", [])
    if isinstance(args, str):
        args = shlex.split(args)
    instance_arg = str(instance.payload.get("path", instance.id))
    cmd = [str(executable)] + [
        str(a).replace("{instance}", instance_arg).replace("{seed}", str(seed))
        for a in args
    ]
    try:
        # a session of its own, so a timeout can kill everything it started
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
    except OSError as exc:
        raise RunnerError(f"could not launch {cmd[0]!r}: {exc}",
                          alias=spec.alias, instance_id=instance.id,
                          seed=seed) from exc
    with proc:
        try:
            stdout, stderr = proc.communicate(timeout=spec.timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            raise RunnerError(f"run timed out after {spec.timeout:g}s",
                              alias=spec.alias, instance_id=instance.id, seed=seed,
                              output_excerpt=_excerpt(stdout, stderr)) from exc
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode != 0:
        raise RunnerError(f"run exited with status {proc.returncode}",
                          alias=spec.alias, instance_id=instance.id, seed=seed,
                          output_excerpt=_excerpt(stdout, stderr))
    lines = [ln.strip() for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise RunnerError("run produced no output to parse",
                          alias=spec.alias, instance_id=instance.id, seed=seed,
                          output_excerpt=_excerpt(stdout, stderr))
    try:
        return float(lines[-1])
    except ValueError:
        raise RunnerError(f"last output line {lines[-1]!r} is not a decimal value",
                          alias=spec.alias, instance_id=instance.id, seed=seed,
                          output_excerpt=_excerpt(stdout, stderr)) from None


def _excerpt(stdout, stderr) -> str:
    merged = ((stdout or "") + ("\n" + stderr if stderr else "")).strip()
    return merged[-_EXCERPT_CHARS:]


# ---------------------------------------------------------------------------
# simulated-annealing TSP demo


def build_tsp_instance(instance_id: str, n_cities: int = 21,
                       layout_seed: int = 0) -> InstanceRef:
    """Random Euclidean TSP instance with the full distance matrix inlined."""
    if n_cities < 4:
        raise ValueError(f"need at least 4 cities, got {n_cities!r}")
    rng = make_generator(layout_seed)
    pts = rng.uniform(0.0, 100.0, size=(n_cities, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    return InstanceRef(id=instance_id, payload={"distance_matrix": dist.tolist()})


def _tsp_matrix(instance: InstanceRef) -> np.ndarray:
    payload = instance.payload
    if "distance_matrix" in payload:
        dist = np.asarray(payload["distance_matrix"], dtype=float)
    elif "cities" in payload:
        generated = build_tsp_instance(instance.id, int(payload["cities"]),
                                       int(payload.get("layout_seed", 0)))
        dist = np.asarray(generated.payload["distance_matrix"], dtype=float)
    else:
        raise ConfigError(f"TSP instance {instance.id!r} needs a 'distance_matrix' "
                          f"or a 'cities' count in its payload")
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1] or dist.shape[0] < 4:
        raise ConfigError(f"TSP instance {instance.id!r} has an invalid distance matrix")
    return dist


def _tour_length(tour: list[int], d) -> float:
    total = 0.0
    for i in range(len(tour) - 1):
        total += d[tour[i]][tour[i + 1]]
    return total + d[tour[-1]][tour[0]]


def _run_sann_tsp(spec: AlgorithmSpec, instance: InstanceRef, seed: int) -> float:
    temp = float(spec.params.get("temp", 2000.0))
    budget = int(spec.params.get("budget", 10000))
    if temp <= 0 or budget < 1:
        raise ConfigError(f"TSP demo {spec.alias!r} needs temp > 0 and budget >= 1")
    d = _tsp_matrix(instance).tolist()
    n = len(d)
    rng = make_generator(seed)

    tour = list(range(n))
    tail = tour[1:]
    rng.shuffle(tail)
    tour[1:] = tail
    cur = _tour_length(tour, d)
    best = cur

    # 2-opt reversal of tour[i..k] (city 0 stays fixed); O(1) length delta
    for step in range(1, budget + 1):
        i = int(rng.integers(1, n - 1))
        k = int(rng.integers(i + 1, n))
        a, b = tour[i - 1], tour[i]
        c, e = tour[k], tour[(k + 1) % n]
        if a == e:  # reversing the whole remainder changes nothing
            continue
        delta = d[a][c] + d[b][e] - d[a][b] - d[c][e]
        if delta < 0.0 or rng.random() < math.exp(-delta / (temp / math.log(step + math.e))):
            tour[i:k + 1] = reversed(tour[i:k + 1])
            cur += delta
            if cur < best:
                best = cur
    return best
