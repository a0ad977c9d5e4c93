"""Algorithm and instance abstractions: one run -> one performance value.

``bind(spec, instance, stop)`` reads the instance's inputs once and
returns the run function: called with a run seed and the Philox key of its
generator (see :mod:`paircomp.seeding`), it performs a single run and
returns its value as a finite float.  Once the optional ``stop`` event is
set, a run refuses to start.  Four algorithm kinds are provided:

* ``subprocess`` wraps an external solver.  The command line is the
  executable followed by its argument template with ``{instance}`` and
  ``{seed}`` substituted; the last nonempty line of standard output must
  parse as a decimal performance value, the exit status must be 0, and a
  per-spec timeout applies.  Each run starts in a session of its own.  It
  waits for its solver in slices of ``_POLL_S`` seconds, and a timeout, a
  ``stop`` seen between two slices, or an interrupt of the waiting thread
  kills its whole process group, so a solver launched through a shell
  wrapper leaves nothing behind.  A timed-out or failed run is an error,
  never an observation.
* ``synthetic_normal`` / ``synthetic_lognormal`` draw deterministically
  from the declared distribution given the run seed.  Instances may carry
  per-alias parameter overrides in their payload, which is how synthetic
  pools encode per-instance latent differences.
* ``demo_sann_tsp`` performs one simulated-annealing run on a travelling
  salesman instance (payload: full distance matrix, or a city count plus
  layout seed to generate one) and returns the best tour length found.
  Moves are 2-opt segment reversals under a logarithmic cooling schedule;
  the temperature parameter sets the initial acceptance scale.

``PARAMS`` holds one table per kind: the params it reads, what each
must be, and its default.  A spec is checked against it when built.
Each kind has one binder, which reads and checks the payload keys its
kind reads and returns a closure over the checked values; an experiment
plan binds every pool instance when built, and sampling binds once per
(algorithm, instance).

Raw values are recorded as-is: whether smaller or larger is better lives
entirely in the experiment design's alternative hypothesis.
"""

from __future__ import annotations

import contextlib
import math
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import RunnerError
from .seeding import kept_generator, make_generator

__all__ = [
    "AlgorithmKind", "AlgorithmSpec", "InstanceRef", "bind",
    "build_synthetic_pool", "build_tsp_instance",
]

_EXCERPT_CHARS = 400


class AlgorithmKind(str, Enum):
    SUBPROCESS = "subprocess"
    SYNTHETIC_NORMAL = "synthetic_normal"
    SYNTHETIC_LOGNORMAL = "synthetic_lognormal"
    DEMO_SANN_TSP = "demo_sann_tsp"


def _is_number(value) -> bool:
    """A finite int or float, never a bool; an int must fit in a float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_args(value) -> bool:
    if not isinstance(value, str):
        return isinstance(value, list)
    try:
        shlex.split(value)
    except ValueError:  # an unclosed quote
        return False
    return True


_REQUIRED = object()
_SYNTHETIC = {
    "mu": ("a finite number", _is_number, 0.0),
    "sigma": ("a finite number >= 0", lambda v: _is_number(v) and v >= 0, 1.0),
}
# each kind's params: name -> (what a value must be, its test, its default)
PARAMS = {
    AlgorithmKind.SUBPROCESS: {
        "executable": ("a nonempty string",
                       lambda v: isinstance(v, str) and v != "", _REQUIRED),
        "args": ("a list, or a string split like a shell's", _is_args, []),
    },
    AlgorithmKind.SYNTHETIC_NORMAL: _SYNTHETIC,
    AlgorithmKind.SYNTHETIC_LOGNORMAL: _SYNTHETIC,
    AlgorithmKind.DEMO_SANN_TSP: {
        "temp": ("a finite number > 0", lambda v: _is_number(v) and v > 0, 2000.0),
        "budget": ("an integer >= 1", lambda v: _is_int(v) and v >= 1, 10000),
    },
}


# each kind's defaults, for the params a spec leaves out
_DEFAULTS = {kind: {key: default for key, (_, _, default) in table.items()
                    if default is not _REQUIRED}
             for kind, table in PARAMS.items()}


def _check(kind: AlgorithmKind, params: dict, where: str) -> None:
    """Refuse a key of ``params`` that ``kind``'s table lacks, or a value
    that fails its test; ``where`` names ``params`` in the message."""
    table = PARAMS[kind]
    for key, value in params.items():
        if key not in table:
            raise ValueError(f"{where}.{key} is not a {kind.value} parameter; "
                             f"allowed: {sorted(table)}")
        rule, ok, _ = table[key]
        if not ok(value):
            raise ValueError(f"{where}.{key} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class AlgorithmSpec:
    """A fully parameterized algorithm, identified by a unique alias.

    ``params`` is checked against its kind's table in ``PARAMS``: an
    unknown key, a value of the wrong type or out of range, or a missing
    required key raises ``ValueError`` naming ``params.<key>``.
    """
    alias: str
    kind: AlgorithmKind
    params: dict = field(default_factory=dict)
    timeout: float = 3600.0
    concurrent_safe: bool = True

    def __post_init__(self):
        object.__setattr__(self, "kind", AlgorithmKind(self.kind))
        if not self.alias:
            raise ValueError("algorithm alias must be nonempty")
        if not (self.timeout > 0 and math.isfinite(self.timeout)):
            raise ValueError(f"timeout must be a positive finite number of "
                             f"seconds, got {self.timeout!r}")
        _check(self.kind, self.params, "params")
        for key, (_, _, default) in PARAMS[self.kind].items():
            if default is _REQUIRED and key not in self.params:
                raise ValueError(f"params.{key} is required by kind {self.kind.value}")


@dataclass(frozen=True)
class InstanceRef:
    """A problem instance: an id plus kind-specific payload."""
    id: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ValueError("instance id must be nonempty")


def bind(spec: AlgorithmSpec, instance: InstanceRef,
         stop: threading.Event | None = None):
    """The algorithm's run function on the instance, its inputs read once.

    Binding merges the spec's params, with their defaults, and the payload
    keys its kind reads, and raises ``ValueError`` naming the payload key
    at fault.  The run function takes a run seed and the key of that
    seed's generator (as ``seeding.run_keys`` gives it) and returns the
    run's performance value.  A value that is not finite, such as a
    lognormal draw that overflows a float, raises ``RunnerError`` naming
    the algorithm, the instance and the seed.

    Once ``stop`` is set, the run function raises ``KeyboardInterrupt``
    instead of starting a run, and a subprocess run in flight kills its
    solver and raises it within one ``_POLL_S`` slice.
    """
    run = _BINDERS[spec.kind](spec, instance, stop)

    def run_once(seed: int, key) -> float:
        if stop is not None and stop.is_set():
            raise KeyboardInterrupt
        value = run(seed, key)
        if not math.isfinite(value):
            raise RunnerError(f"run produced a non-finite value {value!r}",
                              alias=spec.alias, instance_id=instance.id, seed=seed)
        return float(value)

    return run_once


# ---------------------------------------------------------------------------
# synthetic runners


def _bind_normal(spec: AlgorithmSpec, instance: InstanceRef, stop):
    """A normal draw at ``mu`` and ``sigma``: the spec's params, overridden
    by ``payload[alias]``."""
    override = instance.payload.get(spec.alias, {})
    if not isinstance(override, dict):
        raise ValueError(f"payload.{spec.alias} must be a mapping, got {override!r}")
    _check(spec.kind, override, f"payload.{spec.alias}")
    params = {**_DEFAULTS[spec.kind], **spec.params, **override}
    mu, sigma = params["mu"], params["sigma"]
    if sigma == 0.0:
        return lambda seed, key: mu
    return lambda seed, key: mu + sigma * kept_generator(key).standard_normal()


def _bind_lognormal(spec: AlgorithmSpec, instance: InstanceRef, stop):
    normal = _bind_normal(spec, instance, stop)

    def run(seed: int, key) -> float:
        try:  # math.exp: np.exp may differ in the last bit
            return math.exp(normal(seed, key))
        except OverflowError:  # bind refuses it, naming the run
            return math.inf

    return run


# reading a config of a 10**5-instance pool took 1.5 s and 116 MB more
# peak RSS (2-core Xeon, Python 3.11), so the bound is about 1.2 GB and
# 20 s before the first run
MAX_POOL_INSTANCES = 10 ** 6


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
    by construction.  At most ``MAX_POOL_INSTANCES`` instances are built.
    """
    if n_instances < 1:
        raise ValueError(f"need at least one instance, got {n_instances!r}")
    if n_instances > MAX_POOL_INSTANCES:
        raise ValueError(f"at most {MAX_POOL_INSTANCES} instances are allowed, got "
                         f"{n_instances!r}: reading a config holds about 1.2 kB "
                         f"per instance before any run")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
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

_POLL_S = 0.1  # how long a solver may outlive its run's stop, in seconds


def _bind_subprocess(spec: AlgorithmSpec, instance: InstanceRef, stop):
    """The executable and its argument template, with ``{instance}``
    replaced by ``payload.path``, else the instance id; a run then
    replaces ``{seed}``.  Neither is replaced in the executable.  A run
    looks at ``stop`` after each ``_POLL_S`` slice of its wait."""
    params = {**_DEFAULTS[spec.kind], **spec.params}
    path = instance.payload.get("path", instance.id)
    if not isinstance(path, str):
        raise ValueError(f"payload.path must be a string, got {path!r}")
    args = params["args"]
    if isinstance(args, str):
        args = shlex.split(args)
    executable = params["executable"]
    template = [str(a).replace("{instance}", path) for a in args]

    def run(seed: int, key) -> float:
        def failure(message: str, *output: str) -> RunnerError:
            # output: the run's stdout and stderr, whose tail the error keeps
            excerpt = "\n".join(text for text in output if text).strip()
            return RunnerError(message, alias=spec.alias, instance_id=instance.id,
                               seed=seed,
                               output_excerpt=excerpt[-_EXCERPT_CHARS:] if output else None)

        cmd = [executable] + [a.replace("{seed}", str(seed)) for a in template]
        try:
            # a session of its own, so a timeout can kill everything it started
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True,
                                    start_new_session=True)
        except OSError as exc:
            raise failure(f"could not launch {cmd[0]!r}: {exc}") from exc
        deadline = time.monotonic() + spec.timeout
        with proc:
            try:
                while True:  # communicate may be called again after a timeout
                    with contextlib.suppress(subprocess.TimeoutExpired):
                        stdout, stderr = proc.communicate(
                            timeout=min(_POLL_S, deadline - time.monotonic()))
                        break
                    if stop is not None and stop.is_set():
                        raise KeyboardInterrupt
                    if time.monotonic() >= deadline:
                        raise subprocess.TimeoutExpired(cmd, spec.timeout)
            except subprocess.TimeoutExpired as exc:
                os.killpg(proc.pid, signal.SIGKILL)
                stdout, stderr = proc.communicate()
                raise failure(f"run timed out after {spec.timeout:g}s",
                              stdout, stderr) from exc
            except BaseException:
                # also once the leader is reaped: a wrapper's children may live on
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                raise
        if proc.returncode != 0:
            raise failure(f"run exited with status {proc.returncode}", stdout, stderr)
        lines = [ln.strip() for ln in stdout.splitlines() if ln.strip()]
        if not lines:
            raise failure("run produced no output to parse", stdout, stderr)
        try:
            return float(lines[-1])
        except ValueError:
            raise failure(f"last output line {lines[-1]!r} is not a decimal value",
                          stdout, stderr) from None

    return run


# ---------------------------------------------------------------------------
# simulated-annealing TSP demo


# a binding holds the n x n distance matrix as nested lists: one of 1000
# cities peaked at 56 MB (tracemalloc), one of 2000 at 214 MB, and an
# instance in flight binds both algorithms
MAX_TSP_CITIES = 1000


def build_tsp_instance(instance_id: str, n_cities: int = 21,
                       layout_seed: int = 0) -> InstanceRef:
    """Random Euclidean TSP instance with the full distance matrix inlined,
    of 4 to ``MAX_TSP_CITIES`` cities."""
    if n_cities < 4:
        raise ValueError(f"need at least 4 cities, got {n_cities!r}")
    if n_cities > MAX_TSP_CITIES:
        raise ValueError(f"at most {MAX_TSP_CITIES} cities are allowed, got "
                         f"{n_cities!r}: the distance matrix grows as their square")
    rng = make_generator(layout_seed)
    pts = rng.uniform(0.0, 100.0, size=(n_cities, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    return InstanceRef(id=instance_id, payload={"distance_matrix": dist.tolist()})


def _tour_length(tour: list[int], d) -> float:
    total = 0.0
    for i in range(len(tour) - 1):
        total += d[tour[i]][tour[i + 1]]
    return total + d[tour[-1]][tour[0]]


def _bind_sann_tsp(spec: AlgorithmSpec, instance: InstanceRef, stop):
    """One annealing run on the distance matrix: ``payload.distance_matrix``,
    or one generated from ``payload.cities`` and ``payload.layout_seed``."""
    params = {**_DEFAULTS[spec.kind], **spec.params}
    payload = instance.payload
    if "distance_matrix" in payload:
        try:
            dist = np.asarray(payload["distance_matrix"], dtype=float)
        except (TypeError, ValueError):
            dist = None
        if (dist is None or dist.ndim != 2 or dist.shape[0] != dist.shape[1]
                or dist.shape[0] < 4):
            raise ValueError("payload.distance_matrix must be a square matrix "
                             "of numbers, at least 4 by 4")
        d = dist.tolist()
    elif "cities" in payload:
        cities, layout_seed = payload["cities"], payload.get("layout_seed", 0)
        if not (_is_int(cities) and cities >= 4):
            raise ValueError(f"payload.cities must be an integer >= 4, got {cities!r}")
        if cities > MAX_TSP_CITIES:
            raise ValueError(f"payload.cities must be at most {MAX_TSP_CITIES}, "
                             f"got {cities!r}")
        if not (_is_int(layout_seed) and layout_seed >= 0):
            raise ValueError(f"payload.layout_seed must be an integer >= 0, "
                             f"got {layout_seed!r}")
        d = build_tsp_instance(instance.id, cities, layout_seed).payload["distance_matrix"]
    else:
        raise ValueError("the payload needs a 'distance_matrix' or a 'cities' count")
    temp, budget, n = params["temp"], params["budget"], len(d)

    def run(seed: int, key) -> float:
        rng = kept_generator(key)
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
            cooled = temp / math.log(step + math.e)
            if delta < 0.0 or rng.random() < math.exp(-delta / cooled):
                tour[i:k + 1] = reversed(tour[i:k + 1])
                cur += delta
                if cur < best:
                    best = cur
        return best

    return run


# each kind's binder: it reads and checks what a run of the spec on the
# instance reads, and returns the run function of (seed, key); only the
# subprocess binder reads the stop, since an in-process run cannot be cut
# short, and bind looks at it before each run starts
_BINDERS = {
    AlgorithmKind.SUBPROCESS: _bind_subprocess,
    AlgorithmKind.SYNTHETIC_NORMAL: _bind_normal,
    AlgorithmKind.SYNTHETIC_LOGNORMAL: _bind_lognormal,
    AlgorithmKind.DEMO_SANN_TSP: _bind_sann_tsp,
}
