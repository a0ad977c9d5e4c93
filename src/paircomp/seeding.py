"""Deterministic seed derivation on top of the Philox counter-based generator.

Every stochastic operation in the package takes an explicit seed, and all
seeds are derived from a single master seed through a fixed counter scheme
so that experiments are bit-reproducible and extending an experiment never
perturbs earlier draws:

* stream 0: instance selection (sampling without replacement from the pool)
* stream 1, k: seed for the k-th selected instance (k = 0, 1, ...)
* stream 2: diagnostics bootstrap
* stream 3: synthetic pool construction
* stream 4: within-instance bootstrap standard errors

Within one instance, the run that gives algorithm ``a`` (0 or 1) its
``r``-th observation uses ``derive_seed(instance_seed, a, r)`` and draws
from the generator ``make_generator`` builds from that seed.  Run indices
are never reused, so distinct runs always get distinct seeds.

``derive_seed(root, *path)`` is numpy's own
``np.random.SeedSequence(entropy=root, spawn_key=path).generate_state(1,
np.uint64)[0]``.

The key rule: ``make_generator(seed)`` is a Philox generator whose key is
``SeedSequence(seed).generate_state(2, np.uint64)`` and whose counter
starts at 0.  Philox is counter-based, so key and counter set its whole
stream, and a generator re-keyed to that key at counter 0 draws exactly
what a new one would.  ``generator_key(seed)`` is that key.

``run_keys(roots, algos, runs)`` is the block kernel: for arrays of
(instance seed, algorithm index, run index) it returns every run's
``derive_seed`` value and its generator key in one numpy pass.  It
absorbs a run index as one 32-bit word, so run indices stay below 2**32
(``SamplingConfig`` refuses a larger budget).  A call has a fixed numpy
overhead of tens of microseconds, whatever its size, so callers derive
runs in blocks: the experiment derives the first stage of many instances
at once, and the sampler the later runs of an instance in blocks that
double.

SeedSequence's ``hashmix`` and ``mix`` steps have one implementation
here: the kernel's, on ``uint32`` arrays where products wrap mod 2**32,
vectorised over runs and over pool words.  Every scalar derivation
(``derive_seed``, ``generator_key`` and the kernel's per-prefix state) is
numpy's SeedSequence itself, and the tests pin the kernel to numpy.

``kept_generator(key)`` re-keys the calling thread's one kept Philox
generator and returns it, instead of building a generator.  It may be used
only where the generator does not escape the call, since the thread's next
call re-keys it: the synthetic and TSP runs and the bootstrap SE use it.
Whatever keeps or returns a generator builds one with ``make_generator``.
"""

from __future__ import annotations

import operator
import threading
from functools import lru_cache

import numpy as np

SELECTION_STREAM = 0
INSTANCE_STREAM = 1
DIAGNOSTICS_STREAM = 2
POOL_STREAM = 3
BOOTSTRAP_STREAM = 4

# numpy.random.SeedSequence's constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def derive_seed(root: int, *path: int) -> int:
    """Derive a 64-bit child seed from ``root`` along a counter path."""
    seq = np.random.SeedSequence(operator.index(root),
                                 spawn_key=tuple(map(operator.index, path)))
    return int(seq.generate_state(1, np.uint64)[0])


@lru_cache(maxsize=1024)
def generator_key(seed: int) -> tuple[int, int]:
    """Key of the Philox generator ``make_generator(seed)`` builds.

    Cached: the bootstrap SE asks for its one seed's key after every run.
    """
    return tuple(np.random.SeedSequence(int(seed)).generate_state(2, np.uint64).tolist())


# A hashmix step XORs a value with the running hash constant and multiplies
# it by the next one, so each stage of the kernel has a column of XOR
# constants and one of multipliers, one row per pool word.


def _consts(init: int, mult: int, count: int) -> list[int]:
    """``init`` and the next ``count - 1`` values of a running hash constant."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


_U32_L, _U32_R, _U32_SHIFT = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R), np.uint32(_XSHIFT)
_U64_32 = np.uint64(32)
# mixing a 64-bit seed into a pool takes 16 hashmix steps: one per pool
# word, then one per ordered pair (source, destination) of pool words
_A = _consts(_INIT_A, _MULT_A, 17)
_FILL = (_column(_A[0:4]), _column(_A[1:5]))


def _pair_columns(src: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Source ``src``'s steps: its constants in every other word's row.

    Its own row holds zeros; the kernel puts that word back after the step.
    """
    xor, mult = [0] * _POOL_SIZE, [0] * _POOL_SIZE
    for pos, dst in enumerate(d for d in range(_POOL_SIZE) if d != src):
        step = _POOL_SIZE + 3 * src + pos
        xor[dst], mult[dst] = _A[step], _A[step + 1]
    return src, _column(xor), _column(mult)


_PAIRS = [_pair_columns(src) for src in range(_POOL_SIZE)]
_B = _consts(_INIT_B, _MULT_B, 5)
_OUT = (_column(_B[0:4]), _column(_B[1:5]))


def _n_words(value: int) -> int:
    """How many 32-bit words SeedSequence splits ``value`` into."""
    return max(1, (value.bit_length() + 31) // 32)


# sized so that the first-stage block of a whole chunk of instances fits
@lru_cache(maxsize=4096)
def _prefix_row(root: int, algo: int) -> tuple[int, ...]:
    """Pool words 0 and 1 of ``SeedSequence(root, spawn_key=(algo,))`` and
    the three hash constants that absorbing a run index into them uses."""
    pool = np.random.SeedSequence(root, spawn_key=(algo,)).pool
    # mixing L entropy words (the root's, zero-padded to the pool size, then
    # the key's) takes 4 * L hashmix steps: one per pool word, one per
    # ordered pair of pool words, and one per pool word for each word
    # beyond the pool
    n_words = max(_n_words(root), _POOL_SIZE) + _n_words(algo)
    hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * n_words, 1 << 32) & _MASK32
    return (int(pool[0]), int(pool[1]), *_consts(hash_const, _MULT_A, 3))


def _hashmix_u32(values, xor, mult):
    hashed = (values ^ xor) * mult
    hashed ^= hashed >> _U32_SHIFT
    return hashed


def _mix_u32(x, y):
    mixed = _U32_L * x - _U32_R * y
    mixed ^= mixed >> _U32_SHIFT
    return mixed


def run_keys(roots, algos, runs) -> tuple[np.ndarray, np.ndarray]:
    """Seeds and generator keys of a block of runs, in one numpy pass.

    For equal-length sequences of instance seeds, algorithm indices and
    run indices (each below 2**32), returns ``seeds`` with ``seeds[i] ==
    derive_seed(roots[i], algos[i], runs[i])`` and ``keys`` of shape
    (n, 2) with ``keys[i] == generator_key(seeds[i])``, both ``uint64``.
    """
    runs = np.asarray(runs, dtype=np.uint64).reshape(-1)
    if runs.size and int(runs.max()) > _MASK32:
        raise ValueError("a run index must be below 2**32")
    pairs = list(zip(roots, algos))
    if len(pairs) != runs.size:
        raise ValueError("roots, algos and runs must have the same length")
    # each distinct (root, algo) prefix comes from the cache once; its row
    # holds pool words 0 and 1 and three consecutive hash constants
    prefixes = dict.fromkeys(pairs)
    table = [_prefix_row(operator.index(root), operator.index(algo))
             for root, algo in prefixes]
    table = np.array(table, dtype=np.uint32).reshape(-1, 5).T
    if len(prefixes) > 1:
        index = {pair: i for i, pair in enumerate(prefixes)}
        table = table[:, list(map(index.__getitem__, pairs))]
    # absorb the run index into pool words 0 and 1, then hash them out
    pool = _mix_u32(table[0:2], _hashmix_u32(runs.astype(np.uint32), table[2:4], table[3:5]))
    halves = _hashmix_u32(pool, _OUT[0][:2], _OUT[1][:2]).astype(np.uint64)
    seeds = halves[0] | halves[1] << _U64_32
    # SeedSequence(seed): its entropy is the seed's two words, zero-padded
    entropy = np.zeros((_POOL_SIZE, runs.size), dtype=np.uint32)
    entropy[:2] = halves
    pool = _hashmix_u32(entropy, *_FILL)
    for src, xor, mult in _PAIRS:
        mixed = _mix_u32(pool, _hashmix_u32(pool[src], xor, mult))
        mixed[src] = pool[src]
        pool = mixed
    words = _hashmix_u32(pool, *_OUT).astype(np.uint64)
    return seeds, (words[0::2] | words[1::2] << _U64_32).T


def make_generator(seed: int) -> np.random.Generator:
    """Philox generator for a 64-bit seed (counter-based, splittable)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


_kept = threading.local()
_ZEROS = (0, 0, 0, 0)


def kept_generator(key=None) -> np.random.Generator:
    """The calling thread's kept Philox generator, re-keyed to ``key``.

    With a key (a pair of 64-bit words, as ``generator_key`` and
    ``run_keys`` give), the generator restarts at counter 0 under it and
    draws what ``make_generator`` of the key's seed would.  Without one it
    is returned as it is, for a caller that sets its state.  The thread's
    next call re-keys it, so it must not escape the caller.
    """
    rng = getattr(_kept, "rng", None)
    if rng is None:
        rng = _kept.rng = np.random.Generator(np.random.Philox(0))
    if key is not None:
        rng.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng
