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

``derive_seed(root, *path)`` is, for every input, the value of
``np.random.SeedSequence(entropy=root, spawn_key=path).generate_state(1,
np.uint64)[0]``; the tests pin it to numpy's SeedSequence.  SeedSequence
fills its 4-word pool from the root (zero-padded to 4 words when there is
a spawn key), mixes the pool, and then absorbs each 32-bit word of the
spawn key into every pool word in turn.  So the state after a path prefix
(the pool and the position of the running hash constant) extends the
state after any shorter prefix.  numpy builds the root's pool once; a
cache keeps the state for each ``(root, path[:-1])``, and each call
absorbs only the last path element, with SeedSequence's own
``hashmix``/``mix`` steps in plain Python ints, then applies its
``generate_state`` output hash.  That hash reads pool words 0 and 1 only,
so the element's final word is mixed into those two.  All runs of one
algorithm on one instance share the prefix ``(instance_seed,
algo_index)``.

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

The kernel repeats SeedSequence's hash steps on ``uint32`` arrays, where
products wrap mod 2**32 as the masks of the scalar code do, vectorised
over runs and over pool words.  ``derive_seed`` keeps them on Python ints:
one scalar derivation through numpy would cost about ten times as much,
and it runs for every instance.  The tests pin both to numpy.

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


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of ``value``, split as SeedSequence does."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _absorb(pool, hash_const: int, words, width: int = _POOL_SIZE) -> tuple[list[int], int]:
    """Mix ``words`` into the first ``width`` pool words as SeedSequence does.

    SeedSequence mixes each spawn-key word into all 4 pool words; a
    narrower ``width`` serves a last word after which only those are read.
    """
    pool = list(pool)
    for word in words:
        for i in range(width):
            hashed = word ^ hash_const                     # hashmix
            hash_const = hash_const * _MULT_A & _MASK32
            hashed = hashed * hash_const & _MASK32
            hashed ^= hashed >> _XSHIFT
            mixed = (_MIX_MULT_L * pool[i] - _MIX_MULT_R * hashed) & _MASK32  # mix
            pool[i] = mixed ^ (mixed >> _XSHIFT)
    return pool, hash_const


# sized so that the first-stage block of a whole chunk of instances fits
@lru_cache(maxsize=4096)
def _prefix_state(root: int, prefix: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Pool of ``SeedSequence(root, spawn_key=prefix)`` and its hash constant."""
    if prefix:
        pool, hash_const = _absorb(*_prefix_state(root, prefix[:-1]), _words(prefix[-1]))
        return tuple(pool), hash_const
    pool = np.random.SeedSequence(entropy=root).pool
    # mixing n root words, zero-padded to n >= pool size, takes 4 * n
    # hashmix steps: one per pool word, one per ordered pair of pool words,
    # and one per pool word for each word beyond the pool
    n_words = max(len(_words(root)), _POOL_SIZE)
    hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * n_words, 1 << 32) & _MASK32
    return tuple(int(w) for w in pool), hash_const


def derive_seed(root: int, *path: int) -> int:
    """Derive a 64-bit child seed from ``root`` along a counter path."""
    root = operator.index(root)
    path = tuple(map(operator.index, path))
    words = _words(path[-1]) if path else []
    pool, hash_const = _absorb(*_prefix_state(root, path[:-1]), words[:-1])
    # generate_state(1, np.uint64) hashes pool words 0 and 1 into the seed
    pool, _ = _absorb(pool, hash_const, words[-1:], width=2)
    seed = 0
    hash_const = _INIT_B
    for i in range(2):
        word = pool[i] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        seed |= (word ^ (word >> _XSHIFT)) << (32 * i)
    return seed


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
    table = []
    for root, algo in prefixes:
        pool, hash_const = _prefix_state(operator.index(root), (operator.index(algo),))
        consts = _consts(hash_const, _MULT_A, 3)
        table.append((pool[0], pool[1], *consts))
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
