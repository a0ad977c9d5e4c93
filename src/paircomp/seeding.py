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
``r``-th observation uses ``derive_seed(instance_seed, a, r)``.  Run
indices are never reused, so distinct runs always get distinct seeds.

``derive_seed(root, *path)`` is, for every input, the value of
``np.random.SeedSequence(entropy=root, spawn_key=path).generate_state(1,
np.uint64)[0]``; the tests pin it to numpy's SeedSequence.  SeedSequence
fills its 4-word pool from the root (zero-padded to 4 words when there is
a spawn key), mixes the pool, and then absorbs each 32-bit word of the
spawn key into every pool word in turn.  So the state after a path prefix
(the pool and the position of the running hash constant) extends the
state after any shorter prefix.  numpy builds the root's pool once; a
small cache keeps the state for each ``(root, path[:-1])``, and each call
absorbs only the last path element, with SeedSequence's own
``hashmix``/``mix`` steps in plain Python ints, then applies its
``generate_state`` output hash.  That hash reads pool words 0 and 1 only,
so the element's final word is mixed into those two.  All runs of one
algorithm on one instance share the prefix ``(instance_seed,
algo_index)``, so each run costs one mixing step instead of a
SeedSequence construction.
"""

from __future__ import annotations

import operator
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


@lru_cache(maxsize=256)
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


def make_generator(seed: int) -> np.random.Generator:
    """Philox generator for a 64-bit seed (counter-based, splittable)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
