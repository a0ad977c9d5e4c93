import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
import paircomp.seeding as seeding_module
from paircomp.seeding import (derive_seed, first_stages, generator_key,
                              kept_generator, make_generator, philox_words,
                              run_keys)

EDGE_VALUES = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)


def random_value(rng, max_words):
    if rng.random() < 0.2:
        return rng.choice(EDGE_VALUES)
    return rng.getrandbits(32 * rng.randint(1, max_words))


class TestSeedDerivation:
    def test_counter_scheme_is_frozen(self):
        # these values pin the documented derivation scheme; a change here
        # breaks reproducibility of every recorded experiment
        assert derive_seed(0) == 15793235383387715774
        assert derive_seed(1234, 0) == 4985326416798289662
        assert derive_seed(1234, 1, 0) == 16274685030245454228
        assert derive_seed(1234, 1, 7) == 10804711530192008396
        # a run's seed: derive_seed(instance_seed, algo_index, run_index)
        assert derive_seed(99, 0, 0) == 493536389902028131
        assert derive_seed(99, 1, 3) == 3599309446377083542

    def test_paths_are_disjoint(self):
        seeds = {derive_seed(7, stream, k)
                 for stream in range(5) for k in range(200)}
        assert len(seeds) == 5 * 200

    def test_root_changes_everything(self):
        a = [derive_seed(1, 1, k) for k in range(50)]
        b = [derive_seed(2, 1, k) for k in range(50)]
        assert not set(a) & set(b)

    def test_generator_is_deterministic(self):
        g1 = make_generator(42)
        g2 = make_generator(42)
        assert g1.standard_normal(8).tolist() == g2.standard_normal(8).tolist()

    def test_generator_is_philox(self):
        assert type(make_generator(0).bit_generator).__name__ == "Philox"

    def test_extension_does_not_perturb_earlier_instances(self):
        # seeds are positional: adding instances appends new seeds only
        first_ten = [derive_seed(5, 1, k) for k in range(10)]
        first_twenty = [derive_seed(5, 1, k) for k in range(20)]
        assert first_twenty[:10] == first_ten


class TestSeedSequenceEquivalence:
    def test_matches_seed_sequence_on_random_paths(self):
        rng = random.Random(20240811)
        for _ in range(10_000):
            root = random_value(rng, 6)
            prefix = tuple(random_value(rng, 3) for _ in range(rng.randint(0, 3)))
            # two last elements per prefix, so the second reuses a cached prefix
            for path in (prefix, prefix + (random_value(rng, 3),),
                         prefix + (random_value(rng, 3),)):
                assert derive_seed(root, *path) == oracles.seed_sequence_seed(root, *path), \
                    (root, path)

    def test_edge_values_in_every_position(self):
        for root in EDGE_VALUES:
            for a in EDGE_VALUES:
                for b in EDGE_VALUES:
                    assert derive_seed(root, a, b) == oracles.seed_sequence_seed(root, a, b)

    @pytest.mark.parametrize("root, path", [(-1, ()), (-1, (0, 1)), (5, (-1,)),
                                            (5, (0, -1)), (5, (-1, 0))])
    def test_negative_values_rejected_like_numpy(self, root, path):
        with pytest.raises(ValueError):
            oracles.seed_sequence_seed(root, *path)
        with pytest.raises(ValueError):
            derive_seed(root, *path)

    @pytest.mark.parametrize("root, path", [(1.0, (0,)), (5, (1.5,)), (5, (1.0, 2)),
                                            (5, (np.float64(2.0),))])
    def test_float_values_rejected_like_numpy(self, root, path):
        derive_seed(int(root), *map(int, path))  # a cached integer twin hides nothing
        with pytest.raises(TypeError):
            oracles.seed_sequence_seed(root, *path)
        with pytest.raises(TypeError):
            derive_seed(root, *path)

    def test_numpy_integers_accepted(self):
        assert derive_seed(np.uint64(2 ** 64 - 1), np.int64(1), np.uint32(7)) == \
            oracles.seed_sequence_seed(2 ** 64 - 1, 1, 7)

    def test_concurrent_callers_agree(self):
        # more threads than cores, so the derivations interleave
        jobs = [(root, algo, run) for root in range(300) for algo in range(2)
                for run in range(4)]
        expected = [oracles.seed_sequence_seed(*job) for job in jobs]

        def derive_all(share):
            return [derive_seed(*job) for job in share]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(derive_all, jobs[k::8]) for k in range(8)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k in range(8):
            assert got[k] == expected[k::8]


EDGE_ROOTS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 128 + 1)
EDGE_RUNS = (0, 1, 2 ** 32 - 1)


class TestRunKeys:
    def test_matches_derive_seed_and_numpy_keys_on_random_triples(self):
        rng = random.Random(20261018)
        prefixes = [(random_value(rng, 2) if rng.random() < 0.9 else random_value(rng, 5),
                     rng.randrange(2) if rng.random() < 0.9 else rng.getrandbits(32))
                    for _ in range(1000)]
        runs = [rng.choice(EDGE_RUNS) if rng.random() < 0.1 else rng.randrange(500)
                for _ in range(30)]
        seeds, keys = run_keys(prefixes, runs)
        assert seeds.dtype == np.uint64 and keys.dtype == np.uint64
        assert seeds.shape == (len(prefixes), len(runs))
        assert keys.shape == (len(prefixes), len(runs), 2)
        for p, (root, algo) in enumerate(prefixes):
            for i, run in enumerate(runs):
                seed = int(seeds[p, i])
                assert seed == derive_seed(root, algo, run), (root, algo, run)
                assert keys[p, i].tolist() == oracles.reference_key(seed), (root, algo, run)

    def test_edge_roots_and_run_indices(self):
        # a root wider than the pool changes the hash constant of the prefix
        prefixes = [(root, algo) for root in EDGE_ROOTS for algo in (0, 1)]
        seeds, keys = run_keys(prefixes, EDGE_RUNS)
        for (root, algo), row_seeds, row_keys in zip(prefixes, seeds.tolist(), keys.tolist()):
            for run, seed, key in zip(EDGE_RUNS, row_seeds, row_keys):
                assert seed == oracles.seed_sequence_seed(root, algo, run)
                assert key == oracles.reference_key(seed)

    def test_wide_roots_and_algorithm_indices(self):
        # a key word beyond the first moves the prefix's hash constant too
        prefixes = [(root, algo) for root in (5, 2 ** 64 - 1, 2 ** 200)
                    for algo in (2 ** 32, 2 ** 70, 2 ** 130)]
        seeds, _ = run_keys(prefixes, (0, 9))
        assert seeds.tolist() == [[oracles.seed_sequence_seed(root, algo, run)
                                   for run in (0, 9)] for root, algo in prefixes]

    def test_each_prefix_row_equals_that_prefix_alone(self):
        # repeated prefixes included: rows never mix
        runs = np.arange(7, 40)
        prefixes = [(99, 1), (5, 0), (99, 1), (2 ** 70, 3)]
        seeds, keys = run_keys(prefixes, runs)
        for p, prefix in enumerate(prefixes):
            alone_seeds, alone_keys = run_keys([prefix], runs)
            assert seeds[p].tolist() == alone_seeds[0].tolist()
            assert keys[p].tolist() == alone_keys[0].tolist()

    def test_empty_block(self):
        for prefixes, runs in (([], []), ([(1, 0)], []), ([], [0, 1])):
            seeds, keys = run_keys(prefixes, runs)
            assert seeds.shape == (len(prefixes), len(runs))
            assert keys.shape == (len(prefixes), len(runs), 2)

    def test_refuses_a_run_index_beyond_one_word(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            run_keys([(1, 0)], [2 ** 32])

    def test_concurrent_blocks_agree(self):
        # more threads than cores and more (root, algo) prefixes than the
        # prefix cache holds, in small blocks, so lookups, inserts and
        # evictions interleave; neighbouring threads share prefixes
        prefixes = [(root, algo) for root in range(2100) for algo in range(2)]
        runs = range(3)
        expected = [[oracles.seed_sequence_seed(*prefix, run) for run in runs]
                    for prefix in prefixes]

        def derive(share):
            return [row for k in range(0, len(share), 17)
                    for row in run_keys(share[k:k + 17], runs)[0].tolist()]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(derive, prefixes[k::8]) for k in range(8)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k in range(8):
            assert got[k] == expected[k::8]


class TestFirstStages:
    def test_each_instance_gets_both_algorithms_first_runs(self):
        # 600 instances at n0 = 4 span more than one kernel chunk
        instance_seeds = [derive_seed(77, 1, k) for k in range(600)]
        stages = list(first_stages(instance_seeds, 4))
        assert len(stages) == len(instance_seeds)
        for seed, (seeds, keys) in zip(instance_seeds[::37], stages[::37]):
            assert seeds.shape == (2, 4) and keys.shape == (2, 4, 2)
            assert seeds.tolist() == [[derive_seed(seed, algo, run) for run in range(4)]
                                      for algo in (0, 1)]
            assert keys.tolist() == [[oracles.reference_key(s) for s in row]
                                     for row in seeds.tolist()]

    def test_a_chunk_is_derived_when_its_first_instance_is_asked_for(self, monkeypatch):
        calls = []
        kernel = seeding_module.run_keys
        monkeypatch.setattr(seeding_module, "run_keys",
                            lambda prefixes, runs: calls.append(len(prefixes))
                            or kernel(prefixes, runs))
        stages = first_stages(list(range(600)), 4)
        next(stages)
        chunk = seeding_module._FIRST_STAGE_RUNS // 8
        assert calls == [2 * chunk]
        for _ in range(chunk):
            next(stages)
        assert calls == [2 * chunk, 2 * (600 - chunk)]


class TestKeptGenerator:
    def test_rekeyed_draws_equal_a_new_generator(self):
        for seed in (0, 1, 2 ** 32, 2 ** 64 - 1, 123456789):
            ref = oracles.reference_generator(seed)
            rng = kept_generator(oracles.reference_key(seed))
            assert rng.standard_normal(5).tolist() == ref.standard_normal(5).tolist()
            assert rng.integers(0, 10 ** 6, 7).tolist() == ref.integers(0, 10 ** 6, 7).tolist()
            assert rng.random() == ref.random()

    def test_rekeying_drops_every_part_of_the_old_state(self):
        # a 32-bit draw leaves half a word buffered and a normal draw moves
        # the counter; neither may leak into the next run's stream
        rng = kept_generator(oracles.reference_key(5))
        rng.integers(0, 2 ** 32, dtype=np.uint32)
        rng.standard_normal(3)
        rng = kept_generator(oracles.reference_key(6))
        ref = oracles.reference_generator(6)
        assert rng.integers(0, 2 ** 32, 5, dtype=np.uint32).tolist() == \
            ref.integers(0, 2 ** 32, 5, dtype=np.uint32).tolist()
        assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("threads", [1, 4])
    def test_word_reads_between_rekeys_leave_no_state(self, threads):
        # philox_words moves the thread's kept generator to later counter
        # blocks; the re-key that follows starts from the thread's counter-0
        # template, which must still hold counter 0 and an empty buffer
        reads = [(0, 5), (2 ** 15 + 3, 2 ** 15 + 11), (2 ** 19 + 9, 2 ** 19 + 14), (17, 21)]

        def interleave(share):
            got = []
            for i, seed in enumerate(share):
                rng = kept_generator(oracles.reference_key(seed))
                got.append((rng.integers(0, 2 ** 32, 3, dtype=np.uint32).tolist(),
                            rng.standard_normal(2).tolist()))
                # words from the first counter block and from later ones
                # come between two re-keys
                start, stop = reads[i % len(reads)]
                key = generator_key(10 ** 6 + i // 2)
                assert philox_words(key, start, stop).tolist() == \
                    make_generator(10 ** 6 + i // 2).integers(0, 2 ** 32, stop)[start:].tolist()
            return got

        seeds = list(range(3000, 3000 + 12 * threads))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(interleave, seeds[k::threads]) for k in range(threads)]
            got = [f.result(timeout=120) for f in futures]
        for k in range(threads):
            want = []
            for seed in seeds[k::threads]:
                ref = make_generator(seed)
                want.append((ref.integers(0, 2 ** 32, 3, dtype=np.uint32).tolist(),
                             ref.standard_normal(2).tolist()))
            assert got[k] == want

    def test_each_thread_keeps_its_own(self):
        seeds = list(range(1000, 1400))

        def draw_all(share):
            return [kept_generator(oracles.reference_key(s)).standard_normal(3).tolist()
                    for s in share]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(draw_all, seeds[k::8]) for k in range(8)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k in range(8):
            assert got[k] == [oracles.reference_generator(s).standard_normal(3).tolist()
                              for s in seeds[k::8]]
