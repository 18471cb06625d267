"""Randomized multiset property checks, controls, and dominance reports."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_samplers import ScalarWords, as_scaled, draw_pair, is_integer_scaling, reduceat_outputs

import gclab.verify
from gclab.autodiff import Var, tanh_gate
from gclab.lmgc import Variant, eq14_coefficients
from gclab.seeding import derive_seed, splitmix64
from gclab.verify import (
    _FEATURE_SEPARATOR,
    COEFFICIENT_SOURCES,
    COLLISION_RTOL,
    LATTICE_RANGE,
    LATTICE_SCALE,
    MAX_ELEMENTS,
    CoefficientSource,
    MultisetInstance,
    _as_arrays,
    _decode_block,
    _decode_chunk,
    _iid_keys,
    _instance,
    _LatticeWords,
    _outputs,
    _pair_words,
    _rejects,
    _scaled,
    _scores,
    _weights,
    aggregate,
    independence_trial,
    injectivity_trial,
    multiset_counterexample_outputs,
    parallel_control,
    sample_instance,
)

LATTICE = (-LATTICE_RANGE, LATTICE_RANGE + 1)


class TestSampling:
    def test_instance_within_lattice_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            inst = sample_instance(rng, d=4)
            assert len(inst.center) == 4
            assert 1 <= len(inst.elements) <= 5
            for vec in (inst.center, *inst.elements):
                assert all(-LATTICE_RANGE <= v <= LATTICE_RANGE for v in vec)

    def test_generator_draws_the_per_row_instances(self):
        # one (size, d) element draw reads the same words as size draws of d
        def per_row(rng, d):
            center = tuple(int(v) for v in rng.integers(*LATTICE, d))
            size = int(rng.integers(1, MAX_ELEMENTS + 1))
            elements = [tuple(int(v) for v in rng.integers(*LATTICE, d)) for _ in range(size)]
            return MultisetInstance(center, tuple(sorted(elements)))

        for d in (1, 4, 7):
            rng, ref = np.random.default_rng(d), np.random.default_rng(d)
            for _ in range(500):
                assert sample_instance(rng, d) == per_row(ref, d)

    def test_elements_sorted_for_canonical_equality(self):
        rng = np.random.default_rng(1)
        inst = sample_instance(rng, d=3)
        assert inst.elements == tuple(sorted(inst.elements))


class TestLatticeWords:
    """The scalar reference reader, over _LatticeWords' blocks, draws as the Generator does."""

    def assert_same_draws(self, seed, block, calls):
        words = ScalarWords(_LatticeWords(np.random.default_rng(seed), block, 4))
        rng = np.random.default_rng(seed)
        for low, high, size in calls:
            assert words.integers(low, high, size).tolist() == rng.integers(low, high, size).tolist()

    @pytest.mark.parametrize("block", [1, 3, 7, 64, 4096])
    def test_lattice_ranges_equal_the_generator(self, block):
        # blocks shorter than a draw make every call cross a refill
        pick = np.random.default_rng(40)
        calls = []
        for _ in range(600):
            size = [None, int(pick.integers(1, 9)), (int(pick.integers(1, 6)), int(pick.integers(1, 8)))]
            max_size = int(pick.integers(1, MAX_ELEMENTS + 1))  # 1 is the zero-width range
            calls += [(*LATTICE, size[pick.integers(3)]), (1, max_size + 1, None)]
        self.assert_same_draws(41, block, calls)

    def test_zero_and_full_width_ranges(self):
        words = ScalarWords(_LatticeWords(np.random.default_rng(42), 5, 4))
        rng = np.random.default_rng(42)
        assert words.integers(1, 2).tolist() == rng.integers(1, 2).tolist() == 1
        assert words.integers(3, 4, (2, 3)).tolist() == rng.integers(3, 4, (2, 3)).tolist()
        assert words.integers(0, 2**32).tolist() == rng.integers(0, 2**32).tolist()
        with pytest.raises(ValueError, match="outside"):
            words.integers(0, 2**32 + 1)

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    def test_heavy_rejection_range_equals_the_generator(self, block):
        # a span of 3 * 2^30 rejects every word u = 0 mod 4, a quarter of them,
        # so numpy's own draws check the scalar redraw loop here
        span = 3 * 2**30
        raw = np.random.default_rng(43).integers(0, 2**32, 400, dtype=np.uint32).astype(np.uint64)
        assert np.count_nonzero(raw * np.uint64(span) % 2**32 < 2**32 % span) > 50
        pick = np.random.default_rng(44)
        calls = [(7, 7 + span, [None, int(pick.integers(1, 6))][pick.integers(2)]) for _ in range(300)]
        self.assert_same_draws(43, block, calls)

    @pytest.mark.parametrize("max_elements", [1, MAX_ELEMENTS])
    @pytest.mark.parametrize("d", [1, 3, 4, 7])
    @pytest.mark.parametrize("block", [13, None])
    def test_instances_equal_consecutive_generator_calls(self, d, max_elements, block, monkeypatch):
        # MAX_ELEMENTS = 1 makes every size draw the zero-width range, which reads no word
        monkeypatch.setattr(gclab.verify, "MAX_ELEMENTS", max_elements)
        rng = np.random.default_rng(derive_seed(45, 1))
        if block is None:
            words = ScalarWords(_pair_words(45, d, 256))
        else:
            words = ScalarWords(_LatticeWords(np.random.default_rng(derive_seed(45, 1)), block, d))
        for _ in range(2000):
            assert sample_instance(words, d) == sample_instance(rng, d)


def decoded_pairs(chunk):
    """The instance pairs of a _decode_chunk result."""
    return [(_instance(*chunk, 2 * p), _instance(*chunk, 2 * p + 1)) for p in range(len(chunk[1]) // 2)]


@pytest.mark.parametrize("chunk", [3, 256])
@pytest.mark.parametrize("trial", [injectivity_trial, independence_trial])
def test_chunks_decode_the_generator_pairs(monkeypatch, trial, chunk):
    # a trial's chunks are the bare Generator's draw_pair stream, across refills
    # too; d = 1 makes redrawn pairs common, for independence most of all
    monkeypatch.setattr(gclab.verify, "PAIRS_PER_CHUNK", chunk)
    independence = trial is independence_trial
    for d in (1, 4):
        words = _pair_words(46, d, 600)
        rng = np.random.default_rng(derive_seed(46, 1))
        for _ in range(-(-600 // chunk)):
            want = [draw_pair(rng, d, independence) for _ in range(chunk)]
            assert decoded_pairs(_decode_chunk(words, chunk, independence)) == want


@pytest.mark.parametrize("d", [1, 2, 4, 7, 15, 20])
def test_decoder_draws_the_generator_pairs_at_any_d(d):
    # d = 15 and 20 lie past what one int64 key of owner and coordinates
    # could sort, and at d = 20 an instance is up to 121 words long; the
    # second chunk crosses a refill
    for independence in (False, True):
        words = _pair_words(47, d, 300)
        rng = np.random.default_rng(derive_seed(47, 1))
        for _ in range(2):
            want = [draw_pair(rng, d, independence) for _ in range(300)]
            assert decoded_pairs(_decode_chunk(words, 300, independence)) == want


def test_decode_block_decodes_and_flags_each_word_by_the_scalar_rule():
    # 0 is rejected by both ranges, and k / 11 mod 2^32 (11u = k) by the lattice range alone
    crafted = [0, *(k * pow(11, -1, 2**32) % 2**32 for k in (1, 2, 3))]
    plain = np.random.default_rng(48).integers(0, 2**32, 4000, dtype=np.uint32).tolist()
    words = np.array(crafted + plain, dtype=np.uint32)
    lattice, size = 2 * LATTICE_RANGE + 1, MAX_ELEMENTS
    for d in (1, 4, 20):
        draws, hops, flagged = _decode_block(words, d)
        assert draws.dtype == np.int8
        assert draws.tolist() == [(u * lattice >> 32) - LATTICE_RANGE for u in crafted + plain]
        assert hops.tolist() == [d + 1 + ((u * size >> 32) + 1) * d for u in crafted + plain]
        want = [i for i, u in enumerate(crafted + plain) if _rejects(u, lattice) or _rejects(u, size)]
        assert flagged.tolist() == want == [0, 1, 2, 3]
    assert [bool(_rejects(u, size)) for u in crafted] == [True, False, False, False]
    assert [u * lattice % 2**32 < 2**32 % lattice for u in crafted] == [True] * 4


def scalar_trial(trial, num_pairs, k, d, c, seed, source):
    """_trial's report from draw_pair on the bare Generator, the per-pair reference."""
    independence = trial is independence_trial
    rng = np.random.default_rng(derive_seed(seed, 1))
    weights, coeffs = _weights(seed, k, d, c), CoefficientSource(source, k, d, c, seed)
    violations, min_score, witness = 0, np.inf, None
    for start in range(0, num_pairs, gclab.verify.PAIRS_PER_CHUNK):
        size = min(gclab.verify.PAIRS_PER_CHUNK, num_pairs - start)
        pairs = [draw_pair(rng, d, independence) for _ in range(size)]
        out = _outputs(*_as_arrays([inst for pair in pairs for inst in pair]), coeffs, weights)
        score = _scores(out[0::2], out[1::2], independence)
        violations += int(np.sum(score < COLLISION_RTOL if independence else score <= COLLISION_RTOL))
        best = int(np.argmin(score))
        if score[best] < min_score:
            min_score, witness = float(score[best]), (start + best, *pairs[best])
    return violations, min_score, *witness


@pytest.mark.parametrize("source", COEFFICIENT_SOURCES)
@pytest.mark.parametrize("trial, k", [(injectivity_trial, 1), (injectivity_trial, 2), (injectivity_trial, 4),
                                      (independence_trial, 2), (independence_trial, 4)])
def test_trial_reports_equal_the_scalar_stream(trial, k, source):
    for seed, d in ((50, 4), (51, 4), (52, 3), (53, 1)):
        report = trial(600, k, d, 3, seed, source)
        want = scalar_trial(trial, 600, k, d, 3, seed, source)
        assert (report.violations, report.min_separation, report.witness_pair,
                report.witness_a, report.witness_b) == want
        # plain ints, so results.csv prints the witnesses as before
        witnesses = report.witness_a, report.witness_b
        assert type(report.witness_pair) is int
        assert all(type(v) is int for inst in witnesses for v in (*inst.center, *sum(inst.elements, ())))


class CraftedWords:
    """A Generator stand-in whose 32-bit words are a given prefix, then a real Generator's."""

    def __init__(self, prefix):
        tail = np.random.default_rng(49).integers(0, 2**32, 20_000, dtype=np.uint32)
        self.words = np.concatenate([np.array(prefix, dtype=np.uint32), tail])
        self.pos = 0

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**32, np.uint32)
        self.pos += size
        return self.words[self.pos - size : self.pos]


def word(draw, low, high):
    """A word that Lemire's rule accepts and decodes to draw in [low, high)."""
    span = high - low
    return ((2 * (draw - low) + 1) << 32) // (2 * span)


def instance_words(center, elements):
    """The words sample_instance reads for this instance, none of them rejected."""
    coords = [*center, *(v for e in elements for v in e)]
    lattice = [word(v, *LATTICE) for v in coords]
    return lattice[: len(center)] + [word(len(elements), 1, MAX_ELEMENTS + 1)] + lattice[len(center) :]


REJECTED = 0  # 0 * span = 0 falls below 2^32 mod span for the lattice and size spans alike
LATTICE_ONLY = pow(11, -1, 2**32)  # 11u mod 2^32 = 1 is rejected by the lattice range; the size range reads 4
A = ((1, -2), ((-1, 2), (0, 1)))
B = ((4, 4), ((2, -1),))
SCALED = ((-3, 0), ((-2, 4), (0, 2)))  # 2 * A's elements, so not independent of A
ZERO = ((2, 1), ((0, 0), (0, 0), (0, 0)))
CLEAN = instance_words(*A) + instance_words(*B)


def inserted(words, at, word):
    """words with word inserted before index at."""
    return words[:at] + [word] + words[at:]


CRAFTED = {  # (independence, words that draw_pair reads as the pair (A, B); "lattice-only size" reads A at size 4)
    "rejected center": (False, inserted(instance_words(*A), 1, REJECTED) + instance_words(*B)),
    "rejected size": (False, inserted(instance_words(*A), 2, REJECTED) + instance_words(*B)),
    "rejected element": (False, inserted(instance_words(*A), 5, REJECTED) + instance_words(*B)),
    "rejected in b": (False, instance_words(*A) + inserted(instance_words(*B), 3, REJECTED)),
    "lattice-only center": (False, inserted(instance_words(*A), 1, LATTICE_ONLY) + instance_words(*B)),
    "lattice-only size": (False, inserted(instance_words(*A), 2, LATTICE_ONLY) + instance_words(*B)),
    "b equals a": (False, instance_words(*A) + CLEAN),
    "zero a": (True, instance_words(*ZERO) + CLEAN),
    "zero a, rejected in its successor": (True, instance_words(*ZERO) + inserted(CLEAN, 0, REJECTED)),
    "zero b": (True, instance_words(*A) + instance_words(*ZERO) + instance_words(*B)),
    "scaled b": (True, instance_words(*A) + instance_words(*SCALED) + instance_words(*B)),
    "b redrawn three times": (False, 4 * instance_words(*A) + instance_words(*B)),
    "zero a, scaled bs": (True, instance_words(*ZERO) + instance_words(*A) + 2 * instance_words(*SCALED)
                          + instance_words(*B)),
}


READER_OPS = st.one_of(
    st.tuples(st.just("reserve"), st.integers(0, 12)),
    st.tuples(st.just("read"), st.integers(0, 12)),
    st.tuples(st.just("settle"), st.integers(0, 2**16), st.sampled_from([2 * LATTICE_RANGE + 1, MAX_ELEMENTS])),
)


@settings(max_examples=100, deadline=None)
@given(
    prefix=st.lists(st.sampled_from([REJECTED, *(k * LATTICE_ONLY % 2**32 for k in (1, 2, 3))])
                    | st.integers(0, 2**32 - 1), min_size=60, max_size=120),
    d=st.sampled_from([1, 2, 4]),
    block=st.integers(1, 8),
    ops=st.lists(READER_OPS, max_size=30),
)
def test_reader_state_is_the_decoding_of_its_held_words(prefix, d, block, ops):
    # after any reserve, read or settle, draws, hops and flagged are _decode_block
    # of the held words, less the flags settle has read off words it kept
    source = CraftedWords(prefix)
    words = _LatticeWords(source, block, d)
    held, kept = list(range(source.pos)), set()  # the stream index of each held word; those settle read and kept
    for op in [("read", 0), *ops]:  # the state is checked after construction too
        if op[0] == "reserve":
            pos, fetched = words.pos, source.pos
            words.reserve(op[1])
            if source.pos > fetched:
                held = held[pos:] + list(range(fetched, source.pos))
            assert len(words.words) - words.pos >= op[1]
        elif op[0] == "read":  # _decode_chunk moves pos past the words it decoded
            words.pos = min(words.pos + op[1], len(words.words))
        elif (ahead := words.flagged[words.flagged >= words.pos]).size:  # it settles words at or past pos
            i, span = int(ahead[op[1] % len(ahead)]), op[2]
            words.settle(i, span)
            if _rejects(source.words[held[i]], span):
                del held[i]
            else:
                kept.add(held[i])
        assert words.words.tolist() == source.words[held].tolist()
        draws, hops, flagged = _decode_block(words.words, d)
        assert words.draws.tolist() == draws.tolist() and words.draws.dtype == draws.dtype
        assert words.hops.tolist() == hops.tolist() and words.hops.dtype == hops.dtype
        assert words.flagged.tolist() == [i for i in flagged.tolist() if held[i] not in kept]


@pytest.mark.parametrize("case", CRAFTED)
def test_crafted_fallbacks_equal_the_scalar_reader(case):
    # three clean pairs, the crafted pair, then clean pairs and the Generator's
    # words; the scalar reader redraws across the crafted words, and the chunk
    # decoder must do the same, in one chunk and one pair at a time, where an
    # a whose partners are redrawn waits across rounds
    independence, crafted = CRAFTED[case]
    prefix = 3 * CLEAN + crafted + 2 * CLEAN
    d, count = 2, 12
    for chunk in (count, 1):
        sources = CraftedWords(prefix), CraftedWords(prefix)
        scalar, words = (_LatticeWords(source, 64, d) for source in sources)
        reference = ScalarWords(scalar)
        want = [draw_pair(reference, d, independence) for _ in range(count)]
        clean = 3 if case == "lattice-only size" else 6  # A read at size 4 moves every word after it
        assert want[:clean] == [(MultisetInstance(*A), MultisetInstance(*B))] * clean
        chunks = [_decode_chunk(words, chunk, independence) for _ in range(count // chunk)]
        assert [pair for got in chunks for pair in decoded_pairs(got)] == want
        read = [source.pos - len(reader.words) + reader.pos for source, reader in zip(sources, (scalar, words))]
        assert read[0] == read[1]


class TestCoefficientSource:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown coefficient source"):
            CoefficientSource("softmax", 1, 2, 2, 0)

    @pytest.mark.parametrize("kind", COEFFICIENT_SOURCES)
    @pytest.mark.parametrize("name, sizes, error", [
        ("k", (0, 4, 4), "must be at least 1, got 0"),
        ("k", (2.5, 4, 4), "must be an integer, got 2.5"),
        ("d", (2, 0, 4), "must be at least 1, got 0"),
        ("c", (2, 4, -1), "must be at least 1, got -1"),
    ])
    def test_sizes_that_are_no_counts_rejected(self, kind, name, sizes, error):
        with pytest.raises(ValueError, match=f"^{name} {error}$"):
            CoefficientSource(kind, *sizes, 0)

    def test_deterministic_per_seed_and_inputs(self):
        for kind in ("random_iid", "fagcn_tanh", "lmgc_eq14"):
            s1 = CoefficientSource(kind, 2, 3, 3, seed=5)
            s2 = CoefficientSource(kind, 2, 3, 3, seed=5)
            a = s1.alpha(1, (1, 2, 3), (0, -1, 4))
            assert a == s2.alpha(1, (1, 2, 3), (0, -1, 4))
            assert a == s1.alpha(1, (1, 2, 3), (0, -1, 4))

    def test_distinct_heads_give_distinct_draws(self):
        src = CoefficientSource("random_iid", 2, 3, 3, seed=6)
        assert src.alpha(0, (1, 0, 0), (0, 1, 0)) != src.alpha(1, (1, 0, 0), (0, 1, 0))

    def test_tanh_sources_bounded(self):
        rng = np.random.default_rng(2)
        for kind in ("fagcn_tanh", "lmgc_eq14"):
            src = CoefficientSource(kind, 2, 3, 3, seed=7)
            for _ in range(50):
                inst = sample_instance(rng, 3)
                val = src.alpha(0, inst.center, inst.elements[0])
                assert -1.0 < val < 1.0

    def test_identical_instances_aggregate_identically(self):
        # the coefficient function is a fixed function of the features, so
        # re-presenting the same multiset must reproduce the same output
        src = CoefficientSource("random_iid", 2, 3, 3, seed=8)
        weights = np.random.default_rng(3).standard_normal((2, 3, 3))
        inst = sample_instance(np.random.default_rng(4), 3)
        same = MultisetInstance(inst.center, inst.elements)
        np.testing.assert_array_equal(
            aggregate(inst, src, weights), aggregate(same, src, weights)
        )


    def test_random_iid_separates_minus_one_from_minus_two(self):
        # Python's hash() maps -1 and -2 to the same value; the key must not
        src = CoefficientSource("random_iid", 1, 4, 4, seed=0)
        center = (1, 2, 3, 4)
        assert src.alpha(0, center, (-1, 3, 0, 0)) != src.alpha(0, center, (-2, 3, 0, 0))

    def test_random_iid_draws_look_standard_normal(self):
        src = CoefficientSource("random_iid", 1, 1, 1, seed=3)
        vals = np.array(
            [src.alpha(0, (i,), (j,)) for i in range(-50, 50) for j in range(-50, 50)]
        )
        assert len(np.unique(vals)) == len(vals)
        assert abs(vals.mean()) < 0.05 and abs(vals.std() - 1.0) < 0.05

    def test_tanh_sources_run_lmgc_gates(self):
        # the same rows through lmgc's scheme functions give the same bits
        k, d, c = 4, 3, 2
        rng = np.random.default_rng(12)
        counts = rng.integers(1, MAX_ELEMENTS + 1, 15)
        centers = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, (15, d))
        elements = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, (counts.sum(), d))
        # element e as an edge from row 15 + e into row p, its instance's center
        rows = np.concatenate([centers, elements]) * LATTICE_SCALE
        dst, src = np.repeat(np.arange(15), counts), np.arange(15, 15 + counts.sum())
        eq14 = CoefficientSource("lmgc_eq14", k, d, c, seed=11)
        w = np.concatenate(eq14.w, axis=1)
        expected = eq14_coefficients(Var(rows @ w), Var(eq14.gate.T), dst, src).value
        np.testing.assert_array_equal(eq14.alphas(centers, counts, elements), expected)
        fagcn = CoefficientSource("fagcn_tanh", k, d, c, seed=11)
        expected = tanh_gate(Var(rows), Var(fagcn.gate.T), dst, src).value
        np.testing.assert_array_equal(fagcn.alphas(centers, counts, elements), expected)

    def test_random_iid_array_keys_equal_scalar_chain(self):
        rng = np.random.default_rng(13)
        counts = np.concatenate([[2], rng.integers(1, MAX_ELEMENTS + 1, 20)])
        centers = np.vstack([[[1, 2, 3, 4]], rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, (20, 4))])
        lattice = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, (counts.sum() - 2, 4))
        elements = np.vstack([[[-1, 3, 0, 0], [-2, 3, 0, 0]], lattice])  # hash(-1) == hash(-2)
        keys = _iid_keys(7, 3, centers, counts, elements)
        assert keys.dtype == np.uint64 and keys.shape == (3, counts.sum())
        owner = np.repeat(np.arange(21), counts)
        for head in range(3):
            for e, (p, element) in enumerate(zip(owner, elements.tolist())):
                scalar = derive_seed(7, head, *centers[p].tolist(), _FEATURE_SEPARATOR, *element)
                assert int(keys[head, e]) == scalar

    def test_random_iid_draws_match_scalar_box_muller(self):
        # np.log may differ from math.log by 1 ulp; the square root and the
        # product carry that to at most 2 ulps of the draw
        rng = np.random.default_rng(14)
        counts = rng.integers(1, MAX_ELEMENTS + 1, 700)
        centers = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, (700, 3))
        elements = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, (counts.sum(), 3))
        got = CoefficientSource("random_iid", 2, 3, 3, seed=15).alphas(centers, counts, elements)
        owner = np.repeat(np.arange(700), counts)
        for head in range(2):
            for e, (p, element) in enumerate(zip(owner, elements.tolist())):
                a = splitmix64(derive_seed(15, head, *centers[p].tolist(), _FEATURE_SEPARATOR, *element))
                b = splitmix64(a)
                u1, u2 = ((a >> 11) + 1) * 2.0**-53, (b >> 11) * 2.0**-53
                ref = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
                assert abs(got[e, head] - ref) <= 2 * np.spacing(abs(ref))

    @pytest.mark.parametrize("kind", COEFFICIENT_SOURCES)
    def test_instance_alphas_equal_the_per_pair_alphas(self, kind):
        # one center row per instance gives each element the bits it gets paired
        # with its own copy of the center, keys included
        rng = np.random.default_rng(16)
        for d, k in ((1, 1), (3, 2), (4, 4)):
            counts = np.tile(np.arange(1, MAX_ELEMENTS + 1), 30)
            centers = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, (len(counts), d))
            elements = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, (counts.sum(), d))
            assert np.any(centers < 0) and np.any(elements < 0)
            paired = np.repeat(centers, counts, axis=0), np.ones(len(elements), dtype=int), elements
            source = CoefficientSource(kind, k, d, 3, seed=17)
            np.testing.assert_array_equal(source.alphas(centers, counts, elements), source.alphas(*paired))
            if kind == "random_iid":
                np.testing.assert_array_equal(_iid_keys(17, k, centers, counts, elements), _iid_keys(17, k, *paired))


def upper_normal_quantile(p: float) -> float:
    """z with P(Z > z) = p for a standard normal Z, by bisection on math.erfc."""
    lo, hi = 0.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if 0.5 * math.erfc(mid / math.sqrt(2.0)) > p else (lo, mid)
    return lo


class TestRandomIidIsIid:
    """random_iid draws behave as i.i.d. N(0, 1) over the whole d <= 2 lattices.

    Each of the CHECKS checks below has a bound at its null distribution's
    quantile for ALPHA / CHECKS, so a source of truly i.i.d. normals fails any
    of them with probability at most ALPHA = 1e-3 over seeds (Bonferroni).
    Pearson's r of m independent normal pairs is close to N(0, 1/m); sqrt(m)
    times the KS distance of m draws exceeds t with probability close to
    2 exp(-2 t^2), the first term of Kolmogorov's series.
    """

    SEED, HEADS = 20261020, 7
    ALPHA, CHECKS = 1e-3, 50  # KS 1, head pairs 21, neighbours 2 * 7, swapped roles 7, seeds 7

    @staticmethod
    def lattice(d: int) -> np.ndarray:
        axis = np.arange(-LATTICE_RANGE, LATTICE_RANGE + 1)
        return np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)

    def pairs(self, d: int):
        """Every (center, element) pair of the lattice as alphas' (centers, counts, elements)."""
        points = self.lattice(d)
        return points, np.full(len(points), len(points)), np.tile(points, (len(points), 1))

    def draws(self, d: int, seed: int) -> np.ndarray:
        """(K, P, P) draws: [k, p, q] is head k's coefficient of element q at center p."""
        p = len(self.lattice(d))
        alphas = CoefficientSource("random_iid", self.HEADS, d, 1, seed).alphas(*self.pairs(d))
        return alphas.T.reshape(self.HEADS, p, p)

    def assert_uncorrelated(self, a, b, what):
        a, b = np.ravel(a), np.ravel(b)
        bound = upper_normal_quantile(self.ALPHA / self.CHECKS / 2) / math.sqrt(len(a))
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < bound, f"{what}: r = {r:.4f} over {len(a)} pairs, bound {bound:.4f}"

    @pytest.mark.parametrize("d", [1, 2])
    def test_keys_and_draws_are_distinct_over_the_lattice(self, d):
        keys = _iid_keys(self.SEED, self.HEADS, *self.pairs(d))
        assert len(np.unique(keys)) == keys.size == self.HEADS * 11 ** (2 * d)
        draws = self.draws(d, self.SEED)
        assert len(np.unique(draws)) == draws.size

    def test_draws_are_standard_normal(self):
        x = np.sort(self.draws(2, self.SEED).ravel())  # 7 * 11^4 = 102 487 draws
        m = len(x)
        cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
        ks = max(np.max(np.arange(1, m + 1) / m - cdf), np.max(cdf - np.arange(m) / m))
        bound = math.sqrt(math.log(2 * self.CHECKS / self.ALPHA) / 2) / math.sqrt(m)
        assert ks < bound, f"KS distance {ks:.5f} over {m} draws, bound {bound:.5f}"

    def test_draws_are_uncorrelated(self):
        draws = self.draws(2, self.SEED)  # (K, 121, 121)
        for i in range(self.HEADS):
            for j in range(i + 1, self.HEADS):
                self.assert_uncorrelated(draws[i], draws[j], f"heads {i} and {j}")
        grid = draws.reshape(self.HEADS, 121, 11, 11)  # the element's two coordinates as axes
        upper = np.triu_indices(121, 1)
        other_seed = self.draws(2, self.SEED + 1)
        for k in range(self.HEADS):
            self.assert_uncorrelated(grid[k, :, :-1], grid[k, :, 1:], f"head {k}, x and x + e_0")
            self.assert_uncorrelated(grid[k, :, :, :-1], grid[k, :, :, 1:], f"head {k}, x and x + e_1")
            self.assert_uncorrelated(draws[k][upper], draws[k].T[upper], f"head {k}, (center, x) and (x, center)")
            self.assert_uncorrelated(draws[k], other_seed[k], f"head {k}, seeds {self.SEED} and {self.SEED + 1}")


def loop_aggregate(inst, src, weights):
    """The per-element reference: each head sums alpha * x_j in order, then applies W^(k)."""
    out = np.zeros(weights.shape[2])
    for k, wk in enumerate(weights):
        s = np.zeros(weights.shape[1])
        for element in inst.elements:
            s += src.alpha(k, inst.center, element) * np.array(element, dtype=float) * LATTICE_SCALE
        out += s @ wk
    return out


class TestAggregate:
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("kind", COEFFICIENT_SOURCES)
    def test_batched_outputs_match_per_element_loop(self, kind, k):
        # the batch mixes each element's heads before it sums the elements, in
        # another order than the loop, so outputs move at ulp level (here
        # 9.6e-15 absolute, 1.3e-15 relative); the matrix products also round
        # with an instance's place in the batch (up to 3.6e-15 here)
        src = CoefficientSource(kind, k, 4, 4, seed=21)
        weights = np.random.default_rng(22).standard_normal((k, 4, 4))
        rng = np.random.default_rng(23)
        instances = [sample_instance(rng, 4) for _ in range(80)]
        ref = np.array([loop_aggregate(inst, src, weights) for inst in instances])
        one_by_one = [aggregate(inst, src, weights) for inst in instances]
        for got in (_outputs(*_as_arrays(instances), src, weights), np.array(one_by_one)):
            gap = np.linalg.norm(got - ref, axis=1)
            assert np.all(gap <= 1e-13 * np.linalg.norm(ref, axis=1))

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("kind", COEFFICIENT_SOURCES)
    def test_outputs_stay_within_rounding_of_the_reduceat_form(self, kind, k, d):
        # the two forms add the same terms in another order, so a row moves by a
        # few ulps of its terms' size, sum_jk |alpha_jk| |x_j| |W_k|; rows of
        # d = 1 can cancel to 1e-5 of that size, so only at d = 4 is the
        # bound also relative to the row itself
        for seed, independence in ((60, False), (61, True)):
            chunk = _decode_chunk(_pair_words(seed, d, 1024), 1024, independence)
            source = CoefficientSource(kind, k, d, 4, seed)
            weights = _weights(seed, k, d, 4)
            got, want = _outputs(*chunk, source, weights), reduceat_outputs(*chunk, source, weights)
            _, counts, elements = chunk
            terms = np.einsum("ek,ed,kdc->ec", np.abs(source.alphas(*chunk)), np.abs(elements), np.abs(weights))
            size = np.add.reduceat(terms * LATTICE_SCALE, np.cumsum(counts) - counts)
            gap = np.linalg.norm(got - want, axis=1)
            assert np.all(gap <= 1e-14 * np.linalg.norm(size, axis=1))
            if d == 4:
                assert np.all(gap <= 1e-14 * np.linalg.norm(want, axis=1))

    @pytest.mark.parametrize("source", COEFFICIENT_SOURCES)
    @pytest.mark.parametrize("k", [1, 4])
    def test_benchmark_trials_report_the_same_through_either_form(self, monkeypatch, source, k):
        # the injectivity trials of the multiset benchmark: 400 pairs at d = c = 4
        for seed in (70, 71, 72):
            report = injectivity_trial(400, k, 4, 4, seed, source)
            with monkeypatch.context() as patch:
                patch.setattr(gclab.verify, "_outputs", reduceat_outputs)
                want = injectivity_trial(400, k, 4, 4, seed, source)
            assert (report.violations, report.witness_pair, report.witness_a, report.witness_b) == (
                want.violations, want.witness_pair, want.witness_a, want.witness_b)
            assert abs(report.min_separation - want.min_separation) <= 1e-12 * want.min_separation

    def test_hand_computed_single_head(self):
        src = CoefficientSource("random_iid", 1, 2, 2, seed=9)
        weights = np.random.default_rng(5).standard_normal((1, 2, 2))
        inst = MultisetInstance((1, 1), ((2, 0), (0, 3)))
        expected = np.zeros(2)
        for e in inst.elements:
            expected += src.alpha(0, inst.center, e) * np.array(e, dtype=float) * LATTICE_SCALE @ weights[0]
        np.testing.assert_allclose(aggregate(inst, src, weights), expected, atol=1e-12)

    def test_zero_weights_give_zero_output(self):
        src = CoefficientSource("random_iid", 2, 3, 3, seed=10)
        inst = sample_instance(np.random.default_rng(6), 3)
        np.testing.assert_array_equal(
            aggregate(inst, src, np.zeros((2, 3, 3))), np.zeros(3)
        )


class TestInjectivity:
    def test_no_collisions_small_runs(self):
        for k in (1, 4):
            report = injectivity_trial(300, k=k, d=4, c=4, seed=11)
            assert report.ok()
            assert report.trials == 300
            assert report.min_separation > COLLISION_RTOL

    def test_all_sources_pass(self):
        for source in ("random_iid", "fagcn_tanh", "lmgc_eq14"):
            report = injectivity_trial(100, k=2, d=3, c=3, seed=12, source=source)
            assert report.ok(), source

    def test_numpy_integer_seed_gives_the_int_seed_report(self):
        assert injectivity_trial(50, 1, 4, 4, np.int64(3)) == injectivity_trial(50, 1, 4, 4, 3)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            injectivity_trial(1, k=0, d=2, c=2, seed=0)


@pytest.mark.parametrize("trial", [injectivity_trial, independence_trial])
@pytest.mark.parametrize(
    "name, counts", [("num_pairs", (0, 4, 4)), ("d", (5, 0, 4)), ("c", (5, 4, -1))]
)
def test_counts_below_one_rejected(trial, name, counts):
    num_pairs, d, c = counts
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        trial(num_pairs, 2, d, c, 0)


@pytest.mark.parametrize("trial", [injectivity_trial, independence_trial])
@pytest.mark.parametrize(
    "name, counts, shown", [("num_pairs", (10.5, 4, 4), "10.5"), ("d", (5, True, 4), "True"),
                            ("c", (5, 4, 4.0), "4.0")], ids=["num_pairs", "d", "c"]
)
def test_non_integer_counts_rejected(trial, name, counts, shown):
    num_pairs, d, c = counts
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {shown}$"):
        trial(num_pairs, 2, d, c, 0)


@pytest.mark.parametrize("trial", [injectivity_trial, independence_trial])
@pytest.mark.parametrize("seed, shown", [(1.5, "1.5"), (True, "True"), (np.float64(3.0), "np.float64(3.0)")])
def test_non_integer_seed_rejected(trial, seed, shown):
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {shown}")):
        trial(10, 2, 4, 4, seed)


SEEDED_CALLS = {  # the seeded entry points outside the two trials
    "parallel_control": lambda seed: parallel_control(2, 4, 4, seed),
    "CoefficientSource": lambda seed: CoefficientSource("random_iid", 2, 4, 4, seed).alphas(
        [(1, -2, 3, 0)], [2], [(0, 1, -5, 2), (4, 4, 0, -1)]
    ),
    "multiset_counterexample_outputs": lambda seed: multiset_counterexample_outputs(Variant.GATV2_SOFTMAX, seed),
}


@pytest.mark.parametrize("call", SEEDED_CALLS.values(), ids=SEEDED_CALLS.keys())
@pytest.mark.parametrize("seed, shown", [(1.5, "1.5"), (True, "True"), (np.float64(3.0), "np.float64(3.0)")])
def test_seeded_calls_reject_non_integer_seed(call, seed, shown):
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {shown}")):
        call(seed)


@pytest.mark.parametrize("call", SEEDED_CALLS.values(), ids=SEEDED_CALLS.keys())
def test_seeded_calls_give_numpy_integer_seeds_the_int_seed_result(call):
    np.testing.assert_array_equal(np.asarray(call(np.int64(3))), np.asarray(call(3)))


@pytest.mark.parametrize("source", COEFFICIENT_SOURCES)
@pytest.mark.parametrize(
    "trial, k", [(injectivity_trial, 1), (injectivity_trial, 4), (independence_trial, 2)]
)
def test_witness_replays_min_separation(trial, k, source):
    report = trial(300, k, 4, 4, 48, source)
    independence = report.kind == "independence"
    weights, coeffs = _weights(48, k, 4, 4), CoefficientSource(source, k, 4, 4, 48)
    fa, fb = (aggregate(inst, coeffs, weights)[None] for inst in (report.witness_a, report.witness_b))
    score = _scores(fa, fb, independence)[0]
    assert abs(score - report.min_separation) <= 1e-12 * report.min_separation
    # the witness is the pair at its index in the trial's pair stream
    rng = np.random.default_rng(derive_seed(48, 1))
    pairs = [draw_pair(rng, 4, independence) for _ in range(report.witness_pair + 1)]
    assert pairs[-1] == (report.witness_a, report.witness_b)


@pytest.mark.parametrize("source", COEFFICIENT_SOURCES)
@pytest.mark.parametrize("trial", [injectivity_trial, independence_trial])
def test_chunk_boundaries_keep_the_trial(monkeypatch, trial, source):
    # chunks of 7 split 50 pairs 7 * 7 + 1; only the tanh sources' rounding may move
    whole = trial(50, 2, 4, 4, 31, source)
    monkeypatch.setattr(gclab.verify, "PAIRS_PER_CHUNK", 7)
    split = trial(50, 2, 4, 4, 31, source)
    assert split.violations == whole.violations
    assert abs(split.min_separation - whole.min_separation) <= 1e-13 * whole.min_separation


@pytest.mark.parametrize("source", COEFFICIENT_SOURCES)
def test_one_chunk_of_400_pairs_keeps_the_256_pair_chunks_report(monkeypatch, source):
    # 400 pairs are one chunk at PAIRS_PER_CHUNK = 1024 and 256 + 144 at 256;
    # random_iid gives the same report bit for bit, the tanh sources round apart
    assert gclab.verify.PAIRS_PER_CHUNK >= 400
    whole = injectivity_trial(400, 4, 4, 4, 83, source)
    monkeypatch.setattr(gclab.verify, "PAIRS_PER_CHUNK", 256)
    split = injectivity_trial(400, 4, 4, 4, 83, source)
    if source == "random_iid":
        assert whole == split
    else:
        assert (whole.violations, whole.witness_pair) == (split.violations, split.witness_pair)
        assert abs(split.min_separation - whole.min_separation) <= 1e-13 * whole.min_separation


def numpy_as_scaled(ms1: tuple, ms2: tuple) -> bool:
    """An array form of as_scaled, the reference for its truth table."""
    if len(ms1) != len(ms2):
        return False
    flat1 = np.array(ms1, dtype=np.int64)
    flat2 = np.array(ms2, dtype=np.int64)
    if np.all(flat1 == 0) and np.all(flat2 == 0):
        return True
    nz = flat2 != 0
    if not np.any(nz):
        return np.all(flat1 == 0)
    ratios = flat1[nz] // flat2[nz]
    m = ratios.flat[0]
    if m < 1:
        return False
    return np.array_equal(flat1, m * flat2)


def random_multiset(rng, d: int) -> tuple:
    """Sorted lattice elements, zero vectors and all-zero multisets made common."""
    size = int(rng.integers(1, 4))
    bound = int(rng.choice([0, 1, 2, LATTICE_RANGE]))
    elements = rng.integers(-bound, bound + 1, (size, d)) * (rng.random((size, 1)) < 0.8)
    return tuple(sorted(map(tuple, elements.tolist())))


class TestIntegerScaling:
    def test_plain_checks_match_the_array_version(self):
        rng = np.random.default_rng(47)
        cases = {"multiple": 0, "zero": 0, "negative": 0}
        for _ in range(4000):
            d = int(rng.integers(1, 4))
            a = random_multiset(rng, d)
            b = random_multiset(rng, d)
            if rng.random() < 0.5:  # an integer multiple, the factor may be negative or zero
                m = int(rng.integers(-3, 4))
                b = tuple(sorted(tuple(m * v for v in e) for e in a))
            for x, y in ((a, b), (b, a), (a, a)):
                want = bool(numpy_as_scaled(x, y))
                assert as_scaled(x, y) is want, (x, y)
                if len(x) == len(y) and any(map(any, y)):  # verify._scaled's domain
                    assert _scaled(np.ravel(x)[None], np.ravel(y)[None])[0] == want, (x, y)
                cases["multiple"] += want and x != y
            cases["zero"] += not any(map(any, a))
            cases["negative"] += any(v < 0 for e in a for v in e)
            assert (not any(map(any, a))) == (not np.any(a))
        assert min(cases.values()) > 100, cases

    def test_detects_scaling_both_directions(self):
        a = ((1, 2), (0, 3))
        b = ((2, 4), (0, 6))
        assert is_integer_scaling(a, b)
        assert is_integer_scaling(b, a)

    def test_identity_scaling(self):
        a = ((1, 2), (3, 4))
        assert is_integer_scaling(a, a)

    def test_rejects_non_multiples(self):
        assert not is_integer_scaling(((1, 2),), ((2, 3),))
        assert not is_integer_scaling(((1, 0),), ((1, 0), (0, 1)))

    def test_zero_multisets(self):
        assert is_integer_scaling(((0, 0),), ((0, 0),))
        assert not is_integer_scaling(((0, 0),), ((1, 0),))


class TestIndependence:
    def test_no_parallel_pairs_small_run(self):
        report = independence_trial(300, k=2, d=4, c=4, seed=13)
        assert report.ok()
        assert report.kind == "independence"
        assert report.min_separation > COLLISION_RTOL

    def test_zero_multiset_is_excluded_like_scaling(self):
        # this trial draws a multiset of zero vectors, whose output 0 is parallel to any
        report = independence_trial(86, 2, 4, 4, 185, "fagcn_tanh")
        assert report.violations == 0
        assert report.min_separation > 0.0

    def test_requires_multiple_graphs(self):
        with pytest.raises(ValueError, match="requires K > 1"):
            independence_trial(1, k=1, d=2, c=2, seed=0)

    @pytest.mark.parametrize("k, shown", [("2", "'2'"), (None, "None")])
    def test_k_is_checked_as_a_count_before_the_k_rule(self, k, shown):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {shown}$"):
            independence_trial(10, k, 4, 4, 1)

    def test_requires_two_output_channels(self):
        # any two rows in R^1 are parallel, so c = 1 cannot test independence
        with pytest.raises(ValueError, match="c must be at least 2 for independence, got 1"):
            independence_trial(10, k=2, d=1, c=1, seed=1)

    @pytest.mark.parametrize("name, sizes, error", [
        ("k", (0, 4, 3), "must be at least 1, got 0"),
        ("d", (2, 1.5, 3), "must be an integer, got 1.5"),
        ("c", (2, 4, 0), "must be at least 1, got 0"),
    ])
    def test_parallel_control_sizes_that_are_no_counts_rejected(self, name, sizes, error):
        with pytest.raises(ValueError, match=f"^{name} {error}$"):
            parallel_control(*sizes, 3)

    def test_parallel_control_inverts_the_exclusion(self):
        # the doubled multiset with shared coefficients produces exactly parallel rows
        fa, fb = parallel_control(k=2, d=3, c=3, seed=14)
        np.testing.assert_array_equal(fb, 2 * fa)
        smax, smin = np.linalg.svd(np.stack([fa, fb]), compute_uv=False)
        assert smin / smax < COLLISION_RTOL


class TestCounterexample:
    def test_softmax_cannot_separate_repeated_neighbor(self):
        # {{x}} and {{x, x}} collide under softmax normalization
        for seed in range(5):
            a, b = multiset_counterexample_outputs(Variant.GATV2_SOFTMAX, seed)
            assert np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(a), 1.0)

    def test_tanh_gated_schemes_separate_it(self):
        for variant in (Variant.FAGCN_TANH, Variant.LMGC_EQ14):
            separated = 0
            for seed in range(5):
                a, b = multiset_counterexample_outputs(variant, seed)
                scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
                if np.linalg.norm(a - b) / scale > COLLISION_RTOL:
                    separated += 1
            assert separated == 5, variant

    def test_undefined_variant_rejected(self):
        with pytest.raises(ValueError, match="counterexample"):
            multiset_counterexample_outputs(Variant.GCN_NORM, 0)

