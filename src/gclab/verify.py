"""Randomized checks of the almost-everywhere multiset properties.

Multiset instances are drawn from a rational lattice (integer vectors in
[-5, 5]^d scaled by 1/3) so that distinctness and integer-scaling checks
are exact. Edge coefficients are a fixed function of the endpoint features,
one "almost every" draw: a keyed Gaussian (random_iid) or the fagcn and eq14
gates lmgc runs, over chunks of PAIRS_PER_CHUNK pairs. Identical instances
get identical coefficients, exactly for random_iid and up to rounding for the
tanh sources, whose matrix products round with an instance's place in a chunk.

The suites read their Generator through _LatticeWords: raw 32-bit words in
blocks, which _decode_chunk decodes as arrays by numpy's own bounded-integer
rule, so they draw the same pair stream as sample_instance calls on the bare
Generator. numpy's loops read past a redrawn instance and a word its range
rejects. The decoder reads the words once, in order: a redrawn instance is
dropped by index from the decoded ones, an a still without a b at the end
of a round is carried, decoded, into the next, and a rejected word is
dropped from the stream. The redraw rule pads an instance's elements to one
row only for the pairs it must compare element by element.

A chunk's work is done once per instance where it depends only on the
instance: random_iid keys chain each center once and extend the chain by
each element, and the tanh gates project P center rows and E element rows.
The aggregate projects every element by every head in one product, mixes
each element's heads by its coefficients and sums each instance's rows in
element order (autodiff._sum_rows).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from ._record import _Frozen, _Record
from .graph import Graph
from .lmgc import CoefficientScheme, LmgcLayer, Variant, lmgc_forward
from .lmgc import eq14_coefficients, vector_length
from .seeding import derive_seed, extend_seed, splitmix64
from .train import count_error

LATTICE_RANGE = 5
LATTICE_SCALE = 1.0 / 3.0
MAX_ELEMENTS = 5  # most elements of a sampled multiset, repetitions counted
COLLISION_RTOL = 1e-9
COEFFICIENT_SOURCES = ("random_iid", "fagcn_tanh", "lmgc_eq14")
_FEATURE_SEPARATOR = 0x5EA0_5EA0_5EA0_5EA0  # between center and element coordinates
_UNIT = 2.0**-53
PAIRS_PER_CHUNK = 1024  # pairs evaluated per batch, so memory stays bounded for any pair count


class MultisetInstance(_Frozen):
    """A center feature and a neighbor feature multiset, both on the lattice.

    elements is a sorted tuple of integer tuples, repetitions allowed.
    """

    def __init__(self, center: tuple, elements: tuple):
        self._set(center=center, elements=elements)


class TrialReport(_Record):
    """One trial's counts; witness_pair indexes the pair stream at the pair scoring min_separation."""

    def __init__(self, kind: str, k: int, d: int, c: int, trials: int, violations: int,
                 min_separation: float, witness_pair: int, witness_a: MultisetInstance,
                 witness_b: MultisetInstance):
        self.kind, self.k, self.d, self.c, self.trials = kind, k, d, c, trials
        self.violations, self.min_separation, self.witness_pair = violations, min_separation, witness_pair
        self.witness_a, self.witness_b = witness_a, witness_b

    def ok(self) -> bool:
        return self.violations == 0


class _LatticeWords:
    """A Generator's 32-bit words in blocks, the source of its integers over ranges up to 2^32.

    For such a range numpy reads the Generator's next_uint32 words one at a
    time by Lemire's rule (arXiv:1805.10941): a word u gives m = u * span, is
    redrawn while m mod 2^32 < 2^32 mod span (_rejects), and yields
    low + (m >> 32). rng.integers(0, 2**32, n, dtype=np.uint32) reads the
    same words, so decoding them by that rule gives the Generator's own
    draws. Each refill decodes the words for both ranges (_decode_block);
    _decode_chunk moves pos past the words it decoded, and settle reads a
    flagged word once its range is known. The reader holds words it has not
    returned yet, so it must be rng's only user.
    """

    def __init__(self, rng: np.random.Generator, block: int):
        self._rng, self._block = rng, block
        self.words = np.empty(0, dtype=np.uint64)
        self.pos = 0
        self.lattice = None  # _decode_block(words), set by each refill

    def reserve(self, count: int) -> None:
        """Hold at least count unread words, appending a block to the unread ones if needed."""
        if len(self.words) - self.pos < count:
            fresh = self._rng.integers(0, 2**32, max(self._block, count), dtype=np.uint32)
            self.words = np.concatenate([self.words[self.pos :], fresh.astype(np.uint64)])
            self.pos = 0
            self.lattice = _decode_block(self.words)

    def settle(self, i: int, span: int) -> None:
        """Read the flagged word i by the range of span: drop it if that range rejects it, else unflag it."""
        draws, sizes, rejected = self.lattice
        rejected = rejected[rejected != i]
        if _rejects(int(self.words[i]) * span, span):  # numpy's loop reads past it
            self.words, draws = np.delete(self.words, i), np.delete(draws, i)
            del sizes[i]
            rejected[rejected > i] -= 1
        self.lattice = draws, sizes, rejected


def sample_instance(rng: np.random.Generator, d: int) -> MultisetInstance:
    """d center draws, one size draw, then the elements as one (size, d) draw."""
    center = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, d).tolist()
    size = rng.integers(1, MAX_ELEMENTS + 1)
    elements = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, (int(size), d)).tolist()
    return MultisetInstance(tuple(center), tuple(sorted(map(tuple, elements))))


def _iid_keys(seed: int, k: int, centers: np.ndarray, counts: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """(K, E) keys derive_seed(seed, k, *center, separator, *element) of E elements of P instances.

    centers is (P, d), counts (P,) and elements (E, d) holds each instance's
    counts[p] elements in turn. The chain over head and center runs once per
    instance and is repeated to each of its elements, which extend it. It runs
    over uint64 arrays, where a negative coordinate enters as its two's
    complement, the value idx & MASK gives for a Python int.
    """
    def columns(rows):
        return rows.astype(np.int64).view(np.uint64).T

    heads = np.arange(k, dtype=np.uint64)[:, None]
    state = derive_seed(seed, heads, *columns(centers), _FEATURE_SEPARATOR)  # (K, P)
    return extend_seed(np.repeat(state, counts, axis=1), *columns(elements))


class CoefficientSource:
    """Maps (center, element) lattice pairs to K coefficients, deterministically per seed.

    random_iid draws an independent Gaussian per (head, feature pair); the
    tanh sources run the fagcn and eq14 gates of lmgc with Gaussian parameters
    drawn once per source: gate[k] is head k's gating vector, and eq14
    projects the features with w (K, d, c).
    """

    def __init__(self, kind: str, k: int, d: int, c: int, seed: int):
        if kind not in COEFFICIENT_SOURCES:
            raise ValueError(f"unknown coefficient source {kind!r}")
        self.kind = kind
        self.k = k
        self.seed = seed
        rng = np.random.default_rng(derive_seed(seed, 0xC0EF))
        if kind == "fagcn_tanh":
            self.gate = rng.standard_normal((k, 2 * d))
        elif kind == "lmgc_eq14":
            self.w = rng.standard_normal((k, d, c))
            self.gate = rng.standard_normal((k, 2 * k * c))

    def alphas(self, centers, counts, elements) -> np.ndarray:
        """(E, K) coefficients of the elements of P instances, each with its instance's center.

        centers is (P, d) and counts (P,) integer arrays; elements (E, d)
        holds each instance's counts[p] lattice rows in turn.
        """
        centers, counts, elements = np.asarray(centers), np.asarray(counts), np.asarray(elements)
        if self.kind == "random_iid":  # two splitmix64 outputs per key -> Box-Muller normal
            a = splitmix64(_iid_keys(self.seed, self.k, centers, counts, elements))
            b = splitmix64(a)
            u1 = ((a >> 11) + 1) * _UNIT  # (0, 1], keeps the log finite
            u2 = (b >> 11) * _UNIT
            return (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)).T
        # element e is an edge from "node" P + e into node p, its instance's center
        rows = np.concatenate([centers, elements]) * LATTICE_SCALE
        dst = np.repeat(np.arange(len(centers)), counts)
        src = np.arange(len(centers), len(rows))
        gate = ad.Var(self.gate.T, requires_grad=False)  # head k's gating vector in column k
        if self.kind == "fagcn_tanh":
            return ad.tanh_gate(ad.Var(rows, requires_grad=False), gate, dst, src).value
        w = np.concatenate(self.w, axis=1)  # (d, K*c), head k in columns k*c:(k+1)*c
        return eq14_coefficients(ad.Var(rows @ w, requires_grad=False), gate, dst, src).value

    def alpha(self, head: int, center: tuple, element: tuple) -> float:
        return float(self.alphas([center], [1], [element])[0, head])


def _outputs(centers, counts, elements, source: CoefficientSource, weights: np.ndarray) -> np.ndarray:
    """aggregate of P instances as (P, c): each element's heads mixed by alpha, then summed in order.

    centers is (P, d) and counts (P,); elements (E, d) holds each instance's
    counts[p] elements in turn. One (E, d) x (d, K*c) product projects every
    element by every head, and _sum_rows adds each instance's rows.
    """
    alpha = source.alphas(centers, counts, elements)  # (E, K)
    k, _, c = weights.shape
    heads = ((elements * LATTICE_SCALE) @ np.concatenate(weights, axis=1)).reshape(-1, k, c)
    mixed = np.einsum("ek,ekc->ec", alpha, heads)
    return ad._sum_rows(mixed, np.repeat(np.arange(len(counts)), counts), len(counts))


def _as_arrays(instances):
    """The (centers, counts, elements) arrays of _outputs for a sequence of instances."""
    return (
        np.array([inst.center for inst in instances]),
        np.array([len(inst.elements) for inst in instances]),
        np.array([e for inst in instances for e in inst.elements]),
    )


def _instance(centers, counts, elements, i: int) -> MultisetInstance:
    """Instance i of the arrays, with Python int coordinates."""
    first = int(counts[:i].sum())
    rows = elements[first : first + counts[i]].tolist()
    return MultisetInstance(tuple(centers[i].tolist()), tuple(map(tuple, rows)))


def aggregate(instance: MultisetInstance, source: CoefficientSource, weights: np.ndarray) -> np.ndarray:
    """f(x_p, X_p) = sum_k (sum_j alpha_k x_j) W^(k), an output row in R^c."""
    return _outputs(*_as_arrays([instance]), source, weights)[0]


def _rejects(m, span: int):
    """Whether Lemire's rule redraws the word u with m = u * span; m is an int or a uint64 array."""
    return m & 0xFFFF_FFFF < 2**32 % span


def _decode_block(words: np.ndarray):
    """Lattice and size draws of every word of a block, and the words either range rejects.

    The size draws are a bytearray, which the scan over instance starts
    indexes fastest. A word is flagged if either range rejects it, wherever
    it sits.
    """
    span = 2 * LATTICE_RANGE + 1
    m = words * np.uint64(span)
    m_size = words * np.uint64(MAX_ELEMENTS)
    draws = (m >> np.uint64(32)).astype(np.int64) - LATTICE_RANGE
    sizes = (m_size >> np.uint64(32)).astype(np.uint8) + 1
    rejected = _rejects(m, span) | _rejects(m_size, MAX_ELEMENTS)
    return draws, bytearray(sizes), np.flatnonzero(rejected)


def _lattice_instances(draws: np.ndarray, starts: list, d: int):
    """Instances read from draws[starts[i]:starts[i + 1]], elements sorted within each.

    Returns centers (P, d), counts (P,) and elements (E, d), each instance's
    counts[p] elements in turn.
    """
    starts = np.fromiter(starts, dtype=np.int64, count=len(starts))
    counts = (np.diff(starts) - 1) // d - 1
    heads = starts[:-1, None] + np.arange(d + 1)  # the center words, then the size word
    centers = np.take(draws, heads[:, :d])
    body = np.ones(starts[-1] - starts[0], dtype=bool)
    body[(heads - starts[0]).ravel()] = False
    elements = np.compress(body, draws[starts[0] : starts[-1]]).reshape(-1, d)
    owner = np.repeat(np.arange(len(counts)), counts)
    # keys of the smallest integer types, which lexsort sorts by radix
    keys = (*elements.T[::-1].astype(np.int8), owner.astype(np.min_scalar_type(len(counts))))
    return centers, counts, np.take(elements, np.lexsort(keys), axis=0)  # take gathers narrow rows fastest


def _scaled(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether x[p] == m * y[p] for an integer m >= 1, row by row; an all-zero y[p] reads False."""
    rows = np.arange(len(y))
    first = np.argmax(y != 0, axis=1)
    pivot = y[rows, first]
    m = x[rows, first] // np.where(pivot == 0, 1, pivot)
    return (m >= 1) & np.all(x == m[:, None] * y, axis=1)


class _PairRule:
    """The redraw rule of pairs (a, b) over decoded instances, which stay where they are.

    b is redrawn while it equals a; for independence, a while it is all zero,
    and b while it is all zero or an integer scaling of a either way, as
    their outputs are parallel. An equal b is then the scaling by 1 of a
    nonzero a, whatever its center. Elements are compared only for pairs of
    one size (for injectivity, also of one center), which alone are padded
    to rows of MAX_ELEMENTS * d.
    """

    def __init__(self, centers, counts, elements, independence: bool):
        self.centers, self.counts, self.independence = centers, counts, independence
        self.first = np.cumsum(counts) - counts
        d = elements.shape[1]
        self.rows = np.concatenate([elements, np.zeros((1, d), dtype=elements.dtype)])  # the last row pads
        if independence:
            self.zero = ~np.logical_or.reduceat(elements.ravel(), self.first * d).astype(bool)
        self._bad = {}

    def _padded(self, idx: np.ndarray) -> np.ndarray:
        slots = np.arange(MAX_ELEMENTS)
        rows = np.where(slots < self.counts[idx, None], self.first[idx, None] + slots, len(self.rows) - 1)
        return self.rows[rows].reshape(len(idx), -1)

    def redraws_b(self, a: int, b: int, n: int, step: int = 1) -> np.ndarray:
        """Whether instance b + step * i is redrawn as the partner of instance a + step * i, for i < n."""
        ia, ib = slice(a, a + step * n, step), slice(b, b + step * n, step)
        compared = self.counts[ia] == self.counts[ib]
        if not self.independence:
            compared &= np.all(self.centers[ia] == self.centers[ib], axis=1)
        q = step * np.flatnonzero(compared)
        redraw = self.zero[ib].copy() if self.independence else np.zeros(n, dtype=bool)
        if len(q):
            x, y = np.split(self._padded(np.concatenate([a + q, b + q])), 2)
            if self.independence:
                redraw[q // step] |= _scaled(x, y) | _scaled(y, x)
            else:
                redraw[q // step] = np.all(x == y, axis=1)
        return redraw

    def _redrawn_pairs(self, parity: int) -> np.ndarray:
        """The i of parity whose pair (i, i + 1) redraws an instance, found once per parity."""
        if parity not in self._bad:
            bad = self.redraws_b(parity, parity + 1, (len(self.counts) - parity) // 2, 2)
            if self.independence:
                bad |= self.zero[parity:-1:2]
            self._bad[parity] = parity + 2 * np.flatnonzero(bad)
        return self._bad[parity]

    def walk(self):
        """The instances kept as pairs (a, b) in turn, and the a still waiting for its b.

        The walk keeps pairs of neighbours (i, i + 1) up to the first one the
        rule redraws, drops that instance and goes on; a redrawn b leaves a to
        meet the next instances one by one. Returns the kept mask and the
        index of the one a left without a b, or n when none is.
        """
        n = len(self.counts)
        keep = np.zeros(n, dtype=bool)
        i = 0
        while True:
            redrawn = self._redrawn_pairs(i % 2)
            j = np.searchsorted(redrawn, i)
            if j == len(redrawn):  # no redraw among the pairs left
                end = i + (n - i) // 2 * 2
                keep[i:end] = True
                return keep, end
            a = int(redrawn[j])
            keep[i:a] = True
            if self.independence and self.zero[a]:
                i = a + 1
                continue
            b = a + 2
            while b < n and self.redraws_b(a, b, 1)[0]:
                b += 1
            if b == n:
                return keep, a
            keep[a] = keep[b] = True
            i = b + 1


def _decode_chunk(words: _LatticeWords, d: int, pairs: int, independence: bool):
    """The next pairs that sample_instance and _PairRule draw from the words' Generator.

    Returns the centers, counts and sorted elements of the instances a, b of
    each pair in turn, as _outputs takes them. A round decodes instances as
    arrays from pos up to a flagged word, which words.settle then reads as a
    size draw if it sits at an instance's start + d, else as a lattice draw.
    The walk drops redrawn instances whole, which leaves the roles of later
    words as they were, and an a left without a b joins the next round's
    batch. A call ends on a round that keeps all 2r instances of its r pairs.
    """
    parts, carried = [], None
    while pairs:
        todo = 2 * pairs - (carried is not None)
        words.reserve(todo * (d + 1 + MAX_ELEMENTS * d))  # the most words todo instances read without a redraw
        draws, sizes, rejected = words.lattice
        start = words.pos
        i = np.searchsorted(rejected, start)
        end = int(rejected[i]) if i < len(rejected) else len(draws)  # words before end decode as drawn
        starts = [start]
        for _ in range(todo):
            if start + d >= end:
                break
            start += d + 1 + sizes[start + d] * d
            if start > end:
                break
            starts.append(start)
        batch = _lattice_instances(draws, starts, d)
        words.pos = starts[-1]
        if len(starts) <= todo:  # the scan stopped at the flagged word end, in the instance at starts[-1]
            words.settle(end, MAX_ELEMENTS if end == starts[-1] + d else 2 * LATTICE_RANGE + 1)
        if carried is not None:
            batch = tuple(np.concatenate(arrays) for arrays in zip(carried, batch))
        centers, counts, elements = batch
        rule = _PairRule(centers, counts, elements, independence)
        keep, left = rule.walk()
        rows = np.repeat(keep, counts)
        parts.append((np.compress(keep, centers, axis=0), counts[keep], np.compress(rows, elements, axis=0)))
        pairs -= int(np.count_nonzero(keep)) // 2
        carried = None
        if left < len(counts):
            first = rule.first[left]
            carried = centers[left : left + 1], counts[left : left + 1], elements[first : first + counts[left]]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _pair_words(seed: int, d: int, num_pairs: int) -> _LatticeWords:
    """A trial's reader, refilled by blocks of the most words a chunk's pairs read without a redraw.

    A trial of fewer than PAIRS_PER_CHUNK pairs refills by its own pairs' words.
    """
    block = min(num_pairs, PAIRS_PER_CHUNK) * 2 * (d + 1 + MAX_ELEMENTS * d)
    return _LatticeWords(np.random.default_rng(derive_seed(seed, 1)), block)


def _weights(seed: int, k: int, d: int, c: int) -> np.ndarray:
    """The (K, d, c) head weights of a trial's seed."""
    return np.random.default_rng(derive_seed(seed, 2)).standard_normal((k, d, c))


def _scores(fa: np.ndarray, fb: np.ndarray, independence: bool) -> np.ndarray:
    """Separation of output rows (P, c): smin / smax of [fa; fb], else |fa - fb| / max(|fa|, |fb|)."""
    if independence:
        s = np.linalg.svd(np.stack([fa, fb], axis=1), compute_uv=False)
        return s[:, 1] / np.maximum(s[:, 0], 1e-300)
    norms = np.linalg.norm(np.stack([fa, fb]), axis=2)
    return np.linalg.norm(fa - fb, axis=1) / np.maximum(norms.max(axis=0), 1e-300)


def _trial(kind: str, num_pairs: int, k, d, c, seed, source: str) -> TrialReport:
    """Decode and evaluate pairs PAIRS_PER_CHUNK at a time.

    A pair violates when its _scores value is below COLLISION_RTOL, or for
    injectivity equal to it. The report keeps the pair with the least score.
    """
    for name, value in (("num_pairs", num_pairs), ("k", k), ("d", d), ("c", c)):
        if (error := count_error(value)) is not None:
            raise ValueError(f"{name} {error}")
    independence = kind == "independence"
    if independence and c < 2:  # two outputs in R^1 are always parallel
        raise ValueError(f"c must be at least 2 for independence, got {c}")
    words = _pair_words(seed, d, num_pairs)
    weights = _weights(seed, k, d, c)
    coeffs = CoefficientSource(source, k, d, c, seed)
    violations, min_score, witness = 0, np.inf, (-1, None, None)
    for start in range(0, num_pairs, PAIRS_PER_CHUNK):
        size = min(PAIRS_PER_CHUNK, num_pairs - start)
        chunk = _decode_chunk(words, d, size, independence)
        out = _outputs(*chunk, coeffs, weights)
        score = _scores(out[0::2], out[1::2], independence)
        violated = score < COLLISION_RTOL if independence else score <= COLLISION_RTOL
        violations += int(np.count_nonzero(violated))
        best = int(np.argmin(score))
        if score[best] < min_score:
            pair = _instance(*chunk, 2 * best), _instance(*chunk, 2 * best + 1)
            min_score, witness = float(score[best]), (start + best, *pair)
    return TrialReport(kind, k, d, c, num_pairs, violations, min_score, *witness)


def injectivity_trial(
    num_pairs: int, k: int, d: int, c: int, seed: int, source: str = "random_iid"
) -> TrialReport:
    """Sample distinct instance pairs and count aggregated-output collisions."""
    return _trial("injectivity", num_pairs, k, d, c, seed, source)


def independence_trial(
    num_pairs: int, k: int, d: int, c: int, seed: int, source: str = "random_iid"
) -> TrialReport:
    """Check that output pairs are not parallel outside the scaling family.

    The family includes 0 * b: a multiset of zero vectors aggregates to the
    zero output, so it is redrawn on either side of a pair.
    """
    if k <= 1:
        raise ValueError("linear independence requires K > 1")
    return _trial("independence", num_pairs, k, d, c, seed, source)


def parallel_control(k: int, d: int, c: int, seed: int):
    """Excluded-case inversion: same coefficients, multiset doubled -> parallel outputs."""
    base = sample_instance(np.random.default_rng(derive_seed(seed, 1)), d)
    weights = _weights(seed, k, d, c)
    # the scaled multiset keeps the base instance's coefficient draws
    fa = aggregate(base, CoefficientSource("random_iid", k, d, c, seed), weights)
    return fa, 2 * fa


def multiset_counterexample_outputs(variant: Variant, seed: int):
    """Outputs of two nodes whose neighbor multisets are {{x1}} and {{x1, x1}}.

    The graph realizes the multisets with distinct neighbor nodes carrying
    the same feature; softmax-normalized attention cannot tell the two
    apart, while tanh-gated schemes can.
    """
    g = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4)])
    rng = np.random.default_rng(derive_seed(seed, 7))
    d, c, k = 3, 3, 2 if variant in (Variant.GATV2_SOFTMAX, Variant.LMGC_EQ14) else 1
    center = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, d).astype(float)
    shared = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, d).astype(float)
    while not np.any(shared):
        shared = rng.integers(-LATTICE_RANGE, LATTICE_RANGE + 1, d).astype(float)
    x = np.zeros((5, d))
    x[0] = x[2] = center * LATTICE_SCALE
    x[1] = x[3] = x[4] = shared * LATTICE_SCALE
    weights = rng.standard_normal((k, d, c))
    length = vector_length(variant, k, d, c)
    if not length:
        raise ValueError(f"counterexample is not defined for {variant}")
    vectors = tuple(rng.standard_normal(length) for _ in range(k))
    layer = LmgcLayer(weights, CoefficientScheme(variant, k, vectors))
    out = lmgc_forward(layer, x, g)
    return out[0], out[2]

