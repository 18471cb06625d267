"""References for the multiset pairs that gclab.verify decodes and evaluates as arrays.

`ScalarWords` decodes a Generator's 32-bit words one draw at a time, and
`draw_pair` is one pair's redraw loop, instance by instance, on a Generator
or a `ScalarWords`. The tests check `verify._decode_chunk` and the trials
against them, and check `ScalarWords` itself against numpy's own draws.
`reduceat_outputs` is the aggregate summed per head before the head
weights apply, the form `verify._outputs` is checked against.
"""

import numpy as np

from gclab.verify import LATTICE_SCALE, sample_instance


class ScalarWords:
    """Generator.integers over ranges up to 2^32, decoded a word at a time from a verify._LatticeWords.

    Lemire's rule (arXiv:1805.10941): a word u gives m = u * span, is redrawn
    while m mod 2^32 < 2^32 mod span, and yields low + (m >> 32); a range of
    width 1 reads no word. Draws come back as arrays, 0-d for size None, so
    sample_instance reads them as it reads the Generator's. Given a
    lookahead, each call first reserves that many words, so the reader holds
    unread words when it fetches the ones a call reads past them.
    """

    def __init__(self, words, lookahead: int | None = None):
        self.words, self.lookahead = words, lookahead

    def _next_word(self) -> int:
        self.words.reserve(1)
        self.words.pos += 1
        return int(self.words.words[self.words.pos - 1])

    def _draw(self, low: int, span: int) -> int:
        if span == 1:
            return low
        m = self._next_word() * span
        while m & 0xFFFF_FFFF < 2**32 % span:
            m = self._next_word() * span
        return low + (m >> 32)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        """Generator.integers(low, high, size) for size None, n or (rows, n)."""
        span = high - low
        if not 1 <= span <= 2**32:
            raise ValueError(f"integers range of width {span} is outside [1, 2^32]")
        shape = () if size is None else size
        if self.lookahead:
            self.words.reserve(self.lookahead)
        draws = [self._draw(low, span) for _ in range(int(np.prod(shape)))]
        return np.array(draws, dtype=np.int64).reshape(shape)


def as_scaled(ms1: tuple, ms2: tuple) -> bool:
    """True when ms1 == m * ms2 elementwise (as sorted multisets) for integer m >= 1."""
    if len(ms1) != len(ms2):
        return False
    flat1 = [v for element in ms1 for v in element]
    flat2 = [v for element in ms2 for v in element]
    first = next((i for i, v in enumerate(flat2) if v), None)
    if first is None:  # ms2 is all zeros, a multiple only of zeros
        return not any(flat1)
    m = flat1[first] // flat2[first]
    return m >= 1 and flat1 == [m * v for v in flat2]


def is_integer_scaling(ms1: tuple, ms2: tuple) -> bool:
    return as_scaled(ms1, ms2) or as_scaled(ms2, ms1)


def draw_pair(rng, d: int, independence: bool):
    """Two distinct instances; for independence, outside the scaling family (0 * b included)."""
    a = sample_instance(rng, d)
    while independence and not any(map(any, a.elements)):
        a = sample_instance(rng, d)
    b = sample_instance(rng, d)
    while b == a or independence and (
        not any(map(any, b.elements)) or is_integer_scaling(a.elements, b.elements)
    ):
        b = sample_instance(rng, d)
    return a, b


def reduceat_outputs(centers, counts, elements, source, weights):
    """The (P, c) outputs of verify._outputs, summed per head first and weighted after.

    Each element's coefficients come from a call that pairs it with its own
    copy of its center. The (E, K, d) terms alpha_jk x_j are summed per
    instance in element order by np.add.reduceat, and one einsum applies
    the (K, d, c) weights to the (P, K, d) sums.
    """
    alpha = source.alphas(np.repeat(centers, counts, axis=0), np.ones(len(elements), dtype=int), elements)
    terms = alpha[:, :, None] * (elements * LATTICE_SCALE)[:, None, :]
    sums = np.add.reduceat(terms, np.cumsum(counts) - counts, axis=0)
    return np.einsum("pkd,kdc->pc", sums, weights)
