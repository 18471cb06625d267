"""Deterministic sub-seed derivation via splitmix64.

All randomness in the CLI and the experiment runner flows from one master
seed; sub-streams are derived by mixing (seed, index) so that trials are
reproducible and independent of execution order.

Any integer, numpy's included, mixes mod 2^64 into a Python int; a uint64
array wraps at 2^64 by itself, so it is mixed in place, unmasked, and returned.
"""

from __future__ import annotations

from operator import index

import numpy as np

MASK = (1 << 64) - 1


def splitmix64(state):
    wraps = isinstance(state, np.ndarray)
    z = state if wraps else index(state)  # a float is no seed
    z += 0x9E3779B97F4A7C15
    if not wraps:
        z &= MASK
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    if not wraps:
        z &= MASK
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    if not wraps:
        z &= MASK
    z ^= z >> 31
    return z


def derive_seed(master, *indices):
    """Mix a master seed with one or more stream indices."""
    return extend_seed(splitmix64(master), *indices)


def extend_seed(state, *indices):
    """Mix more indices into a derived seed: derive_seed(m, *a, *b) == extend_seed(derive_seed(m, *a), *b).

    An array state is updated in place, so each (uint64) array index must
    broadcast to its shape; an int state meeting an array index becomes one.
    """
    for idx in indices:
        state ^= idx if isinstance(idx, np.ndarray) else index(idx) & MASK
        state = splitmix64(state)
    return state
