"""Deterministic sub-seed derivation via splitmix64.

All randomness in the CLI and the experiment runner flows from one master
seed; sub-streams are derived by mixing (seed, index) so that trials are
reproducible and independent of execution order.
"""

from __future__ import annotations

MASK = (1 << 64) - 1


def splitmix64(state: int) -> int:
    z = (state + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


def derive_seed(master: int, *indices: int) -> int:
    """Mix a master seed with one or more stream indices."""
    return extend_seed(splitmix64(master & MASK), *indices)


def extend_seed(state: int, *indices: int) -> int:
    """Mix more indices into a derived seed: derive_seed(m, *a, *b) == extend_seed(derive_seed(m, *a), *b)."""
    for idx in indices:
        state = splitmix64((state ^ (idx & MASK)) & MASK)
    return state
