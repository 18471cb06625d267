"""Sub-seed derivation sanity checks."""

import warnings

import numpy as np
import pytest

from gclab.seeding import MASK, derive_seed, extend_seed, splitmix64


def test_splitmix_is_deterministic():
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(1) == splitmix64(1)


def test_splitmix_stays_in_64_bits():
    for state in (0, 1, 2**63, 2**64 - 1, 123456789):
        out = splitmix64(state)
        assert 0 <= out < 2**64


def test_derive_seed_varies_with_every_index():
    base = derive_seed(7, 0, 0)
    assert derive_seed(7, 0, 1) != base
    assert derive_seed(7, 1, 0) != base
    assert derive_seed(8, 0, 0) != base


def test_derive_seed_deterministic_and_order_sensitive():
    assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)
    assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)


def test_derive_seed_handles_negative_master():
    out = derive_seed(-1, 5)
    assert 0 <= out < 2**64


@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32, np.uint8])
def test_numpy_integer_seeds_give_the_python_int_result(kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's scalar-overflow warnings included
        for master, index in ((5, 1), (3, 1), (7, 0), (0, 9)):
            got = derive_seed(kind(master), kind(index))
            assert type(got) is int and got == derive_seed(master, index)
            assert type(splitmix64(kind(master))) is int and splitmix64(kind(master)) == splitmix64(master)
    assert derive_seed(np.int64(-1), np.int64(-3)) == derive_seed(-1, -3) == derive_seed(MASK, MASK - 2)


def test_uint64_arrays_mix_in_place_as_the_ints_do():
    states = np.random.default_rng(0).integers(0, 2**64, (3, 50), dtype=np.uint64)
    want = [[derive_seed(int(s), 4, MASK, 2**63) for s in row] for row in states]
    mixed = states.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = extend_seed(splitmix64(mixed), np.full(50, 4, dtype=np.uint64), MASK, 2**63)
    assert out is mixed and out.tolist() == want


@pytest.mark.parametrize("seed, idx", [(2.5, 1), (3, 1.0), (np.float64(3), 1)])
def test_float_seeds_and_indices_rejected(seed, idx):
    with pytest.raises(TypeError):
        derive_seed(seed, idx)
