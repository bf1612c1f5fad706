"""The GF(p) modulus check, and field arithmetic over GF(3) and GF(5) exhaustively."""

import numpy as np
import pytest

from semipolar.forms import group_tables
from semipolar.gf import GF, is_prime
from semipolar.linalg import normalize_rows


def brute_force_inverse(a: int, p: int):
    for b in range(p):
        if (a * b) % p == 1:
            return b
    return None


def test_construction_rejects_composite_and_char2():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(9)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2)
    assert GF(3).p == 3
    assert GF(17).p == 17


def test_is_prime_small_values():
    primes = [n for n in range(2, 30) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("p", [3, 5])
def test_inverse_laws_exhaustive(p):
    # normalize_rows scales [a, 1] by the inverse of a, so its second
    # coordinate is that inverse
    a = np.arange(1, p)
    pairs = np.stack([a, np.ones_like(a)], axis=1)
    norm = normalize_rows(pairs, p)
    inv = norm[:, 1]
    assert (norm[:, 0] == 1).all()
    assert ((a * inv) % p == 1).all()
    assert (normalize_rows(np.stack([inv, np.ones_like(a)], axis=1), p)[:, 1] == a).all()
    assert inv.tolist() == [brute_force_inverse(int(x), p) for x in a]


@pytest.mark.parametrize("p", [3, 5])
def test_field_laws_exhaustive(p):
    # the index-arithmetic tables of GF(p)^1: the code of a scalar is itself
    _, add, _, _, mul = group_tables(p, 1)
    elems = range(p)
    for a in elems:
        for b in elems:
            assert add[a, b] == add[b, a]
            assert mul[a, b] == mul[b, a]
            for c in elems:
                assert add[add[a, b], c] == add[a, add[b, c]]
                assert mul[mul[a, b], c] == mul[a, mul[b, c]]
                assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
