from math import comb

import pytest

from adjinv import enumerate_containing, enumerate_k_subsets


def test_exhaustive_small_cases():
    assert list(enumerate_k_subsets(2, 3)) == [(1, 2), (1, 3), (2, 3)]
    assert len(list(enumerate_k_subsets(3, 4))) == 4
    assert list(enumerate_k_subsets(4, 4)) == [(1, 2, 3, 4)]
    assert list(enumerate_containing(2, 3, 2)) == [(1, 2), (2, 3)]
    assert len(list(enumerate_containing(3, 4, 1))) == 3
    assert list(enumerate_containing(1, 5, 4)) == [(4,)]


def test_errors():
    with pytest.raises(ValueError):
        enumerate_k_subsets(0, 3)
    with pytest.raises(ValueError):
        enumerate_k_subsets(4, 3)
    with pytest.raises(ValueError):
        enumerate_containing(2, 3, 0)
    with pytest.raises(ValueError):
        enumerate_containing(2, 3, 4)


def test_counts_and_filter_equality_up_to_n8():
    for n in range(1, 9):
        for k in range(1, n + 1):
            full = list(enumerate_k_subsets(k, n))
            assert len(full) == comb(n, k)
            assert len(set(full)) == len(full)
            assert full == sorted(full)
            for i in range(1, n + 1):
                constrained = list(enumerate_containing(k, n, i))
                assert len(constrained) == comb(n - 1, k - 1)
                assert constrained == [seq for seq in full if i in seq]


def test_streams_are_restartable():
    first = list(enumerate_k_subsets(2, 4))
    second = list(enumerate_k_subsets(2, 4))
    assert first == second
    gen = enumerate_containing(2, 4, 3)
    assert list(gen) == [(1, 3), (2, 3), (3, 4)]
    assert list(gen) == []  # a single stream is consumed once
    assert list(enumerate_containing(2, 4, 3)) == [(1, 3), (2, 3), (3, 4)]

