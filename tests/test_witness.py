"""Checker witnesses against the oracles' first failing basis pair, late in the order.

The checkers read their witness off the condition matrices instead of
searching the 2^k (CNOT) or 4^k (CZ) logical basis pairs; these pairs
put the first failure far into that order, where a search would be slow.
"""

import time

import numpy as np
import pytest

from csspair import check_cnot_transversal, check_cz_transversal, oracle_cnot, oracle_cz

from conftest import late_witness_pairs


def _index(witness) -> int:
    """Position of a basis pair in the lexicographic order the oracles visit."""
    return int("".join(map(str, witness[0] + witness[1])), 2)


def _unit(k: int, j: int | None = None) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(k))


@pytest.fixture(scope="module")
def late_corpus():
    """Two draws of late_witness_pairs per (k, j) at k = 2-6, n = k + 4, j < k - 1."""
    rng = np.random.default_rng(4242)
    pairs = []
    for k in range(2, 7):
        for j in range(k - 1):
            for _ in range(2):
                pairs.extend(late_witness_pairs(rng, k + 4, k, j))
    return pairs


def test_late_cnot_witnesses_match_oracle(late_corpus):
    for qa, qb in late_corpus:
        res = oracle_cnot(qa, qb)
        assert check_cnot_transversal(qa, qb).verdict == res.ok
        for mode in ("coset", "strict"):
            assert check_cnot_transversal(qa, qb, mode=mode).witness == res.witness, mode


def test_late_cz_witnesses_match_oracle(late_corpus):
    late = 0
    for qa, qb in late_corpus:
        rep, res = check_cz_transversal(qa, qb), oracle_cz(qa, qb)
        assert rep.verdict == res.ok
        assert rep.witness == res.witness
        late += res.witness is not None and _index(res.witness) >= 4**qa.k // 4
    assert late > 0


def test_cnot_witness_at_k18_is_read_off():
    (qa, qb), _ = late_witness_pairs(np.random.default_rng(18), 22, 18)
    start = time.perf_counter()
    rep = check_cnot_transversal(qa, qb)
    elapsed = time.perf_counter() - start
    assert not rep.verdict
    assert rep.witness == (_unit(18, 0), _unit(18))
    assert elapsed < 0.5, elapsed


def test_cz_witness_at_k10_is_read_off():
    _, (qa, qb) = late_witness_pairs(np.random.default_rng(10), 14, 10)
    start = time.perf_counter()
    rep = check_cz_transversal(qa, qb)
    elapsed = time.perf_counter() - start
    assert not rep.verdict and rep.conditions["ABt_is_identity"] is False
    assert rep.witness == (_unit(10, 1), _unit(10, 0))
    assert elapsed < 0.5, elapsed
