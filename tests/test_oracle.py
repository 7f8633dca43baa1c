"""The coset-support oracles against a dense state-vector reference, and past its reach.

`_dense_oracle` is the loop the library ran on full 2^(2n) amplitude
arrays, built here from the public `statevec` layer.  Wherever it runs
(n <= 10 in these tests) the library's `OracleResult` must equal its
basis-pair loop field for field, `repr(max_deviation)` included, and
on every CZ pass its uniform-superposition input must agree as well,
which the library leaves to linearity.  Above n = 12, where the dense
arrays no longer fit, the oracles must still agree with the algebraic
checkers.
"""

from itertools import product

import numpy as np
import pytest

from csspair import (
    OracleResult,
    check_cnot_transversal,
    check_cz_transversal,
    make_css,
    min_distance,
    oracle_cnot,
    oracle_cz,
    sampling,
    statevec,
    transversality,
)

from conftest import STANDARD_SELF_PAIRS, cyclic_code

DENSE_MAX_N = 10


def _dense_oracle(qa, qb, cz) -> tuple[OracleResult, float | None]:
    """Both oracles on dense state vectors: gate tensor(ket_a, ket_b) and compare
    with the expected state amplitude-wise, basis pairs in lexicographic order.
    Beside the basis-pair result stands the deviation of the uniform-superposition
    input on a CZ pass, None otherwise."""
    # Dense amplitudes round; a failing pair is off by a*b >= 2^-10 at n <= 10.
    tol = 1e-12
    transversality._oracle_precheck(qa, qb)
    assert qa.n <= DENSE_MAX_N
    n = qa.n
    psis = list(product((0, 1), repeat=qa.k))
    kets_a = [statevec.encode_logical(qa, psi) for psi in psis]
    kets_b = [statevec.encode_logical(qb, psi) for psi in psis]
    gate = statevec.apply_transversal_cz if cz else statevec.apply_transversal_cnot
    worst = 0.0
    pairs = 0
    for i, ket_a in enumerate(kets_a):
        for j, ket_b in enumerate(kets_b):
            pairs += 1
            joint = statevec.tensor(ket_a, ket_b)
            gated = gate(joint, n)
            if cz:
                sign = (-1.0) ** (i & j).bit_count()
                expected = statevec.StateVector(2 * n, sign * joint.amp, check=False)
            else:
                expected = statevec.tensor(ket_a, kets_b[i ^ j])
            dev = statevec.max_amplitude_deviation(gated, expected)
            worst = max(worst, dev)
            if dev > tol:
                return OracleResult(False, (psis[i], psis[j]), dev, pairs), None
    result = OracleResult(True, None, worst, pairs)
    if cz:
        scale = 1.0 / np.sqrt(len(psis))
        plus_a = statevec.StateVector(n, scale * np.sum([s.amp for s in kets_a], axis=0), check=False)
        plus_b = statevec.StateVector(n, scale * np.sum([s.amp for s in kets_b], axis=0), check=False)
        gated = statevec.apply_transversal_cz(statevec.tensor(plus_a, plus_b), n)
        expected_amp = np.zeros_like(gated.amp)
        for i, ket_a in enumerate(kets_a):
            for j, ket_b in enumerate(kets_b):
                expected_amp += (-1.0) ** (i & j).bit_count() * statevec.tensor(ket_a, ket_b).amp
        expected_amp /= len(psis)
        expected = statevec.StateVector(2 * n, expected_amp, check=False)
        return result, statevec.max_amplitude_deviation(gated, expected)
    return result, None


def _outcome(call):
    """An oracle result with its deviation as repr, or the error it raised."""
    try:
        res = call()
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return res.ok, res.witness, repr(res.max_deviation), res.pairs_checked


def _dense_outcome(qa, qb, cz):
    """`_outcome` of `_dense_oracle`'s basis-pair result, and its superposition deviation."""
    try:
        res, superposition = _dense_oracle(qa, qb, cz)
    except ValueError as exc:
        return (type(exc).__name__, str(exc)), None
    return _outcome(lambda: res), superposition


@pytest.fixture(scope="module")
def dense_corpus(pair7_a, pair7_b, pair7_counterexample, steane):
    """The 16 ordered fixture pairs, 360 random pairs at n = 4-8, and odd-k
    mirrored pairs at n <= 10, whose dense CZ superposition leaves a rounding residue."""
    codes = [pair7_a, pair7_b, pair7_counterexample, steane]
    pairs = [(qa, qb) for qa in codes for qb in codes]
    rng = np.random.default_rng(2024)
    pairs += [sampling.random_valid_pair(rng, int(rng.integers(4, 9))) for _ in range(360)]
    rng = np.random.default_rng(31)
    for n, k in ((7, 1), (8, 3), (9, 1), (10, 1)):
        pairs.append(sampling.random_repaired_mirrored_pair(rng, n, k))
    return pairs


@pytest.fixture(scope="module")
def dense_outcomes(dense_corpus):
    """`_dense_outcome` on the corpus, computed once per gate."""
    cache = {}

    def outcomes(gate):
        if gate not in cache:
            cache[gate] = [_dense_outcome(qa, qb, gate == "cz") for qa, qb in dense_corpus]
        return cache[gate]
    return outcomes


ORACLES = {"cnot": oracle_cnot, "cz": oracle_cz}


@pytest.mark.parametrize("gate", ["cnot", "cz"])
def test_oracle_matches_dense_reference(gate, dense_corpus, dense_outcomes):
    outcomes = [_outcome(lambda: ORACLES[gate](qa, qb)) for qa, qb in dense_corpus]
    for pair, got, (want, superposition) in zip(dense_corpus, outcomes, dense_outcomes(gate)):
        assert got == want, pair
        if got[0] is True:
            assert got == (True, None, "0.0", 4**pair[0].k), pair
        if gate == "cz" and got[0] is True:
            # The superposition input, which the basis pairs decide by linearity.
            assert superposition < 1e-15, pair
        else:
            assert superposition is None, pair
    results = [o for o in outcomes if len(o) == 4]
    assert len(results) < len(outcomes)  # unequal k raises the same error on both sides
    assert any(not ok for ok, *_ in results) and any(ok for ok, *_ in results)
    if gate == "cz":
        # Odd k: the dense (s*a)*(s*b) and (a*b)/2^k differ in the last bits.
        assert any(superposition for _, superposition in dense_outcomes(gate))


@pytest.mark.parametrize("gate", ["cnot", "cz"])
def test_oracle_blocks_match_dense_reference(gate, dense_corpus, dense_outcomes, monkeypatch):
    """With one control-support entry per block, a mismatch in any block still counts."""
    monkeypatch.setattr(transversality, "_ORACLE_BLOCK_ENTRIES", 1)
    for pair, (want, _) in zip(dense_corpus, dense_outcomes(gate)):
        assert _outcome(lambda: ORACLES[gate](*pair)) == want, pair


def test_former_dense_limit_pair_certifies():
    # n = 13, k = 2, rx 9 + 11: 2^24 joint entries; the dense oracle refused every n > 12.
    qa, qb = sampling.random_cnot_pair(np.random.default_rng(13), 13)
    assert (qa.n, qa.k, qa.x_stab.rows, qb.x_stab.rows) == (13, 2, 9, 11)
    res = oracle_cnot(qa, qb)
    assert res.ok and res.pairs_checked == 16
    assert check_cnot_transversal(qa, qb).verdict
    assert oracle_cz(qa, qb).ok == check_cz_transversal(qa, qb).verdict


@pytest.mark.parametrize("name", sorted(STANDARD_SELF_PAIRS))
def test_standard_self_pairs_past_dense_limit(name):
    n, exponents, k_classical, d, k, rx = STANDARD_SELF_PAIRS[name]
    code = cyclic_code(n, exponents)
    assert (code.k, min_distance(code)) == (k_classical, d)
    q = make_css(code, code)  # the dual of each code lies inside it
    assert (q.n, q.k, q.x_stab.rows) == (n, k, rx)
    res = oracle_cnot(q, q)
    assert res.ok and res.pairs_checked == 4**k
    assert check_cnot_transversal(q, q).verdict
    assert oracle_cz(q, q).ok == check_cz_transversal(q, q).verdict


def _within_oracle_bound(qa, qb) -> bool:
    return 2 * qa.k + qa.x_stab.rows + qb.x_stab.rows <= transversality._ORACLE_MAX_ENTRY_BITS


def test_checker_oracle_agreement_past_dense_limit():
    """At each n = 13-20: the first three seeded random_cnot_pair draws within the
    oracle's 2^24 entries (shared and scrambled encodings alternating) and one
    repaired mirrored pair.  Verdicts and witnesses agree for both gates."""
    rng = np.random.default_rng(1320)
    corpus = []
    for n in range(13, 21):
        drawn = []
        for attempt in range(60):
            qa, qb = sampling.random_cnot_pair(rng, n, shared_encoding=len(drawn) % 2 == 0)
            if _within_oracle_bound(qa, qb):
                drawn.append((qa, qb))
                if len(drawn) == 3:
                    break
        assert len(drawn) == 3, n
        mirrored = sampling.random_repaired_mirrored_pair(rng, n, 1)
        assert _within_oracle_bound(*mirrored)
        corpus += drawn + [mirrored]
    verdicts = {"cnot": [], "cz": []}
    for qa, qb in corpus:
        for gate, checker, oracle in (("cnot", check_cnot_transversal, oracle_cnot),
                                      ("cz", check_cz_transversal, oracle_cz)):
            rep, res = checker(qa, qb), oracle(qa, qb)
            assert rep.verdict == res.ok, (qa.n, gate)
            assert rep.witness == res.witness, (qa.n, gate)
            if res.ok:
                assert res == (True, None, 0.0, 4**qa.k), (qa.n, gate)
            verdicts[gate].append(res.ok)
    for gate, oks in verdicts.items():
        assert any(oks) and not all(oks), gate
