"""Transversality deciders vs. the state-vector oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from csspair import (
    BitMatrix,
    ClassicalCode,
    audit_mirror_claims,
    check_cnot_transversal,
    check_cz_sufficient,
    check_cz_transversal,
    dual_basis,
    find_cnot_encoding,
    make_classical,
    make_css,
    make_mirrored_pair,
    oracle_cnot,
    oracle_cz,
    repair_mirrored_encodings,
    with_encoding,
)
from csspair import gf2, sampling, transversality
from csspair.errors import (CapacityError, ContainmentError, DimensionMismatchError,
                            EncodingError)

from conftest import HAMMING_ROWS, build_pair7_a, build_pair7_b

MIRROR_Z = ["1100100", "1110010", "1110001"]
MIRROR_X = ["1100000", "0101111"]


def test_pair7_is_cnot_transversal_both_modes(pair7_a, pair7_b):
    for mode in ("strict", "coset"):
        rep = check_cnot_transversal(pair7_a, pair7_b, mode=mode)
        assert rep.verdict, rep.conditions
    assert oracle_cnot(pair7_a, pair7_b).ok


def test_same_code_both_stations_transversal(steane):
    rep = check_cnot_transversal(steane, steane, mode="strict")
    assert rep.verdict
    assert oracle_cnot(steane, steane).ok


def test_nested_counterexample_k_mismatch(pair7_a, pair7_counterexample):
    assert pair7_counterexample.k == 1
    rep = check_cnot_transversal(pair7_a, pair7_counterexample)
    assert not rep.verdict
    assert rep.conditions["k_match"] is False
    assert rep.details["k_a"] == 2 and rep.details["k_b"] == 1


def test_equal_k_encoding_mismatch_with_witness(pair7_a, pair7_b):
    # Swap the target's representative rows: cosets no longer line up.
    swapped = with_encoding(pair7_b, BitMatrix(pair7_b.enc_a.a[::-1].copy()))
    rep = check_cnot_transversal(pair7_a, swapped)
    assert not rep.verdict
    assert rep.conditions["A_plus_B_in_C4perp"] is False
    res = oracle_cnot(pair7_a, swapped)
    assert not res.ok
    assert res.witness == ((0, 1), (0, 0))
    assert rep.witness == res.witness


def test_strict_implies_coset(pair7_a, pair7_b):
    rng = np.random.default_rng(42)
    for _ in range(20):
        qa, qb = sampling.random_valid_pair(rng, 6)
        strict = check_cnot_transversal(qa, qb, mode="strict").verdict
        coset = check_cnot_transversal(qa, qb, mode="coset").verdict
        assert coset or not strict


def test_coset_true_strict_false_still_physical(pair7_a, pair7_b):
    # Shift a representative by an X check of the target: same coset,
    # different matrix entries.
    shifted = pair7_b.enc_a.a.copy()
    shifted[0] ^= pair7_b.x_stab.a[2]
    qb2 = with_encoding(pair7_b, BitMatrix(shifted))
    assert not check_cnot_transversal(pair7_a, qb2, mode="strict").verdict
    rep = check_cnot_transversal(pair7_a, qb2, mode="coset")
    assert rep.verdict
    assert oracle_cnot(pair7_a, qb2).ok


def test_length_mismatch_raises(pair7_a, steane):
    q3 = make_css(make_classical(BitMatrix.identity(3)),
                  make_classical(BitMatrix.identity(3)))
    with pytest.raises(DimensionMismatchError):
        check_cnot_transversal(pair7_a, q3)


def test_mirrored_pair_construction_and_repair():
    g1p = BitMatrix.from_strings(MIRROR_Z)
    g2p = BitMatrix.from_strings(MIRROR_X)
    q1, q2 = make_mirrored_pair(g1p, g2p)
    assert (q1.n, q1.k) == (7, 2) and (q2.n, q2.k) == (7, 2)
    assert gf2.spans_equal(q1.x_stab, q2.z_stab)
    assert gf2.spans_equal(q1.z_stab, q2.x_stab)
    q1r, q2r = repair_mirrored_encodings(q1, q2)
    assert (q1r.enc_a @ q2r.enc_a.T) == BitMatrix.identity(2)
    assert check_cz_transversal(q1r, q2r).verdict
    res = oracle_cz(q1r, q2r)
    assert res.ok and res.max_deviation < 1e-12


def test_mirrored_pair_rejects_non_orthogonal():
    with pytest.raises(ContainmentError):
        make_mirrored_pair(BitMatrix([[1, 1, 0]]), BitMatrix([[1, 0, 0]]))


def test_self_orthogonal_input_gives_identical_codes(steane):
    simplex = dual_basis(BitMatrix.from_strings(HAMMING_ROWS))
    q1, q2 = make_mirrored_pair(simplex, simplex)
    assert gf2.spans_equal(q1.c1.gen, q2.c1.gen)
    assert gf2.spans_equal(q1.c2.gen, q2.c2.gen)
    q1r, q2r = repair_mirrored_encodings(q1, q2)
    assert check_cz_transversal(q1r, q2r).verdict
    assert oracle_cz(q1r, q2r).ok


def test_cz_encodings_for_k0_pair():
    g1p = BitMatrix.from_strings(["1000", "0100"])
    g2p = BitMatrix.from_strings(["0010", "0001"])
    q1, q2 = make_mirrored_pair(g1p, g2p)
    assert q1.k == 0
    q1r, q2r = repair_mirrored_encodings(q1, q2)
    assert q1r.enc_a.rows == 0 and q2r.enc_a.rows == 0


def _self_orth_k2_with_bad_pairing():
    """CSS(C, C) with k=2 plus a re-encoded twin whose pairing is not I.

    Every encoding of a self-orthogonal code keeps the CZ stabilizer
    conditions intact, so the only thing the twin breaks is the logical
    pairing A @ B^T: a pure phase failure.
    """
    checks = BitMatrix.from_strings(["110000", "001100"])
    c = make_classical(dual_basis(checks))
    q = make_css(c, make_classical(dual_basis(checks)))
    assert q.k == 2
    pairing = q.enc_a @ q.enc_a.T
    if pairing == BitMatrix.identity(2):
        swap = BitMatrix([[0, 1], [1, 0]])
        qb = with_encoding(q, swap @ q.enc_a)
    else:
        qb = q
    assert (q.enc_a @ qb.enc_a.T) != BitMatrix.identity(2)
    return q, qb


def test_cz_bad_pairing_detected_by_oracle():
    qa, qb = _self_orth_k2_with_bad_pairing()
    rep = check_cz_transversal(qa, qb)
    assert not rep.verdict
    assert rep.conditions["ABt_is_identity"] is False
    assert rep.conditions["C2perp_orth_C4perp"]
    assert rep.conditions["A_orth_C4perp"] and rep.conditions["C2perp_orth_B"]
    res = oracle_cz(qa, qb)
    assert not res.ok
    assert rep.witness == res.witness


def test_cz_symmetric_in_the_two_codes():
    rng = np.random.default_rng(77)
    for _ in range(15):
        qa, qb = sampling.random_valid_pair(rng, 6)
        assert check_cz_transversal(qa, qb).verdict == check_cz_transversal(qb, qa).verdict


def test_cz_sufficient_on_mirrored_fixture():
    q1, q2 = make_mirrored_pair(BitMatrix.from_strings(MIRROR_Z),
                                BitMatrix.from_strings(MIRROR_X))
    q1, q2 = repair_mirrored_encodings(q1, q2)
    rep = check_cz_sufficient(q1, q2)
    assert rep.verdict
    assert rep.conditions["sufficient_branch_1"]


def test_cz_sufficient_fails_without_pairing():
    qa, qb = _self_orth_k2_with_bad_pairing()
    rep = check_cz_sufficient(qa, qb)
    assert not rep.verdict
    assert not rep.conditions["sufficient_branch_1"]
    assert not rep.conditions["sufficient_branch_2"]
    assert not rep.conditions["ABt_is_identity"]


def test_cz_sufficient_implies_exact():
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(40):
        qa, qb = sampling.random_valid_pair(rng, 6)
        if check_cz_sufficient(qa, qb).verdict:
            hits += 1
            assert check_cz_transversal(qa, qb).verdict
    assert hits > 0  # the corpus must exercise the implication


def test_checker_oracle_agreement_small_corpus():
    rng = np.random.default_rng(123)
    for _ in range(25):
        qa, qb = sampling.random_valid_pair(rng, 6)
        assert check_cnot_transversal(qa, qb).verdict == oracle_cnot(qa, qb).ok
        assert check_cz_transversal(qa, qb).verdict == oracle_cz(qa, qb).ok


def test_oracle_capacity_guard():
    full = make_classical(BitMatrix.identity(15))
    q = make_css(full, make_classical(BitMatrix.identity(15)))
    with pytest.raises(CapacityError):
        oracle_cnot(q, q)


def test_oracle_rejects_k_mismatch(pair7_a, pair7_counterexample):
    with pytest.raises(ValueError):
        oracle_cnot(pair7_a, pair7_counterexample)


def test_find_encoding_recovers_scrambled_pair(pair7_a, pair7_b):
    rng = np.random.default_rng(7)
    qa = sampling.scramble_encoding(rng, pair7_a)
    qb = sampling.scramble_encoding(rng, pair7_b)
    assert not check_cnot_transversal(qa, qb).verdict
    enc = find_cnot_encoding(qa, qb)
    assert enc is not None
    qa2, qb2 = with_encoding(qa, enc), with_encoding(qb, enc)
    assert oracle_cnot(qa2, qb2).ok


def test_find_encoding_identical_codes_returns_default(steane):
    assert find_cnot_encoding(steane, steane) == steane.enc_a


def test_find_encoding_none_without_containment(pair7_a, pair7_b):
    # Reversed orientation: the target's X checks are strictly larger,
    # so the containment fails in this direction.
    assert find_cnot_encoding(pair7_b, pair7_a) is None


def _xor_span(words) -> set[int]:
    """Every XOR-sum of the packed words, by brute force."""
    span = {0}
    for word in words:
        span |= {s ^ word for s in span}
    return span


def _shared_encoding_exists(qa, qb) -> bool:
    """Exhaustive search, given dual(C2) ⊆ dual(C4): k words of C1 ∩ C3 whose
    nonzero sums all lie outside dual(C4), hence outside dual(C2) too."""
    def words(m):
        return [gf2.vector_to_int(row) for row in m.a]

    x_b = _xor_span(words(qb.x_stab))
    shared = _xor_span(words(qa.c1.gen)) & _xor_span(words(qb.c1.gen))
    return any(len(sums := _xor_span(rows)) == 2**qa.k and not (sums - {0}) & x_b
               for rows in itertools.combinations(sorted(shared - x_b), qa.k))


def test_find_encoding_none_when_control_representatives_miss_the_target():
    # Pairs with equal k and dual(C2) ⊆ dual(C4) whose control representatives do not
    # encode the target: no shared encoding exists at all.
    rng = np.random.default_rng(7)
    corpus = []
    for i in range(600):
        qa, qb = sampling.random_valid_pair(rng, 3 + i % 5)
        for a, b in ((qa, qb), (qb, qa)):
            if a.k == b.k and gf2.subspace_leq(a.x_stab, b.x_stab):
                try:
                    with_encoding(b, a.enc_a)
                except EncodingError:
                    corpus.append((a, b))
    assert len(corpus) >= 8
    for qa, qb in corpus:
        assert find_cnot_encoding(qa, qb) is None
        assert not _shared_encoding_exists(qa, qb)
    # The search itself finds the encodings of transversal pairs.
    for n in range(3, 8):
        assert _shared_encoding_exists(*sampling.random_cnot_pair(rng, n))


def test_find_encoding_none_when_k_differs(steane):
    # Two of Steane's X checks: the containment holds, but k = 2 against 1.
    qa = sampling._css_from_x_checks(BitMatrix(steane.x_stab.a[:2]),
                                     BitMatrix.stack(steane.enc_a, BitMatrix(steane.x_stab.a[2:])))
    assert (qa.k, steane.k) == (2, 1)
    assert gf2.subspace_leq(qa.x_stab, steane.x_stab)
    assert find_cnot_encoding(qa, steane) is None


def test_audit_flags_inconsistent_claims(fixtures_dir):
    g1p = BitMatrix.from_strings(MIRROR_Z)
    g2p = BitMatrix.from_strings(MIRROR_X)
    claimed_x = gf2.load_matrix(fixtures_dir / "mirror7_claimed_x_checks.mat")
    claimed_b = gf2.load_matrix(fixtures_dir / "mirror7_claimed_b.mat")
    findings = audit_mirror_claims(g1p, g2p, claimed_x, claimed_b)
    assert any("not mirrored" in f for f in findings)
    assert any("outside C2" in f for f in findings)
    # the claimed representatives still pair to the identity with the shared A
    a_disp = BitMatrix.from_strings(["0011011", "1011100"])
    assert (a_disp @ claimed_b.T) == BitMatrix.identity(2)


def test_audit_passes_consistent_claims():
    g1p = BitMatrix.from_strings(MIRROR_Z)
    g2p = BitMatrix.from_strings(MIRROR_X)
    _, q2 = make_mirrored_pair(g1p, g2p)
    assert audit_mirror_claims(g1p, g2p, q2.x_stab, q2.enc_a) == []


def test_report_serialization_shape(pair7_a, pair7_b):
    rep = check_cnot_transversal(pair7_a, pair7_b)
    d = rep.to_dict()
    assert d["gate"] == "CNOT" and d["verdict"] is True
    assert set(d["conditions"]) == {"k_match", "C2perp_in_C4perp", "A_plus_B_in_C4perp"}
    assert d["witness"] is None


def _degenerate_cnot_pairs():
    """Pairs where A + B in dual(C4) reduces to A == B: k = 0, or no X checks on B."""
    self_dual = make_classical(BitMatrix.from_strings(["1100", "0011"]))
    other_dual = make_classical(BitMatrix.from_strings(["1010", "0101"]))
    k0 = make_css(self_dual, ClassicalCode(dual_basis(self_dual.gen)))
    k0_other = make_css(other_dual, ClassicalCode(dual_basis(other_dual.gen)))
    no_x = make_css(make_classical(BitMatrix.from_strings(["110", "011"])),
                    make_classical(BitMatrix.identity(3)))
    no_x_swapped = with_encoding(no_x, BitMatrix(no_x.enc_a.a[::-1].copy()))
    one_x = make_css(make_classical(BitMatrix.identity(3)),
                     ClassicalCode(dual_basis(BitMatrix([[1, 1, 0]]))))
    return {
        "k0_same": (k0, k0),
        "k0_not_contained": (k0, k0_other),
        "no_x_same": (no_x, no_x),
        "no_x_other_encoding": (no_x_swapped, no_x),
        "x_checks_into_no_x": (one_x, no_x),
    }


@pytest.mark.parametrize("case", sorted(_degenerate_cnot_pairs()))
def test_cnot_checker_matches_oracle_on_degenerate_pairs(case):
    qa, qb = _degenerate_cnot_pairs()[case]
    assert (qa.k == 0) or (qb.x_stab.rows == 0)
    res = oracle_cnot(qa, qb)
    for mode in ("coset", "strict"):
        rep = check_cnot_transversal(qa, qb, mode=mode)
        assert rep.verdict == res.ok, (case, mode, rep.conditions)
        assert rep.witness == res.witness, (case, mode)
    assert res.ok == case.endswith("same")


# -- oracle order and capacity ------------------------------------------------------


@pytest.fixture(scope="module")
def equal_k_corpus():
    """400 seeded random_valid_pair draws at n = 4-7 with equal logical dimensions."""
    rng = np.random.default_rng(2026)
    pairs = []
    while len(pairs) < 400:
        qa, qb = sampling.random_valid_pair(rng, int(rng.integers(4, 8)))
        if qa.k == qb.k:
            pairs.append((qa, qb))
    return pairs


@pytest.mark.parametrize("gate", ["cnot", "cz"])
def test_oracle_stops_at_checker_witness_in_lexicographic_order(gate, equal_k_corpus):
    """The oracle visits basis pairs in lexicographic order and stops at the first failure.

    That first failure is the checker's witness; a pass checks all 4^k
    pairs and nothing more, for either gate.
    """
    checker, oracle = {
        "cnot": (check_cnot_transversal, oracle_cnot),
        "cz": (check_cz_transversal, oracle_cz),
    }[gate]
    passes = late_failures = 0
    for qa, qb in equal_k_corpus:
        rep, res = checker(qa, qb), oracle(qa, qb)
        assert rep.verdict == res.ok
        assert rep.witness == res.witness
        if res.ok:
            passes += 1
            assert res.pairs_checked == 4**qa.k
        else:
            index = int("".join(map(str, res.witness[0] + res.witness[1])), 2)
            assert res.pairs_checked == index + 1
            late_failures += index > 0
    assert passes > 0 and late_failures > 0


def test_oracle_capacity_checked_before_allocation():
    # n = 13, k = 2, rx 10 + 11: 2^25 joint entries, one power of two over the limit.
    qa, qb = sampling.random_cnot_pair(np.random.default_rng(4), 13)
    for oracle in (oracle_cnot, oracle_cz):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="2\\^25"):
                oracle(qa, qb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_oracle_refuses_blocks_wider_than_a_word():
    # Supports are uint64 words; n = 65 is refused before the entry count is looked at.
    q = make_css(make_classical(BitMatrix.identity(65)), make_classical(BitMatrix.identity(65)))
    for oracle in (oracle_cnot, oracle_cz):
        with pytest.raises(CapacityError, match="n <= 64"):
            oracle(q, q)


def test_oracle_byte_estimate_admits_n12():
    # n = 12: 2^24 joint amplitudes, about 1.9 GiB at the estimate; the precheck must not raise.
    qa, qb = sampling.random_cnot_pair(np.random.default_rng(12), 12)
    transversality._oracle_precheck(qa, qb)


def _oracle_bytes_estimate(qa, qb) -> int:
    """Working set of one oracle call: both codes' 2^k sorted supports at 8 B
    per entry, plus one block of gated joint entries at 10 B each (a uint64
    word and a match or parity byte; 9-10 B traced at n = 16-22)."""
    rxa, rxb = qa.x_stab.rows, qb.x_stab.rows
    block = min(1 << (rxa + rxb), transversality._ORACLE_BLOCK_ENTRIES)
    return 8 * 2**qa.k * (2**rxa + 2**rxb) + 10 * block


@pytest.mark.parametrize("gate", ["cnot", "cz"])
def test_oracle_working_set_within_byte_estimate(gate):
    # Both pairs have more joint entries per basis pair (2^22, 2^21) than one block holds.
    if gate == "cnot":
        qa, qb = sampling.random_cnot_pair(np.random.default_rng(1), 16)
        oracle = oracle_cnot
    else:
        qa, qb = sampling.random_repaired_mirrored_pair(np.random.default_rng(1), 22, 1)
        oracle = oracle_cz
    assert qa.x_stab.rows + qb.x_stab.rows > transversality._ORACLE_BLOCK_ENTRIES.bit_length() - 1
    tracemalloc.start()
    try:
        res = oracle(qa, qb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok and qa.k > 0  # every basis pair was gated
    assert peak <= _oracle_bytes_estimate(qa, qb) + (1 << 20)


def test_random_cnot_pair_small_n_redraws_k():
    # At n = 3 a draw of k = 2 leaves no room for a stabilizer rank r2 >= 1; k is redrawn.
    for seed in range(20):
        qa, qb = sampling.random_cnot_pair(np.random.default_rng(seed), 3)
        assert (qa.n, qa.k, qb.k) == (3, 1, 1)
        assert check_cnot_transversal(qa, qb).verdict and oracle_cnot(qa, qb).ok
    with pytest.raises(ValueError, match="n >= 3"):
        sampling.random_cnot_pair(np.random.default_rng(0), 2)


def test_mirrored_samplers_small_n_redraw_k():
    # At n = 3 a draw of k = 2 leaves no room for two check ranks >= 1; k is redrawn.
    for seed in range(20):
        g1, g2 = sampling.random_mirrored_inputs(np.random.default_rng(seed), 3)
        assert (g1.cols, g1.rows, g2.rows) == (3, 1, 1)
        qa, qb = sampling.random_valid_pair(np.random.default_rng(seed), 3)
        assert qa.n == qb.n == 3 and min(qa.k, qb.k) >= 1
    with pytest.raises(ValueError, match="n - k >= 2"):
        sampling.random_mirrored_inputs(np.random.default_rng(0), 3, k=2)
    with pytest.raises(ValueError, match="n >= 3"):
        sampling.random_mirrored_inputs(np.random.default_rng(0), 2)
