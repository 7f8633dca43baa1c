"""Deciders for pairwise CNOT/CZ transversality of CSS codes.

A pair of CSS codes (code A controlling, code B targeted) implements a
logical CNOT by physical CNOTs on qubit pairs (i, n+i) exactly when

  * dual(C2) is contained in dual(C4), and
  * every row of A + B lies in dual(C4),

where A and B are the coset-representative matrices of the two codes.
The second condition is the coset-level form of "A equals B": only the
cosets of the representatives are physical, so representatives may
differ by dual(C4) vectors.  `strict` mode instead demands entrywise
A == B, which is sufficient but not necessary; `coset` mode is exact
and is what the state-vector oracle certifies.

For CZ the gate is diagonal, and transversality reduces to three
bilinear identities between generator matrices plus the pairing
condition A @ B^T = I.  Quantifying over whole subspaces is unneeded
because every exponent involved is bilinear: vanishing on generators
implies vanishing everywhere.

A failing checker's witness is the first logical basis pair on which
the gate goes wrong, read off the same GF(2) matrices whose zero tests
are its conditions; no checker searches over logical vectors.  Logical
vectors are listed first coordinate most significant, so the first
input on which a linear map L is nonzero is e_j for the *last* j with
L(e_j) != 0: every earlier input sums later unit vectors, sent to 0.

Every verdict produced here can be re-derived by brute force with
`oracle_cnot` / `oracle_cz`, which compare encode-then-gate against
gate-then-encode on every joint basis entry of all logical basis pairs,
in the order the checkers pick witnesses.  An encoded basis ket is
uniform over one coset x_psi + span(x_stab), so the oracles hold each
ket as its sorted support and compare supports and signs exactly; they
read only x_stab and enc_a.  A basis pair either matches or differs,
and they stop at the first that differs; by linearity the 4^k basis
pairs decide every input, superpositions included.  Pairs that would
visit more than 2^24 joint entries, 2^(2k + rx_A + rx_B) with rx the
X-stabilizer rank, raise CapacityError before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gf2
from .codes import CssCode, make_css_from_stabilizers, with_encoding
from .errors import (
    CapacityError,
    ContainmentError,
    DimensionMismatchError,
    EncodingError,
    SingularMatrixError,
)
from .gf2 import BitMatrix

# Joint entries an oracle call may visit, as a power of two: the amplitudes the dense
# state-vector oracle held per basis pair at its n = 12 limit.
_ORACLE_MAX_ENTRY_BITS = 24
# Joint entries gated at once, as one block of control-coset rows against a target coset.
_ORACLE_BLOCK_ENTRIES = 1 << 20

Witness = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass
class TransversalityReport:
    """Outcome of one pairwise transversality check.

    verdict is the conjunction of the required condition flags (for the
    sufficient-condition check, the disjunction of the two branches).
    witness, when present, is the lexicographically smallest pair of
    logical basis vectors (psi_a, psi_b) on which the physical gate and
    the logical gate disagree.
    """

    gate: str
    verdict: bool
    conditions: dict[str, bool]
    mode: str | None = None
    details: dict = field(default_factory=dict)
    witness: Witness | None = None

    def to_dict(self) -> dict:
        out = {
            "gate": self.gate,
            "verdict": self.verdict,
            "conditions": dict(self.conditions),
            "details": dict(self.details),
            "witness": _witness_dict(self.witness),
        }
        if self.mode is not None:
            out["mode"] = self.mode
        return out


def _witness_dict(witness: Witness | None) -> dict | None:
    """JSON form of a witness: each logical vector as a bitstring."""
    if witness is None:
        return None
    return {"psi_a": "".join(map(str, witness[0])), "psi_b": "".join(map(str, witness[1]))}


class OracleResult(NamedTuple):
    """Outcome of one brute-force oracle call.

    On a pass: ok is True, witness is None, max_deviation is 0.0 and
    pairs_checked is 4^k, every logical basis pair.  On a failure: ok is
    False, witness is the first basis pair (psi_a, psi_b) in
    lexicographic order on which the gate differs, max_deviation is the
    amplitude that pair is off by on a differing joint entry (a*b for
    CNOT, 2*a*b for a CZ sign flip, a and b the two kets' amplitudes),
    and pairs_checked is the pair's index plus one, i * 2^k + j + 1.
    """

    ok: bool
    witness: Witness | None
    max_deviation: float
    pairs_checked: int


def _unit(k: int, j: int | None = None) -> tuple[int, ...]:
    """The logical vector e_j of length k, or the zero vector when j is None."""
    return tuple(int(i == j) for i in range(k))


def _bits(x: int, k: int) -> tuple[int, ...]:
    """The logical vector of length k with index x, first coordinate most significant."""
    return tuple(x >> (k - 1 - b) & 1 for b in range(k))


def _last(mask: np.ndarray) -> int:
    """Index of the last True entry: the coordinate of the first input a map fails on."""
    return int(np.flatnonzero(mask)[-1])


def _require_same_length(qa: CssCode, qb: CssCode) -> None:
    if qa.n != qb.n:
        raise DimensionMismatchError(f"block lengths differ: {qa.n} vs {qb.n}")


def _report(gate: str, qa: CssCode, qb: CssCode, conditions: dict[str, bool],
            verdict: bool | None = None, **fields) -> TransversalityReport:
    """The report on (qa, qb): k_match leads the conditions, the details give both
    logical dimensions and n, and the verdict, unless given, is the conjunction."""
    conditions = {"k_match": qa.k == qb.k, **conditions}
    return TransversalityReport(
        gate=gate, verdict=all(conditions.values()) if verdict is None else verdict,
        conditions=conditions, details={"k_a": qa.k, "k_b": qb.k, "n": qa.n}, **fields,
    )


def check_cnot_transversal(qa: CssCode, qb: CssCode, mode: str = "coset") -> TransversalityReport:
    """Decide whether physical pairwise CNOT (qa control, qb target) is logical CNOT.

    mode="coset" checks the exact condition (rows of A + B inside
    dual(C4)); mode="strict" demands A == B entrywise.
    """
    if mode not in ("strict", "coset"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_same_length(qa, qb)
    containment = gf2.subspace_leq(qa.x_stab, qb.x_stab)
    conditions = {"C2perp_in_C4perp": containment}
    witness: Witness | None = None
    if qa.k == qb.k:
        # psi_a (A + B) leaves dual(C4) iff psi_a meets a row of A + B outside it.
        inside = gf2.rows_in_span(qa.enc_a + qb.enc_a, qb.x_stab)
        if mode == "strict":
            conditions["A_eq_B"] = qa.enc_a == qb.enc_a
        else:
            conditions["A_plus_B_in_C4perp"] = bool(inside.all())
        if not (containment and inside.all()):  # else no physical failure
            # A dual(C2) vector outside dual(C4) spoils every pair, psi_a = 0 first.
            witness = (_unit(qa.k, _last(~inside) if containment else None), _unit(qa.k))
    return _report("CNOT", qa, qb, conditions, mode=mode, witness=witness)


def _cz_matrices(qa: CssCode, qb: CssCode):
    """S = x_stab_A x_stab_B^T, alpha = x_stab_B A^T, beta = x_stab_A B^T and M = A B^T + I
    (None for unequal k): (psi_a, psi_b) fails CZ iff S != 0, alpha psi_a != 0,
    beta psi_b != 0 or psi_a M psi_b = 1."""
    s = (qa.x_stab @ qb.x_stab.T).a
    alpha = (qb.x_stab @ qa.enc_a.T).a
    beta = (qa.x_stab @ qb.enc_a.T).a
    m = (qa.enc_a @ qb.enc_a.T).a ^ np.eye(qa.k, dtype=np.uint8) if qa.k == qb.k else None
    return s, alpha, beta, m


def check_cz_transversal(qa: CssCode, qb: CssCode) -> TransversalityReport:
    """Decide whether physical pairwise CZ acts as logical pairwise CZ.

    Symmetric in the two codes.  True iff dual(C2) is orthogonal to
    dual(C4), the representatives of each code are orthogonal to the
    other code's X-stabilizer group, and A @ B^T = I.
    """
    _require_same_length(qa, qb)
    s, alpha, beta, m = _cz_matrices(qa, qb)
    conditions = {
        "C2perp_orth_C4perp": not s.any(),
        "A_orth_C4perp": not alpha.any(),
        "C2perp_orth_B": not beta.any(),
        "ABt_is_identity": m is not None and not m.any(),
    }
    witness: Witness | None = None
    if m is not None and not all(conditions.values()):
        k = qa.k
        if s.any():
            witness = (_unit(k), _unit(k))
        elif beta.any():
            witness = (_unit(k), _unit(k, _last(beta.any(axis=0))))
        else:
            i = _last(alpha.any(axis=0) | m.any(axis=1))
            witness = (_unit(k, i), _unit(k, None if alpha[:, i].any() else _last(m[i])))
    return _report("CZ", qa, qb, conditions, witness=witness)


def check_cz_sufficient(qa: CssCode, qb: CssCode) -> TransversalityReport:
    """Containment-style sufficient conditions for CZ transversality.

    Branch 1: rows of A lie in C4 and C3 is contained in C2.
    Branch 2: C1 is contained in C4 and rows of B lie in C2.
    Either branch, together with A @ B^T = I, forces all the exact
    conditions of check_cz_transversal, so a true verdict here implies
    a true verdict there.  (For well-formed code pairs the implication
    is in fact an equivalence; this checker exists because whole-space
    containments are easier to audit by hand than the generator-level
    identities, and it reports which branch applies.)
    """
    _require_same_length(qa, qb)
    _, alpha, beta, m = _cz_matrices(qa, qb)
    pairing = m is not None and not m.any()
    conditions = {
        "A_in_C4": not alpha.any(),
        "C3_in_C2": gf2.subspace_leq(qb.c1.gen, qa.c2.gen),
        "C1_in_C4": gf2.subspace_leq(qa.c1.gen, qb.c2.gen),
        "B_in_C2": not beta.any(),
        "ABt_is_identity": pairing,
    }
    branch1 = conditions["A_in_C4"] and conditions["C3_in_C2"] and pairing
    branch2 = conditions["C1_in_C4"] and conditions["B_in_C2"] and pairing
    conditions |= {"sufficient_branch_1": branch1, "sufficient_branch_2": branch2}
    return _report("CZ", qa, qb, conditions, verdict=branch1 or branch2, mode="sufficient")


def make_mirrored_pair(g1_perp: BitMatrix, g2_perp: BitMatrix) -> tuple[CssCode, CssCode]:
    """Mirrored CSS pair: the second code swaps the first one's X/Z checks.

    Code 1 has X stabilizers from g2_perp and Z stabilizers from
    g1_perp; code 2 uses g1_perp for X and g2_perp for Z, so its spaces
    satisfy C4 = C1 and C3 = C2.  Requires the two row spaces to be
    mutually orthogonal (otherwise no CSS code exists).
    """
    if g1_perp.cols != g2_perp.cols:
        raise DimensionMismatchError("check matrices must share the block length")
    if (g1_perp @ g2_perp.T).a.any():
        raise ContainmentError("row spaces are not mutually orthogonal; not a valid CSS pair")
    code1 = make_css_from_stabilizers(x_stab=g2_perp, z_stab=g1_perp, name="mirrored-1")
    code2 = make_css_from_stabilizers(x_stab=g1_perp, z_stab=g2_perp, name="mirrored-2")
    return code1, code2


def is_mirrored_pair(q1: CssCode, q2: CssCode) -> bool:
    return (
        q1.n == q2.n
        and gf2.spans_equal(q1.x_stab, q2.z_stab)
        and gf2.spans_equal(q1.z_stab, q2.x_stab)
    )


def repair_mirrored_encodings(q1: CssCode, q2: CssCode) -> tuple[CssCode, CssCode]:
    """The mirrored pair re-encoded so that A' @ B^T = I, with A' = W @ A.

    Only the first code changes; the second keeps its encoding B.  The
    two codes swap their check matrices, so they share k.  The
    pairing U = A @ B^T of a valid mirrored pair is always
    invertible: a dependency among its rows would put a nonzero C1
    codeword orthogonal to all of C3 = C2, i.e. inside dual(C2), which
    contradicts the representatives being independent modulo dual(C2).
    A singular U therefore signals a construction bug, not bad input.
    """
    if not is_mirrored_pair(q1, q2):
        raise ContainmentError("codes do not form a mirrored pair")
    u = q1.enc_a @ q2.enc_a.T
    try:
        w = gf2.right_identity_transform(u)
    except SingularMatrixError as exc:
        raise RuntimeError(
            "mirrored pair produced a singular logical pairing; this breaks an internal "
            "invariant and indicates a construction bug"
        ) from exc
    return with_encoding(q1, w @ q1.enc_a), q2


def audit_mirror_claims(z_stab_a: BitMatrix, x_stab_a: BitMatrix,
                        claimed_x_stab_b: BitMatrix,
                        claimed_enc_b: BitMatrix | None = None) -> list[str]:
    """Cross-check hand-written matrices against the mirrored structure.

    Returns a list of human-readable inconsistencies (empty when the
    claims hold): the second code's X stabilizers must span the first
    code's Z-stabilizer space, and any claimed representatives for the
    second code must be orthogonal to the first code's X stabilizers
    (they are supposed to be C2 codewords).
    """
    findings: list[str] = []
    if not gf2.spans_equal(claimed_x_stab_b, z_stab_a):
        findings.append(
            "claimed X stabilizers of the second code do not span the first code's "
            "Z-stabilizer space, so the pair is not mirrored (C4 != C1)"
        )
    if claimed_enc_b is not None:
        for i in np.flatnonzero((claimed_enc_b @ x_stab_a.T).a.any(axis=1)):
            findings.append(
                f"claimed representative row {i + 1} of the second code is not orthogonal "
                f"to the first code's X stabilizers, so it lies outside C2 = C3"
            )
    return findings


# -- brute-force oracles ----------------------------------------------------------


def _oracle_precheck(qa: CssCode, qb: CssCode) -> None:
    _require_same_length(qa, qb)
    if qa.k != qb.k:
        raise ValueError(f"oracle needs equal logical dimensions, got {qa.k} vs {qb.k}")
    if qa.n > 64:
        raise CapacityError(f"the oracle needs n <= 64 to pack a block into one word, "
                            f"got n = {qa.n}")
    exponent = 2 * qa.k + qa.x_stab.rows + qb.x_stab.rows
    if exponent > _ORACLE_MAX_ENTRY_BITS:
        raise CapacityError(f"the oracle needs 2^{exponent} joint entries (4^{qa.k} basis pairs "
                            f"of 2^{qa.x_stab.rows} x 2^{qb.x_stab.rows} support entries); "
                            f"the limit is 2^{_ORACLE_MAX_ENTRY_BITS}")


def _coset_supports(q: CssCode) -> tuple[np.ndarray, np.floating]:
    """Supports of q's 2^k encoded basis kets, row i sorted, and their common amplitude.

    Ket i is uniform over the coset x_i + span(x_stab), x_i the sum of
    the enc_a rows that logical vector i selects.
    """
    stab, reps = (gf2.span(np.array(gf2._row_words(m.a), dtype=np.uint64))
                  for m in (q.x_stab, q.enc_a))
    supports = reps[:, None] ^ stab
    supports.sort(axis=1)
    return supports, 1.0 / np.sqrt(stab.size)


def _gate_matches(va: np.ndarray, wb: np.ndarray, cz: bool, expected) -> bool:
    """Whether the gate takes every joint entry (v, w) of va x wb to the expected state.

    CNOT maps (v, w) to (v, v ^ w), so each v ^ wb must be the sorted
    target support `expected`.  CZ keeps (v, w) with sign
    (-1)^popcount(v & w), whose parity must be `expected` throughout.
    """
    step = max(1, min(va.size, _ORACLE_BLOCK_ENTRIES // wb.size))
    block = np.empty((step, wb.size), dtype=np.uint64)
    for lo in range(0, va.size, step):
        v = va[lo:lo + step, None]
        gated = block[:v.shape[0]]
        if cz:
            np.bitwise_and(v, wb, out=gated)
            if np.any((np.bitwise_count(gated) & 1) != expected):
                return False
        else:
            np.bitwise_xor(v, wb, out=gated)
            gated.sort(axis=1)
            if not np.all(gated == expected):
                return False
    return True


def _oracle(qa: CssCode, qb: CssCode, cz: bool) -> OracleResult:
    """Both oracles' loop.  With kets in lexicographic order, psi_a + psi_b
    is index i ^ j and psi_a . psi_b is the parity of i & j.

    Every joint entry of a basis pair has amplitude a*b, so a pair that
    fails deviates by a*b (CNOT: an entry present on one side only) or
    2*a*b (CZ: a sign flip), as in a dense amplitude comparison.
    """
    _oracle_precheck(qa, qb)
    k = qa.k
    supports_a, amp_a = _coset_supports(qa)
    supports_b, amp_b = _coset_supports(qb)
    for i, va in enumerate(supports_a):
        for j, wb in enumerate(supports_b):
            expected = (i & j).bit_count() & 1 if cz else supports_b[i ^ j]
            if not _gate_matches(va, wb, cz, expected):
                joint = float(amp_a * amp_b)
                return OracleResult(False, (_bits(i, k), _bits(j, k)),
                                    2 * joint if cz else joint, i * 2**k + j + 1)
    return OracleResult(True, None, 0.0, 4**k)


def oracle_cnot(qa: CssCode, qb: CssCode) -> OracleResult:
    """Exhaustive state-vector certification of pairwise-CNOT transversality.

    For every logical basis pair (psi_a, psi_b), in lexicographic order,
    compares gating the encoded states against encoding the gated
    logicals |psi_a> (x) |psi_a + psi_b>: every control support entry v
    must take the target support to v ^ support(psi_b) =
    support(psi_a + psi_b).  The first pair that differs is the witness.
    Work and capacity follow the 2^(2k + rx_A + rx_B) joint entries
    visited.
    """
    return _oracle(qa, qb, cz=False)


def oracle_cz(qa: CssCode, qb: CssCode) -> OracleResult:
    """Exhaustive state-vector certification of pairwise-CZ transversality.

    Basis pairs are compared in the same order with the exact sign
    (-1)^(psi_a . psi_b), which the parity of v & w must match on every
    joint support entry (v, w); the first pair that differs is the
    witness.  Work and capacity follow the 2^(2k + rx_A + rx_B) joint
    entries visited.
    """
    return _oracle(qa, qb, cz=True)


def find_cnot_encoding(qa: CssCode, qb: CssCode) -> BitMatrix | None:
    """A single representative matrix usable by both codes, if one exists.

    Installing it as the encoding of both codes makes the pair
    CNOT-transversal.  One exists exactly when the codes share k,
    dual(C2) ⊆ dual(C4), C1 ⊆ C3 and C1 ∩ dual(C4) = dual(C2): a shared
    A* spans C1 modulo dual(C2) inside C3 and stays independent modulo
    dual(C4).  Then qa's own representatives encode qb too, so they are
    returned; otherwise None.
    """
    _require_same_length(qa, qb)
    if qa.k != qb.k or not gf2.subspace_leq(qa.x_stab, qb.x_stab):
        return None
    try:
        with_encoding(qb, qa.enc_a)
    except EncodingError:
        return None
    return qa.enc_a
