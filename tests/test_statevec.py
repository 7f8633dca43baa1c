"""State-vector layer: encodings, Pauli action, transversal gates, fidelity."""

from itertools import product

import numpy as np
import pytest

from csspair import (
    PauliOp,
    StateVector,
    apply_pauli,
    apply_transversal_cnot,
    apply_transversal_cz,
    encode_logical,
    fidelity,
    tensor,
)
from csspair.errors import CapacityError, DimensionMismatchError
from csspair.gf2 import int_to_vector, vector_to_int

from conftest import build_pair7_a


def random_state(rng, m):
    amp = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    return StateVector(m, amp / np.linalg.norm(amp))


def test_encode_zero_is_uniform_over_x_checks():
    qa = build_pair7_a()
    s = encode_logical(qa, [0, 0])
    support = np.nonzero(np.abs(s.amp) > 1e-14)[0]
    assert len(support) == 4  # |dual(C2)| = 2^2
    assert 0 in support
    assert np.allclose(s.amp[support], 0.5)


def test_encode_pair7_one_zero_support():
    qa = build_pair7_a()
    s = encode_logical(qa, [1, 0])
    support = {vector_to_int(int_to_vector(int(i), 7)) for i in
               np.nonzero(np.abs(s.amp) > 1e-14)[0]}
    base = vector_to_int(np.array([0, 0, 1, 1, 0, 1, 1]))
    shifts = [0b0000000, 0b1100000, 0b0101111, 0b1001111]
    assert support == {base ^ sh for sh in shifts}
    assert np.allclose(s.amp[sorted(support)], 0.5)


def test_encodings_are_orthonormal():
    qa = build_pair7_a()
    kets = [encode_logical(qa, psi) for psi in product((0, 1), repeat=qa.k)]
    gram = np.array([[np.vdot(a.amp, b.amp) for b in kets] for a in kets])
    assert np.allclose(gram, np.eye(len(kets)), atol=1e-14)


def test_encode_length_mismatch():
    qa = build_pair7_a()
    with pytest.raises(DimensionMismatchError):
        encode_logical(qa, [0, 1, 1])


def test_apply_pauli_identity():
    s = StateVector.basis_state(3, 0b101)
    out = apply_pauli(s, PauliOp(np.zeros(3), np.zeros(3)))
    assert np.array_equal(out.amp, s.amp)


def test_apply_pauli_x_on_first_qubit():
    s = StateVector.basis_state(1, 0)
    out = apply_pauli(s, PauliOp([1], [0]))
    assert np.allclose(out.amp, [0, 1])


def test_apply_pauli_z_before_x():
    # X^1 Z^1 |1> = X(-|1>) = -|0>
    s = StateVector.basis_state(1, 1)
    out = apply_pauli(s, PauliOp([1], [1]))
    assert np.allclose(out.amp, [-1, 0])


def test_apply_pauli_offset_embedding():
    # X on qubit 3 of a 4-qubit register: |0000> -> |0010>
    s = StateVector.basis_state(4, 0)
    out = apply_pauli(s, PauliOp([1], [0]), offset=2)
    assert np.allclose(out.amp, StateVector.basis_state(4, 0b0010).amp)


def test_apply_pauli_range_error():
    s = StateVector.basis_state(2, 0)
    with pytest.raises(DimensionMismatchError):
        apply_pauli(s, PauliOp([1, 1], [0, 0]), offset=1)


def test_stabilizers_fix_encoded_states():
    qa = build_pair7_a()
    zeros = np.zeros(qa.n, dtype=np.uint8)
    gens = [PauliOp(row, zeros) for row in qa.x_stab] + [PauliOp(zeros, row) for row in qa.z_stab]
    assert len(gens) == qa.n - qa.k
    for psi in product((0, 1), repeat=qa.k):
        ket = encode_logical(qa, psi)
        for gen in gens:
            out = apply_pauli(ket, gen)
            assert np.max(np.abs(out.amp - ket.amp)) < 1e-12


def test_cnot_copies_basis_state():
    v = 0b0110101
    joint = tensor(StateVector.basis_state(7, v), StateVector.basis_state(7, 0))
    out = apply_transversal_cnot(joint, 7)
    expected = tensor(StateVector.basis_state(7, v), StateVector.basis_state(7, v))
    assert np.array_equal(out.amp, expected.amp)


def test_cnot_fixes_all_zero():
    s = StateVector.basis_state(2, 0)
    assert np.array_equal(apply_transversal_cnot(s, 1).amp, s.amp)


def test_cnot_is_involution():
    rng = np.random.default_rng(11)
    s = random_state(rng, 6)
    twice = apply_transversal_cnot(apply_transversal_cnot(s, 3), 3)
    assert np.allclose(twice.amp, s.amp, atol=1e-15)


def test_cnot_odd_register_rejected():
    s = StateVector.basis_state(3, 0)
    with pytest.raises(DimensionMismatchError):
        apply_transversal_cnot(s, 1)


def test_cz_leaves_zero_control_alone():
    for w in range(4):
        joint = tensor(StateVector.basis_state(2, 0), StateVector.basis_state(2, w))
        out = apply_transversal_cz(joint, 2)
        assert np.array_equal(out.amp, joint.amp)


def test_cz_sign_on_11():
    s = StateVector.basis_state(2, 0b11)
    out = apply_transversal_cz(s, 1)
    assert np.allclose(out.amp, -s.amp)


def test_cz_is_involution():
    rng = np.random.default_rng(13)
    s = random_state(rng, 6)
    twice = apply_transversal_cz(apply_transversal_cz(s, 3), 3)
    assert np.allclose(twice.amp, s.amp, atol=1e-15)


def test_norm_preserved_by_all_operations():
    rng = np.random.default_rng(17)
    s = random_state(rng, 6)
    for out in (
        apply_transversal_cnot(s, 3),
        apply_transversal_cz(s, 3),
        apply_pauli(s, PauliOp(rng.integers(0, 2, 6), rng.integers(0, 2, 6))),
    ):
        assert abs(out.norm() - 1.0) < 1e-12


def test_fidelity_extremes():
    s0 = StateVector.basis_state(2, 0)
    s1 = StateVector.basis_state(2, 1)
    assert fidelity(s0, s0) == pytest.approx(1.0)
    assert fidelity(s0, s1) == pytest.approx(0.0)


def test_fidelity_of_distinct_logicals_is_zero():
    qa = build_pair7_a()
    zero = encode_logical(qa, [0, 0])
    one = encode_logical(qa, [1, 0])
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-15)


def test_fidelity_size_mismatch():
    with pytest.raises(DimensionMismatchError):
        fidelity(StateVector.basis_state(1, 0), StateVector.basis_state(2, 0))


def test_tensor_matches_direct_joint_construction():
    qa = build_pair7_a()
    qb = build_pair7_a()
    sa = encode_logical(qa, [1, 0])
    sb = encode_logical(qb, [0, 1])
    joint = tensor(sa, sb)
    direct = np.zeros(1 << 14, dtype=np.complex128)
    nz_a = np.nonzero(np.abs(sa.amp) > 1e-14)[0]
    nz_b = np.nonzero(np.abs(sb.amp) > 1e-14)[0]
    for ia in nz_a:
        for ib in nz_b:
            direct[(int(ia) << 7) | int(ib)] = sa.amp[ia] * sb.amp[ib]
    assert np.allclose(joint.amp, direct, atol=1e-15)


def test_capacity_limit_on_joint_register():
    s15 = StateVector.basis_state(15, 0)
    with pytest.raises(CapacityError):
        tensor(s15, s15)


def test_dump_nonzero_format():
    s = StateVector.basis_state(2, 0b10)
    assert s.dump_nonzero() == "2 1.0 0.0\n"
