"""Exact complex state vectors for brute-force verification.

This is the ground-truth layer: encoded logical states, Pauli
operators, and the pairwise transversal CNOT/CZ maps, all computed on
full 2^m amplitude arrays.  Global phase is tracked exactly (never
modded out) because the CZ comparisons are amplitude-exact.  The
transversality oracles do not run through these arrays; they compare
coset supports, and the tests check them against a dense reference
built from this module at small n.

Qubit 1 is the most significant bit of the basis index; a joint
register holds block A on qubits 1..n and block B on qubits n+1..2n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .codes import CssCode
from .errors import CapacityError, DimensionMismatchError

MAX_QUBITS = 28


@dataclass
class PauliOp:
    """X^a Z^b on n qubits: a are the X exponents, b the Z exponents."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.uint8) % 2
        self.b = np.asarray(self.b, dtype=np.uint8) % 2
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise DimensionMismatchError("PauliOp parts must be equal-length vectors")

    @property
    def n(self) -> int:
        return self.a.size


class StateVector:
    """Normalized pure state on num_qubits qubits."""

    __slots__ = ("num_qubits", "amp")

    def __init__(self, num_qubits: int, amp: np.ndarray, check: bool = True):
        if num_qubits > MAX_QUBITS:
            raise CapacityError(f"{num_qubits} qubits exceeds the {MAX_QUBITS}-qubit limit")
        amp = np.asarray(amp, dtype=np.complex128)
        if amp.shape != (1 << num_qubits,):
            raise DimensionMismatchError(
                f"amplitude array has length {amp.size}, want 2^{num_qubits}"
            )
        if check and abs(np.vdot(amp, amp).real - 1.0) > 1e-9:
            raise ValueError("state vector is not normalized")
        amp.setflags(write=False)
        self.num_qubits = num_qubits
        self.amp = amp

    @classmethod
    def basis_state(cls, num_qubits: int, index: int) -> "StateVector":
        amp = np.zeros(1 << num_qubits, dtype=np.complex128)
        amp[index] = 1.0
        return cls(num_qubits, amp, check=False)

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.amp, self.amp).real))

    def dump_nonzero(self, tol: float = 1e-14) -> str:
        """Debug listing: one `index amplitude_re amplitude_im` line per entry."""
        lines = []
        for idx in np.nonzero(np.abs(self.amp) > tol)[0]:
            a = complex(self.amp[idx])
            lines.append(f"{int(idx)} {a.real!r} {a.imag!r}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        support = int(np.count_nonzero(np.abs(self.amp) > 1e-14))
        return f"StateVector({self.num_qubits} qubits, {support} nonzero amplitudes)"


def _parity(values: np.ndarray) -> np.ndarray:
    """Bit parity of each entry of an unsigned integer array."""
    return (np.bitwise_count(values) & 1).astype(np.uint8)


def encode_logical(q: CssCode, psi) -> StateVector:
    """Encoded basis state of CSS code q for the logical vector psi.

    Uniform superposition with amplitude 1/sqrt(|dual(C2)|) over the
    coset (psi @ A) + dual(C2).
    """
    psi = np.asarray(psi, dtype=np.uint8).ravel()
    if psi.size != q.k:
        raise DimensionMismatchError(f"logical vector has length {psi.size}, code has k={q.k}")
    if q.n > MAX_QUBITS:
        raise CapacityError(f"n={q.n} exceeds the {MAX_QUBITS}-qubit limit")
    x = (psi @ q.enc_a.a) % 2
    members = [gf2.vector_to_int(x)]
    for row in q.x_stab:
        word = gf2.vector_to_int(row)
        members.extend(m ^ word for m in list(members))
    amp = np.zeros(1 << q.n, dtype=np.complex128)
    amp[np.array(members, dtype=np.int64)] = 1.0 / np.sqrt(len(members))
    return StateVector(q.n, amp, check=False)


def apply_pauli(s: StateVector, p: PauliOp, offset: int = 0) -> StateVector:
    """Apply X^{a_i} Z^{b_i} to qubits offset+1 .. offset+n of s.

    Z acts before X, so basis state |v> picks up (-1)^(b.v) and moves
    to |v + a>.
    """
    if offset < 0 or offset + p.n > s.num_qubits:
        raise DimensionMismatchError(
            f"operator on qubits {offset + 1}..{offset + p.n} does not fit in {s.num_qubits}"
        )
    shift = s.num_qubits - offset - p.n
    a_mask = gf2.vector_to_int(p.a) << shift
    b_mask = gf2.vector_to_int(p.b) << shift
    idx = np.arange(1 << s.num_qubits, dtype=np.uint64)
    signs = 1.0 - 2.0 * _parity(idx & np.uint64(b_mask)).astype(np.float64)
    out = np.empty_like(s.amp)
    out[idx ^ np.uint64(a_mask)] = signs * s.amp
    return StateVector(s.num_qubits, out, check=False)


def apply_transversal_cnot(s: StateVector, n: int) -> StateVector:
    """CNOT on every pair (i, n+i): |v>|w> -> |v>|v+w>.

    Qubits 1..n are the controls, n+1..2n the targets.
    """
    if s.num_qubits != 2 * n:
        raise DimensionMismatchError(f"need 2n = {2 * n} qubits, state has {s.num_qubits}")
    idx = np.arange(1 << (2 * n), dtype=np.uint64)
    mask = np.uint64((1 << n) - 1)
    v = idx >> np.uint64(n)
    w = idx & mask
    out = np.empty_like(s.amp)
    out[(v << np.uint64(n)) | (v ^ w)] = s.amp
    return StateVector(s.num_qubits, out, check=False)


def apply_transversal_cz(s: StateVector, n: int) -> StateVector:
    """CZ on every pair (i, n+i): amplitude of |v>|w> gains (-1)^(v.w)."""
    if s.num_qubits != 2 * n:
        raise DimensionMismatchError(f"need 2n = {2 * n} qubits, state has {s.num_qubits}")
    idx = np.arange(1 << (2 * n), dtype=np.uint64)
    mask = np.uint64((1 << n) - 1)
    v = idx >> np.uint64(n)
    w = idx & mask
    signs = 1.0 - 2.0 * _parity(v & w).astype(np.float64)
    return StateVector(s.num_qubits, signs * s.amp, check=False)


def tensor(s1: StateVector, s2: StateVector) -> StateVector:
    """Joint state with s1 on the high qubits and s2 on the low qubits."""
    if s1.num_qubits + s2.num_qubits > MAX_QUBITS:
        raise CapacityError(
            f"joint register of {s1.num_qubits + s2.num_qubits} qubits exceeds {MAX_QUBITS}"
        )
    return StateVector(s1.num_qubits + s2.num_qubits, np.kron(s1.amp, s2.amp), check=False)


def fidelity(s1: StateVector, s2: StateVector) -> float:
    """|<s1|s2>|^2."""
    if s1.num_qubits != s2.num_qubits:
        raise DimensionMismatchError("states live on different qubit counts")
    return float(abs(np.vdot(s1.amp, s2.amp)) ** 2)


def max_amplitude_deviation(s1: StateVector, s2: StateVector) -> float:
    if s1.num_qubits != s2.num_qubits:
        raise DimensionMismatchError("states live on different qubit counts")
    return float(np.max(np.abs(s1.amp - s2.amp)))
