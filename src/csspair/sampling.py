"""Seeded random generators for codes and code pairs.

Used by the property suites: every draw goes through a caller-supplied
numpy Generator so that failures are reproducible from the recorded
seed.  The pair samplers produce a controlled mix of transversal and
non-transversal inputs by drawing nested subspace chains.
"""

from __future__ import annotations

import numpy as np

from . import gf2
from .codes import ClassicalCode, CssCode, make_classical, make_css, with_encoding
from .gf2 import BitMatrix
from .transversality import make_mirrored_pair, repair_mirrored_encodings


def random_full_rank(rng: np.random.Generator, rows: int, cols: int) -> BitMatrix:
    """Uniformly random rows x cols binary matrix of full row rank."""
    if rows > cols:
        raise ValueError("cannot have more independent rows than columns")
    if rows == 0:
        return BitMatrix.empty(cols)
    while True:
        m = BitMatrix(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))
        if gf2.rank(m) == rows:
            return m


def extend_basis(rng: np.random.Generator, base: BitMatrix, extra: int) -> BitMatrix:
    """Append `extra` random rows keeping the stack full rank."""
    out = base
    for _ in range(extra):
        while True:
            row = BitMatrix(rng.integers(0, 2, size=(1, base.cols), dtype=np.uint8))
            candidate = BitMatrix.stack(out, row) if out.rows else row
            if gf2.rank(candidate) == candidate.rows:
                out = candidate
                break
    return out


def random_invertible(rng: np.random.Generator, k: int) -> BitMatrix:
    return random_full_rank(rng, k, k) if k else BitMatrix.empty(1)


def scramble_encoding(rng: np.random.Generator, q: CssCode) -> CssCode:
    """Re-encode with W @ A + M @ x_stab for random invertible W: same code,
    different (still valid) coset representatives."""
    k = q.k
    if k == 0:
        return q
    w = random_invertible(rng, k)
    enc = (w @ q.enc_a).a.copy()
    if q.x_stab.rows:
        mix = rng.integers(0, 2, size=(k, q.x_stab.rows), dtype=np.uint8)
        enc ^= (mix.astype(np.int64) @ q.x_stab.a.astype(np.int64) % 2).astype(np.uint8)
    return with_encoding(q, BitMatrix(enc))


def random_css_code(rng: np.random.Generator, n: int, k: int | None = None) -> CssCode:
    """One valid CSS code of length n (logical dimension k, default random)."""
    if k is None:
        k = int(rng.integers(1, max(2, n // 2)))
    r2 = int(rng.integers(1, n - k)) if n - k > 1 else 1
    dual_c2 = random_full_rank(rng, r2, n)
    c1_gen = extend_basis(rng, dual_c2, k)
    c1 = make_classical(c1_gen)
    c2 = ClassicalCode(gf2.dual_basis(dual_c2))
    return make_css(c1, c2)


def random_cnot_pair(rng: np.random.Generator, n: int,
                     shared_encoding: bool = True) -> tuple[CssCode, CssCode]:
    """Pair built on a nested chain dual(C2) ⊆ dual(C4) with C1 ⊆ C3.

    With shared_encoding=True the two codes reuse the same
    representative rows, which makes the pair CNOT-transversal; with
    False each code gets independently scrambled representatives (the
    pair then usually fails the encoding condition).  Needs n >= 3.
    """
    if n < 3:
        raise ValueError(f"a nested pair needs n >= 3, got n = {n}")
    while True:
        k = int(rng.integers(1, 3))
        if n - k < 2:
            continue  # no room for r2 >= 1 beside k (k = 2 at n = 3): redraw k
        r2 = int(rng.integers(1, n - k))
        extra = int(rng.integers(0, n - k - r2 + 1))
        if r2 + extra + k <= n:
            break
    dual_c2 = random_full_rank(rng, r2, n)
    dual_c4 = extend_basis(rng, dual_c2, extra)
    reps = _complement_rows(rng, dual_c4, k)
    c1_gen = BitMatrix.stack(dual_c2, reps)
    c3_gen = BitMatrix.stack(dual_c4, reps)
    code_a = make_css(make_classical(c1_gen), ClassicalCode(gf2.dual_basis(dual_c2)))
    code_b = make_css(make_classical(c3_gen), ClassicalCode(gf2.dual_basis(dual_c4)))
    if not shared_encoding:
        code_a = scramble_encoding(rng, code_a)
        code_b = scramble_encoding(rng, code_b)
    return code_a, code_b


def _complement_rows(rng: np.random.Generator, base: BitMatrix, count: int) -> BitMatrix:
    grown = extend_basis(rng, base, count)
    return BitMatrix(grown.a[base.rows:].copy())


def random_independent_pair(rng: np.random.Generator, n: int) -> tuple[CssCode, CssCode]:
    """Two unrelated codes with matching logical dimension."""
    k = int(rng.integers(1, 3))
    return random_css_code(rng, n, k), random_css_code(rng, n, k)


def random_mirrored_inputs(rng: np.random.Generator, n: int,
                           k: int | None = None) -> tuple[BitMatrix, BitMatrix]:
    """Check matrices (z side, x side) valid for make_mirrored_pair; both ranks are >= 1."""
    if n < 3:
        raise ValueError(f"mirrored inputs need n >= 3, got n = {n}")
    if k is not None and n - k < 2:
        raise ValueError(f"mirrored inputs need n - k >= 2, got n = {n}, k = {k}")
    if k is None:
        k = int(rng.integers(1, 3))
        while n - k < 2:  # no room for two check ranks beside k (k = 2 at n = 3): redraw
            k = int(rng.integers(1, 3))
    r1 = int(rng.integers(1, n - k))
    r2 = n - k - r1
    g1 = random_full_rank(rng, r1, n)
    ortho = gf2.dual_basis(g1)  # (n - r1) x n
    coeffs = random_full_rank(rng, r2, ortho.rows)
    g2 = coeffs @ ortho
    return g1, g2


def random_repaired_mirrored_pair(rng: np.random.Generator, n: int,
                                  k: int | None = None) -> tuple[CssCode, CssCode]:
    g1, g2 = random_mirrored_inputs(rng, n, k)
    q1, q2 = make_mirrored_pair(g1, g2)
    q1 = scramble_encoding(rng, q1)
    q2 = scramble_encoding(rng, q2)
    return repair_mirrored_encodings(q1, q2)


def random_valid_pair(rng: np.random.Generator, n: int) -> tuple[CssCode, CssCode]:
    """Mixed corpus draw: transversal, near-miss, unrelated, or mirrored."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return random_cnot_pair(rng, n, shared_encoding=True)
    if kind == 1:
        return random_cnot_pair(rng, n, shared_encoding=False)
    if kind == 2:
        return random_independent_pair(rng, n)
    return random_repaired_mirrored_pair(rng, n)
