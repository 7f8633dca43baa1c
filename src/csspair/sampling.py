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
    while True:
        m = BitMatrix(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))
        if gf2.rank(m) == rows:
            return m


def extend_basis(rng: np.random.Generator, base: BitMatrix, extra: int) -> BitMatrix:
    """Append `extra` random rows keeping the stack full rank."""
    return BitMatrix.stack(base, _complement_rows(rng, base, extra))


def _complement_rows(rng: np.random.Generator, base: BitMatrix, count: int) -> BitMatrix:
    """The rows `extend_basis` appends: random rows drawn until `count` have joined a copy
    of base's echelon, each independent of base and of the rows kept before it."""
    rank = gf2.rank(base)
    if count > base.cols - rank:
        raise ValueError(f"cannot extend a rank-{rank} base in {base.cols} columns "
                         f"by {count} independent rows")
    ech = gf2._echelon(base).copy()
    words: list[int] = []
    while len(words) < count:
        word = gf2._row_words(rng.integers(0, 2, size=(1, base.cols), dtype=np.uint8))[0]
        if ech.add(word):
            words.append(word)
    return BitMatrix._wrap(gf2._word_rows(words, base.cols))


def _css_from_x_checks(x_checks: BitMatrix, reps: BitMatrix) -> CssCode:
    """The CSS code with X-check basis x_checks and representatives reps:
    C1 = x_checks stacked over reps, C2 = dual(x_checks)."""
    c1 = make_classical(BitMatrix.stack(x_checks, reps))
    return make_css(c1, ClassicalCode(gf2.dual_basis(x_checks)))


def scramble_encoding(rng: np.random.Generator, q: CssCode) -> CssCode:
    """Re-encode with W @ A + M @ x_stab for random invertible W: same code,
    different (still valid) coset representatives."""
    enc = random_full_rank(rng, q.k, q.k) @ q.enc_a
    enc += BitMatrix(rng.integers(0, 2, size=(q.k, q.x_stab.rows), dtype=np.uint8)) @ q.x_stab
    return with_encoding(q, enc)


def random_css_code(rng: np.random.Generator, n: int, k: int | None = None) -> CssCode:
    """One valid CSS code of length n (logical dimension k, default random)."""
    if k is None:
        k = int(rng.integers(1, max(2, n // 2)))
    r2 = int(rng.integers(1, n - k)) if n - k > 1 else 1
    dual_c2 = random_full_rank(rng, r2, n)
    return _css_from_x_checks(dual_c2, _complement_rows(rng, dual_c2, k))


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
    k = int(rng.integers(1, 3))
    while n - k < 2:  # no room for r2 >= 1 beside k (k = 2 at n = 3): redraw k
        k = int(rng.integers(1, 3))
    r2 = int(rng.integers(1, n - k))
    extra = int(rng.integers(0, n - k - r2 + 1))
    dual_c2 = random_full_rank(rng, r2, n)
    dual_c4 = extend_basis(rng, dual_c2, extra)
    reps = _complement_rows(rng, dual_c4, k)
    code_a, code_b = _css_from_x_checks(dual_c2, reps), _css_from_x_checks(dual_c4, reps)
    if not shared_encoding:
        code_a, code_b = scramble_encoding(rng, code_a), scramble_encoding(rng, code_b)
    return code_a, code_b


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
