"""Classical [n,k,d] codes and the CSS codes built from pairs of them.

A CSS code is described here by two classical codes C1, C2 with
dual(C2) contained in C1.  Its X stabilizers are generated by a basis
of dual(C2), its Z stabilizers by a basis of dual(C1), and its logical
content by a k x n coset-representative matrix A whose rows pick one
C1-codeword per coset of dual(C2).  A is part of the code object: the
encoding bijection psi -> psi @ A decides transversality downstream,
so two CSS codes with equal spaces but different A are different codes
for our purposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import (
    CapacityError,
    ContainmentError,
    DimensionMismatchError,
    EncodingError,
    ParseError,
    SingularMatrixError,
)
from .gf2 import BitMatrix

MAX_DISTANCE_DIMENSION = 20


@dataclass(eq=False)
class ClassicalCode:
    """Linear [n, k] code given by a full-rank generator matrix.

    ``was_reduced`` flags that the constructor received dependent rows
    and dropped some.  `min_distance` computes the distance.
    """

    gen: BitMatrix
    was_reduced: bool = False

    @property
    def n(self) -> int:
        return self.gen.cols

    @property
    def k(self) -> int:
        return self.gen.rows

    def __repr__(self) -> str:
        return f"ClassicalCode[{self.n},{self.k}]"


def make_classical(gen: BitMatrix) -> ClassicalCode:
    """Wrap a generator matrix as a ClassicalCode.

    Full-rank input rows are kept verbatim (the row order feeds the
    deterministic coset-representative extraction).  Rank-deficient
    input is accepted: dependent rows are dropped by a greedy sweep and
    the result carries was_reduced=True.
    """
    if gen.rows == 0:
        raise ValueError("a classical code needs at least one generator row")
    independent = gf2.independent_rows(gen)
    if independent.rows == gen.rows:
        return ClassicalCode(gen)
    return ClassicalCode(independent, was_reduced=True)


def min_distance(code: ClassicalCode) -> int:
    """Minimum Hamming weight over the 2^k - 1 nonzero codewords, k <= 20.

    Meet in the middle: the span of the last ceil(k/2) packed generators is XORed
    with each sum of the others, in about 2^ceil(k/2) * ceil(n/8) bytes.
    """
    if code.k == 0:
        raise ValueError("a code without nonzero codewords has no distance")
    if code.k > MAX_DISTANCE_DIMENSION:
        raise CapacityError(
            f"min_distance enumerates 2^k codewords; k={code.k} exceeds {MAX_DISTANCE_DIMENSION}"
        )
    rows = np.packbits(code.gen.a, axis=1)
    half = code.k // 2
    low = gf2.span(rows[half:])
    best = code.n
    for i, word in enumerate(gf2.span(rows[:half])):
        weights = np.bitwise_count(low ^ word).sum(axis=1)
        # Entry 0 of the first sum is the zero codeword.
        best = min(best, int((weights[1:] if i == 0 else weights).min()))
    return best


@dataclass(eq=False)
class CssCode:
    """CSS code with a fixed encoding.

    Fields: the classical pair (c1, c2), X/Z stabilizer generator
    matrices, and the coset-representative matrix enc_a (k x n).  Each
    x_stab (z_stab) row is a pure-X (pure-Z) stabilizer with sign +1, and
    row i of enc_a is the physical X support of logical X on qubit i.
    """

    c1: ClassicalCode
    c2: ClassicalCode
    enc_a: BitMatrix
    x_stab: BitMatrix
    z_stab: BitMatrix
    name: str = ""

    @property
    def n(self) -> int:
        return self.c1.n

    @property
    def k(self) -> int:
        return self.enc_a.rows

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"CssCode[[{self.n},{self.k}]]{label}"


def make_css(c1: ClassicalCode, c2: ClassicalCode, enc_a: BitMatrix | None = None,
             name: str = "") -> CssCode:
    """Build CSS(c1, c2); requires dual(c2) ⊆ c1.

    The logical dimension is k = k1 + k2 - n.  When enc_a is omitted the
    coset representatives default to the greedy complement of dual(c2)
    inside c1, scanned in c1's row order.  A supplied enc_a is validated:
    k rows, each inside c1, independent modulo dual(c2).
    """
    if c1.n != c2.n:
        raise DimensionMismatchError(f"block lengths differ: {c1.n} vs {c2.n}")
    x_stab = gf2.dual_basis(c2.gen)
    if not gf2.subspace_leq(x_stab, c1.gen):
        raise ContainmentError(
            f"not a CSS pair: dual(C2) (dim {x_stab.rows}) is not contained in C1"
        )
    return _assemble(c1, c2, x_stab, gf2.dual_basis(c1.gen), enc_a, name)


def make_css_from_stabilizers(x_stab: BitMatrix, z_stab: BitMatrix,
                              enc_a: BitMatrix | None = None, name: str = "") -> CssCode:
    """Build a CSS code directly from X/Z stabilizer generator matrices.

    The given matrices are kept as the stabilizer bases (after dropping
    dependent rows), so constructions that are naturally phrased in
    terms of check matrices round-trip exactly.
    """
    if x_stab.cols != z_stab.cols:
        raise DimensionMismatchError("stabilizer matrices must share the block length")
    xs = gf2.independent_rows(x_stab)
    zs = gf2.independent_rows(z_stab)
    if not (xs @ zs.T).is_zero():
        raise ContainmentError("X and Z stabilizers do not commute (non-orthogonal rows)")
    c1 = ClassicalCode(gf2.dual_basis(zs))
    c2 = ClassicalCode(gf2.dual_basis(xs))
    return _assemble(c1, c2, xs, zs, enc_a, name)


def with_encoding(q: CssCode, enc_a: BitMatrix) -> CssCode:
    """Same code spaces, different (validated) coset representatives."""
    return _assemble(q.c1, q.c2, q.x_stab, q.z_stab, enc_a, q.name)


def _assemble(c1: ClassicalCode, c2: ClassicalCode, x_stab: BitMatrix, z_stab: BitMatrix,
              enc_a: BitMatrix | None, name: str) -> CssCode:
    """The CssCode of a valid CSS pair, given bases x_stab of dual(c2) and z_stab of dual(c1).

    Defaults or validates enc_a; both depend only on the spans of c1
    and x_stab, so every constructor yields the same encoding.  The
    callers have shown dual(c2) ⊆ c1, so the default is the complement
    of x_stab in c1 without proving that again.
    """
    k = c1.k + c2.k - c1.n
    if enc_a is None:
        enc_a = gf2.independent_rows(c1.gen, modulo=x_stab)
    else:
        if enc_a.cols != c1.n:
            raise EncodingError(f"encoding has {enc_a.cols} columns, code length is {c1.n}")
        if enc_a.rows != k:
            raise EncodingError(f"encoding has {enc_a.rows} rows, logical dimension is {k}")
        outside = np.flatnonzero(~gf2.rows_in_span(enc_a, c1.gen))
        if outside.size:
            raise EncodingError(f"encoding row {outside[0] + 1} is not a C1 codeword")
        if gf2.independent_rows(enc_a, modulo=x_stab).rows != k:
            raise EncodingError("encoding rows are dependent modulo dual(C2)")
    assert enc_a.rows == k, "complement dimension must equal k1 + k2 - n"
    return CssCode(c1=c1, c2=c2, enc_a=enc_a, x_stab=x_stab, z_stab=z_stab, name=name)


def logical_z_representatives(q: CssCode) -> BitMatrix:
    """Z-side partners of enc_a: rows lie in C2 and pair to identity.

    Returns L with L @ enc_a^T = I_k and every row orthogonal to the X
    stabilizers, so residual Z operators can be classified by pairing
    against enc_a and residual X operators by pairing against L.
    """
    try:
        w = gf2.right_identity_transform(q.c2.gen @ q.enc_a.T)
    except (DimensionMismatchError, SingularMatrixError) as exc:
        raise EncodingError("logical pairing is degenerate; encoding matrix is invalid") from exc
    return w @ q.c2.gen


# -- code file format -----------------------------------------------------------


def parse_css_text(text: str, name: str = "") -> CssCode:
    """Parse a code file with sections [C1], [C2] and optional [A].

    Each section holds one matrix in the text format of gf2.  Comments
    (# ...) and blank lines are allowed anywhere.
    """
    lines = gf2.content_lines(text)
    last = len(text.splitlines())
    sections: dict[str, BitMatrix] = {}
    i = 0
    while i < len(lines):
        lineno, content = lines[i]
        if not (content.startswith("[") and content.endswith("]")):
            raise ParseError(f"unexpected content {content!r} (want a [SECTION] header)", line=lineno)
        tag = content[1:-1].strip().upper()
        if tag not in {"C1", "C2", "A"}:
            raise ParseError(f"unknown section [{tag}]", line=lineno)
        if tag in sections:
            raise ParseError(f"duplicate section [{tag}]", line=lineno)
        sections[tag], i = gf2.parse_matrix_lines(lines, i + 1, last)
    for required in ("C1", "C2"):
        if required not in sections:
            raise ParseError(f"missing required section [{required}]", line=last or None)
    c1 = make_classical(sections["C1"])
    c2 = make_classical(sections["C2"])
    return make_css(c1, c2, enc_a=sections.get("A"), name=name)


def css_to_text(q: CssCode, header: str = "") -> str:
    """Serialize a CSS code to the sectioned file format (bit-exact)."""
    parts = [gf2.FORMAT_COMMENT]
    if header:
        parts.extend(f"# {line}" for line in header.splitlines())
    for tag, mat in (("C1", q.c1.gen), ("C2", q.c2.gen), ("A", q.enc_a)):
        parts.append(f"[{tag}]")
        parts.append(f"{mat.rows} {mat.cols}")
        parts.extend(mat.row_strings())
    return "\n".join(parts) + "\n"


def load_css(path, name: str = "") -> CssCode:
    """The code in file `path`, named `name` or the path; its errors lead with that name."""
    name = name or str(path)
    return gf2._parse_file(path, lambda text: parse_css_text(text, name=name), name)


def save_css(q: CssCode, path, header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(css_to_text(q, header=header))
