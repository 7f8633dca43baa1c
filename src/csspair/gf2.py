"""Exact dense linear algebra over GF(2).

All matrices are binary, stored row-major as numpy uint8 arrays with
addition meaning XOR.  This module supplies the reductions, duals,
subspace tests and coset extraction that the code-construction and
transversality layers are built on.  The intended regime is small block
lengths (n up to a few tens); everything is exact, nothing is sparse.

Vectors are 1-indexed in documentation and error messages (qubit 1 is
the leftmost column); storage is 0-indexed.  Packed, a row is an int word
with column 1 most significant; the packbits pair `_row_words` and
`_word_rows` packs matrices and vectors alike.  Matrix, code and config
files share one line scanner, `content_lines`.

All elimination runs on one incremental echelon basis over int
bitmasks.  Span questions (rank, containment, independence modulo a
subspace, complements) and the solves read it directly, the solved
rows carrying their coefficients as tag bits.  A matrix eliminates its
rows once: the echelon is memoized on the BitMatrix, and callers that
extend it work on a copy.  `rref` and `dual_basis` read one
back-substitution of it; `span` lists all XOR-sums.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ContainmentError, DimensionMismatchError, ParseError, SingularMatrixError

FORMAT_COMMENT = "# format=1"


class BitMatrix:
    """Immutable dense binary matrix.

    Entries are 0/1 uint8.  Any shape is a value, 0 rows or 0 columns
    included: the representatives of a code with no logical qubits are
    0 x n, and their transpose n x 0.  A 1-d input is one row; empty
    input given `cols` is 0 x cols.  `_ech` memoizes the echelon of the
    rows (see `_echelon`).
    """

    __slots__ = ("a", "_ech")

    def __init__(self, data, cols: int | None = None):
        arr = np.array(data, dtype=np.uint8, copy=True)
        if arr.size == 0 and cols is not None:
            arr = np.zeros((0, cols), dtype=np.uint8)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-d array, got ndim={arr.ndim}")
        if np.any(arr > 1):
            raise ValueError("entries must be 0 or 1")
        arr.setflags(write=False)
        self.a = arr
        self._ech = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BitMatrix":
        """A BitMatrix owning `arr`, a 2-d 0/1 uint8 array that gf2 has just
        allocated or a view of a read-only one: no copy and no second validation."""
        arr.setflags(write=False)
        m = cls.__new__(cls)
        m.a = arr
        m._ech = None
        return m

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def empty(cls, cols: int) -> "BitMatrix":
        """0 x cols matrix (spans only the zero space)."""
        return cls(np.zeros((0, cols), dtype=np.uint8))

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "BitMatrix":
        """Build from bitstrings like ["1100", "0110"]."""
        return cls([[int(c) for c in r] for r in rows])

    @staticmethod
    def stack(*parts: "BitMatrix") -> "BitMatrix":
        """Vertical concatenation; all parts must share a column count."""
        cols = {p.cols for p in parts}
        if len(cols) != 1:
            raise DimensionMismatchError(f"cannot stack matrices with column counts {sorted(cols)}")
        return BitMatrix._wrap(np.vstack([p.a for p in parts]))

    # -- basic protocol --------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def T(self) -> "BitMatrix":
        return BitMatrix._wrap(self.a.T)

    def row(self, i: int) -> np.ndarray:
        return self.a[i].copy()

    def __iter__(self):
        for i in range(self.rows):
            yield self.a[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.a.shape == other.a.shape and bool(np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.a.shape, self.a.tobytes()))

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if self.a.shape != other.a.shape:
            raise DimensionMismatchError("XOR requires equal shapes")
        return BitMatrix._wrap(np.bitwise_xor(self.a, other.a))

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # uint8 sums wrap mod 256, which keeps each entry's parity.
        return BitMatrix._wrap((self.a @ other.a) & 1)

    def is_zero(self) -> bool:
        return not np.any(self.a)

    def row_strings(self) -> list[str]:
        text = (self.a + ord("0")).tobytes().decode("ascii")
        return [text[i * self.cols:(i + 1) * self.cols] for i in range(self.rows)]

    def __repr__(self) -> str:
        if self.a.size == 0:
            return f"BitMatrix({self.rows}x{self.cols})"
        return "BitMatrix([" + ", ".join(self.row_strings()) + "])"

    # -- text format ------------------------------------------------------------

    def to_text(self) -> str:
        """Serialize to the matrix text format (bit-exact round trip)."""
        lines = [FORMAT_COMMENT, f"{self.rows} {self.cols}"]
        lines.extend(self.row_strings())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        """The one matrix of `text`; content after its rows is a ParseError at its line."""
        lines = content_lines(text)
        mat, end = parse_matrix_lines(lines, 0, len(text.splitlines()))
        if end < len(lines):
            lineno, content = lines[end]
            raise ParseError(f"unexpected content {content!r} after the matrix", line=lineno)
        return mat


def content_lines(text: str) -> list[tuple[int, str]]:
    """(line number from 1, stripped text) of each line that is not blank or a # comment."""
    return [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and not line.startswith("#")]


def parse_matrix_lines(lines: Sequence[tuple[int, str]], start: int,
                       last: int) -> tuple[BitMatrix, int]:
    """Parse one matrix from `content_lines` pairs beginning at index ``start``.

    Grammar: a header ``R C``, then R rows of exactly C characters from
    {0,1}.  Returns the matrix and the index one past its last row.
    Raises ParseError at the offending line; a matrix the text ends
    before is reported at `last`, the text's final line number.
    """
    if start >= len(lines):
        raise ParseError("missing matrix header", line=last or None)
    lineno, header = lines[start]
    fields = header.split()
    if len(fields) != 2 or not all(tok.isascii() and tok.isdigit() for tok in fields):
        raise ParseError(f"bad matrix header {header!r} (want 'ROWS COLS')", line=lineno)
    r, c = int(fields[0]), int(fields[1])
    if c < 1:
        raise ParseError("column count must be at least 1", line=lineno)
    body = lines[start + 1:start + 1 + r]
    for lineno, row in body:
        if len(row) != c or row.strip("01"):
            raise ParseError(f"bad matrix row {row!r} (want {c} characters from 0/1)", line=lineno)
    if len(body) < r:
        raise ParseError(f"expected {r} matrix rows, found {len(body)}", line=last)
    bits = np.frombuffer("".join(row for _, row in body).encode("ascii"), np.uint8) - ord("0")
    return BitMatrix._wrap(bits.reshape(r, c)), start + 1 + r


def _parse_file(path, parse, label=None):
    """parse(the UTF-8 text of file `path`).  A ValueError it raises, and a ParseError
    at the line of the first byte that is not UTF-8, keep their type and line, their
    message led by the file as the user named it, `label` or the path:
    'bad.mat line 3: ...', or 'bad.mat: ...' without a line."""
    raw = Path(path).read_bytes()
    try:
        return parse(_utf8(raw))
    except ValueError as exc:
        sep = " " if getattr(exc, "line", None) else ": "
        exc.args = (f"{label or path}{sep}{exc}",)
        raise


def _utf8(raw: bytes) -> str:
    """`raw` decoded as UTF-8; else a ParseError at the line of the first bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[:exc.start].decode("utf-8")
        raise ParseError(f"not UTF-8 text (byte 0x{raw[exc.start]:02x})",
                         line=len((before + "?").splitlines())) from None


def load_matrix(path) -> BitMatrix:
    return _parse_file(path, BitMatrix.from_text)


def save_matrix(mat: BitMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mat.to_text())


# -- bit/vector conversions (qubit 1 = most significant bit) -------------------


def vector_to_int(vec) -> int:
    """Pack a binary vector into an int, first entry most significant."""
    return _row_words(np.asarray(vec, dtype=np.uint8).reshape(1, -1))[0]


def int_to_vector(value: int, n: int) -> np.ndarray:
    """Unpack an int into an n-entry binary vector, MSB first."""
    value = int(value)
    if value >> n:
        raise ValueError("value does not fit in n bits")
    return _word_rows([value], n)[0]


# -- elimination core -----------------------------------------------------------


def _row_words(rows: np.ndarray) -> list[int]:
    """Rows of a 2-d 0/1 array as int bitmasks, column 1 most significant: one packbits call."""
    packed = np.packbits(rows, axis=1)
    pad = 8 * packed.shape[1] - rows.shape[1]
    return [int.from_bytes(row.tobytes(), "big") >> pad for row in packed]


def _word_rows(words: list[int], cols: int) -> np.ndarray:
    """Inverse of _row_words: int bitmasks back to a len(words) x cols array."""
    nbytes = (cols + 7) // 8
    buf = b"".join((word << (8 * nbytes - cols)).to_bytes(nbytes, "big") for word in words)
    return np.unpackbits(np.frombuffer(buf, np.uint8).reshape(len(words), nbytes), axis=1)[:, :cols]


def span(words) -> np.ndarray:
    """All 2^r XOR-sums of r packed rows, `words` of shape (r, ...) and any integer dtype:
    entry i sums the rows whose bits spell i, the first row most significant."""
    words = np.asarray(words)
    out = np.zeros((1 << len(words),) + words.shape[1:], dtype=words.dtype)
    for j, word in enumerate(words[::-1]):
        np.bitwise_xor(out[:1 << j], word, out=out[1 << j:2 << j])
    return out


class _Echelon:
    """Incremental echelon basis over int bitmasks (column 1 = MSB).  Words may carry
    `tag_bits` low tag bits below their data; a word joins only if its data survives.
    `joined[i]` says whether row i of `seed` grew the basis."""

    def __init__(self, seed: BitMatrix | None = None, tag_bits: int = 0):
        self.by_pivot: dict[int, int] = {}
        self.tag_bits = tag_bits
        words = [] if seed is None else _row_words(seed.a)
        self.joined = np.array([self.add(word) for word in words], dtype=bool)

    def copy(self) -> "_Echelon":
        """A basis to extend: the same span, no rows eliminated again."""
        new = _Echelon.__new__(_Echelon)
        new.by_pivot, new.tag_bits, new.joined = dict(self.by_pivot), self.tag_bits, self.joined
        return new

    def reduce(self, word: int) -> int:
        while word:
            piv = word.bit_length() - 1
            base = self.by_pivot.get(piv)
            if base is None:
                return word
            word ^= base
        return 0

    def add(self, word: int) -> bool:
        """Insert after reduction; returns True if the span grew."""
        red = self.reduce(word)
        if red >> self.tag_bits == 0:
            return False
        self.by_pivot[red.bit_length() - 1] = red
        return True


def _echelon(M: BitMatrix) -> _Echelon:
    """The echelon of M's rows, eliminated on first use and memoized on M (threads that
    race here build equal ones).  Read-only: a caller that adds words adds them to a `copy`."""
    if M._ech is None:
        M._ech = _Echelon(M)
    return M._ech


def _reduced_words(M: BitMatrix) -> dict[int, int]:
    """M's echelon back-substituted, rightmost pivot first: pivot bit -> reduced word,
    each word clear at every other pivot bit."""
    ech = _echelon(M)
    reduced: dict[int, int] = {}
    for piv in sorted(ech.by_pivot):
        word = ech.by_pivot[piv]
        for lower, row in reduced.items():
            if word >> lower & 1:
                word ^= row
        reduced[piv] = word
    return reduced


def rref(M: BitMatrix) -> tuple[BitMatrix, tuple[int, ...], int]:
    """Reduced row-echelon form over GF(2).

    Returns (R, pivot_cols, rank).  R has the same shape as M with zero
    rows at the bottom; pivot columns are 0-indexed.
    """
    reduced = _reduced_words(M)
    order = sorted(reduced, reverse=True)
    R = np.zeros_like(M.a)
    R[:len(order)] = _word_rows([reduced[piv] for piv in order], M.cols)
    return BitMatrix._wrap(R), tuple(M.cols - 1 - piv for piv in order), len(order)


def dual_basis(M: BitMatrix) -> BitMatrix:
    """Basis of the null space {v : M v^T = 0}, i.e. the dual code's generator.

    Returns cols - rank(M) independent rows; applying dual_basis twice
    recovers a basis of the original row space.  One row per free column,
    left to right: its unit vector, set also at each pivot column whose
    reduced row has a 1 in that free column.
    """
    reduced = _reduced_words(M)
    words = [1 << free | sum(1 << piv for piv, word in reduced.items() if word >> free & 1)
             for free in range(M.cols - 1, -1, -1) if free not in reduced]
    return BitMatrix._wrap(_word_rows(words, M.cols))


# -- span questions --------------------------------------------------------------


def rank(M: BitMatrix) -> int:
    return len(_echelon(M).by_pivot)


def rows_in_span(m_sub: BitMatrix, m_sup: BitMatrix) -> np.ndarray:
    """Per row of m_sub, whether it lies in the row space of m_sup (read off its echelon)."""
    if m_sub.cols != m_sup.cols:
        raise DimensionMismatchError(f"column counts differ: {m_sub.cols} vs {m_sup.cols}")
    ech = _echelon(m_sup)
    return np.array([ech.reduce(word) == 0 for word in _row_words(m_sub.a)], dtype=bool)


def subspace_leq(m_sub: BitMatrix, m_sup: BitMatrix) -> bool:
    """True iff every row of m_sub lies in the row space of m_sup: iff the echelon
    basis of m_sub does."""
    if m_sub.cols != m_sup.cols:
        raise DimensionMismatchError(f"column counts differ: {m_sub.cols} vs {m_sup.cols}")
    ech = _echelon(m_sup)
    return all(ech.reduce(word) == 0 for word in _echelon(m_sub).by_pivot.values())


def spans_equal(m1: BitMatrix, m2: BitMatrix) -> bool:
    return subspace_leq(m1, m2) and subspace_leq(m2, m1)


def independent_rows(M: BitMatrix, modulo: BitMatrix | None = None) -> BitMatrix:
    """Greedy sweep keeping the original rows that are independent (mod an
    optional subspace).  Row vectors are preserved, not reduced; without
    `modulo` these are the rows that joined M's echelon, and M itself when
    all did."""
    if modulo is None:
        keep = _echelon(M).joined
        if keep.all():
            return M
    else:
        ech = _echelon(modulo).copy()
        keep = np.array([ech.add(word) for word in _row_words(M.a)], dtype=bool)
    return BitMatrix._wrap(M.a[keep])


def complement_basis(m_sub: BitMatrix, m_sup: BitMatrix) -> BitMatrix:
    """Coset representatives generating rowspace(m_sup) / rowspace(m_sub).

    Scans the rows of m_sup in order and greedily keeps those that are
    independent modulo the span accumulated so far, so the result is
    deterministic and, when m_sup lists representative rows explicitly,
    reproduces them verbatim.  Stacking the result under m_sub spans
    m_sup.
    """
    if not subspace_leq(m_sub, m_sup):
        raise ContainmentError("complement_basis requires rowspace(m_sub) <= rowspace(m_sup)")
    return independent_rows(m_sup, modulo=m_sub)


def _solve(M: BitMatrix, targets: BitMatrix) -> np.ndarray | None:
    """C with C @ M = targets, or None if a target is outside the row space.  Row i of M
    carries its unit tag in M.rows low bits; only rows independent of the earlier ones
    join, so a reduced target's tag combines them alone: free coordinates are zero."""
    r = M.rows
    ech = _Echelon(tag_bits=r)
    for i, word in enumerate(_row_words(M.a)):
        ech.add(word << r | 1 << (r - 1 - i))
    tags = [ech.reduce(word << r) for word in _row_words(targets.a)]
    return None if any(tag >> r for tag in tags) else _word_rows(tags, r)


def right_identity_transform(U: BitMatrix) -> BitMatrix:
    """W with W @ U = I over GF(2), for U with independent columns: row i solves
    w @ U = e_i, free coordinates zero.  SingularMatrixError when rank(U) < U.cols."""
    if U.rows < U.cols:
        raise DimensionMismatchError(f"need at least as many rows as columns, got {U.rows}x{U.cols}")
    coeffs = _solve(U, BitMatrix.identity(U.cols))
    if coeffs is None:
        raise SingularMatrixError(f"{U.rows}x{U.cols} matrix has GF(2) rank {rank(U)} < {U.cols}")
    return BitMatrix(coeffs)


def solve_row(M: BitMatrix, target) -> np.ndarray | None:
    """Coefficients c with c @ M = target (row-vector convention).

    Returns None when target is outside the row space.  The solution uses
    the free coordinates set to zero, so it is deterministic.
    """
    t = np.asarray(target, dtype=np.uint8).ravel()
    if t.size != M.cols:
        raise DimensionMismatchError("target length must equal the column count")
    coeffs = _solve(M, BitMatrix(t))
    return None if coeffs is None else coeffs[0]


def rowspace_intersection(m1: BitMatrix, m2: BitMatrix) -> BitMatrix:
    """Basis of rowspace(m1) ∩ rowspace(m2), via duals."""
    if m1.cols != m2.cols:
        raise DimensionMismatchError("column counts differ")
    return dual_basis(BitMatrix.stack(dual_basis(m1), dual_basis(m2)))
