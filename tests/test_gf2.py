"""GF(2) linear algebra: reductions, duals, cosets, inverses, text format."""

import numpy as np
import pytest

from csspair import gf2
from csspair.errors import ContainmentError, DimensionMismatchError, ParseError, SingularMatrixError
from csspair.gf2 import BitMatrix


def bitset_rank(rows, n_cols):
    """Independent rank routine over int bitsets, for cross-checking."""
    work = [int("".join(str(int(b)) for b in row), 2) for row in rows]
    rank = 0
    for col in range(n_cols):
        bit = 1 << (n_cols - 1 - col)
        pivot = next((i for i in range(rank, len(work)) if work[i] & bit), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        rank += 1
    return rank


def test_rref_already_independent():
    _, pivots, rk = gf2.rref(BitMatrix([[1, 1], [0, 1]]))
    assert rk == 2
    assert pivots == (0, 1)


def test_rref_zero_matrix():
    r, pivots, rk = gf2.rref(BitMatrix.zeros(3, 5))
    assert rk == 0
    assert pivots == ()
    assert r.is_zero()


def test_rref_five_row_stack_has_rank_five():
    m = BitMatrix.from_strings(
        ["1100000", "0101111", "0111010", "0011011", "1011100"])
    assert gf2.rank(m) == 5
    assert bitset_rank(m.a, 7) == 5


@pytest.mark.parametrize("seed", range(5))
def test_rref_preserves_row_space(seed):
    rng = np.random.default_rng(seed)
    m = BitMatrix(rng.integers(0, 2, size=(5, 9), dtype=np.uint8))
    r, _, _ = gf2.rref(m)
    assert gf2.subspace_leq(m, r) and gf2.subspace_leq(r, m)


def textbook_rref(m):
    """Gauss-Jordan elimination with row swaps, column by column, for cross-checking."""
    r = m.a.copy()
    pivots = []
    for col in range(r.shape[1]):
        top = len(pivots)
        hits = [i for i in range(top, r.shape[0]) if r[i, col]]
        if not hits:
            continue
        r[[top, hits[0]]] = r[[hits[0], top]]
        for i in range(r.shape[0]):
            if i != top and r[i, col]:
                r[i] ^= r[top]
        pivots.append(col)
    return r, tuple(pivots)


@pytest.mark.parametrize("seed", range(40))
def test_rref_matches_textbook_elimination(seed):
    rng = np.random.default_rng(900 + seed)
    for _ in range(10):
        rows, cols = int(rng.integers(0, 13)), int(rng.integers(1, 26))
        a = (rng.random((rows, cols)) < rng.random()).astype(np.uint8)
        if rows >= 3:
            a[rng.integers(rows)] = a[0] ^ a[1]  # a dependent row
        m = BitMatrix(a, cols=cols)
        r, pivots, rk = gf2.rref(m)
        want, want_pivots = textbook_rref(m)
        assert np.array_equal(r.a, want)
        assert pivots == want_pivots and rk == len(want_pivots)


def test_dual_basis_self_orthogonal_vector():
    d = gf2.dual_basis(BitMatrix([[1, 1]]))
    assert d == BitMatrix([[1, 1]])


def test_dual_basis_of_identity_is_empty():
    d = gf2.dual_basis(BitMatrix.identity(4))
    assert d.rows == 0 and d.cols == 4


def test_dual_basis_orthogonality_and_dimension():
    m = BitMatrix.from_strings(["1100000", "0101111"])
    d = gf2.dual_basis(m)
    assert d.rows == 5
    assert (m @ d.T).is_zero()
    assert gf2.rank(d) == 5


@pytest.mark.parametrize("seed", range(5))
def test_double_dual_recovers_row_space(seed):
    rng = np.random.default_rng(100 + seed)
    while True:
        m = BitMatrix(rng.integers(0, 2, size=(3, 8), dtype=np.uint8))
        if gf2.rank(m) == 3:
            break
    dd = gf2.dual_basis(gf2.dual_basis(m))
    assert gf2.spans_equal(m, dd)
    assert gf2.rank(m) + gf2.rank(gf2.dual_basis(m)) == m.cols


def test_subspace_leq_reflexive():
    m = BitMatrix.from_strings(["101", "011"])
    assert gf2.subspace_leq(m, m)


def test_subspace_leq_pair7_checks():
    small = BitMatrix.from_strings(["1100000", "0101111"])
    big = BitMatrix.from_strings(["1100000", "0101111", "0111010"])
    assert gf2.subspace_leq(small, big)
    assert not gf2.subspace_leq(big, small)


def test_subspace_leq_negative():
    assert not gf2.subspace_leq(BitMatrix([[1, 0, 0]]), BitMatrix([[0, 1, 0]]))


def test_subspace_leq_dimension_error():
    with pytest.raises(DimensionMismatchError):
        gf2.subspace_leq(BitMatrix([[1, 0]]), BitMatrix([[1, 0, 0]]))


def test_complement_basis_from_empty():
    comp = gf2.complement_basis(BitMatrix.empty(2), BitMatrix.identity(2))
    assert comp.rows == 2
    assert gf2.rank(comp) == 2


def test_complement_basis_of_self_is_empty():
    m = BitMatrix.from_strings(["110", "011"])
    assert gf2.complement_basis(m, m).rows == 0


def test_complement_basis_reproduces_listed_representatives():
    # When the superspace lists its representative rows explicitly, the
    # greedy scan returns them verbatim.
    sub = BitMatrix.from_strings(["1100000", "0101111"])
    sup = BitMatrix.from_strings(["1100000", "0101111", "0011011", "1011100"])
    comp = gf2.complement_basis(sub, sup)
    assert comp.row_strings() == ["0011011", "1011100"]


def test_complement_basis_requires_containment():
    with pytest.raises(ContainmentError):
        gf2.complement_basis(BitMatrix([[1, 0, 0]]), BitMatrix([[0, 1, 0]]))


@pytest.mark.parametrize("seed", range(5))
def test_complement_basis_stack_rank(seed):
    rng = np.random.default_rng(200 + seed)
    while True:
        sub = BitMatrix(rng.integers(0, 2, size=(2, 7), dtype=np.uint8))
        if gf2.rank(sub) == 2:
            break
    extra = BitMatrix(rng.integers(0, 2, size=(3, 7), dtype=np.uint8))
    sup = BitMatrix.stack(sub, extra)
    comp = gf2.complement_basis(sub, sup)
    stacked = BitMatrix.stack(sub, comp) if comp.rows else sub
    assert gf2.rank(stacked) == gf2.rank(sup)
    assert comp.rows == gf2.rank(sup) - gf2.rank(sub)


def test_right_identity_transform_identity():
    assert gf2.right_identity_transform(BitMatrix.identity(3)) == BitMatrix.identity(3)


def test_right_identity_transform_self_inverse():
    u = BitMatrix([[1, 1], [0, 1]])
    assert gf2.right_identity_transform(u) == u


@pytest.mark.parametrize("seed", range(5))
def test_right_identity_transform_multiplies_back(seed):
    rng = np.random.default_rng(300 + seed)
    while True:
        u = BitMatrix(rng.integers(0, 2, size=(4, 4), dtype=np.uint8))
        if gf2.rank(u) == 4:
            break
    w = gf2.right_identity_transform(u)
    assert (w @ u) == BitMatrix.identity(4)


def test_right_identity_transform_singular():
    with pytest.raises(SingularMatrixError):
        gf2.right_identity_transform(BitMatrix([[1, 1], [1, 1]]))


def test_solve_row_membership():
    m = BitMatrix.from_strings(["1100", "0110"])
    coeffs = gf2.solve_row(m, [1, 0, 1, 0])
    assert coeffs is not None
    assert np.array_equal((coeffs @ m.a) % 2, [1, 0, 1, 0])
    assert gf2.solve_row(m, [0, 0, 0, 1]) is None


@pytest.mark.parametrize("seed", range(5))
def test_right_identity_transform_tall(seed):
    """W @ U = I on a tall U, row i equal to the free-coordinates-zero solve of e_i."""
    rng = np.random.default_rng(310 + seed)
    while True:
        u = BitMatrix(rng.integers(0, 2, size=(4 + seed, 3), dtype=np.uint8))
        if gf2.rank(u) == 3:
            break
    w = gf2.right_identity_transform(u)
    assert (w.rows, w.cols) == (3, u.rows)
    assert (w @ u) == BitMatrix.identity(3)
    for row, target in zip(w, np.eye(3, dtype=np.uint8)):
        assert np.array_equal(row, gf2.solve_row(u, target))


def test_right_identity_transform_wide_is_a_dimension_error():
    with pytest.raises(DimensionMismatchError):
        gf2.right_identity_transform(BitMatrix.from_strings(["110", "011"]))


def test_right_identity_transform_tall_with_dependent_columns():
    with pytest.raises(SingularMatrixError):
        gf2.right_identity_transform(BitMatrix.from_strings(["110", "011", "101", "000"]))


def test_solve_row_on_zero_rows():
    empty = BitMatrix.empty(4)
    coeffs = gf2.solve_row(empty, [0, 0, 0, 0])
    assert coeffs is not None and coeffs.shape == (0,)
    assert gf2.solve_row(empty, [0, 1, 0, 0]) is None


@pytest.mark.parametrize("dtype, shape", [(np.int64, ()), (np.uint64, ()), (np.uint8, (3,))])
def test_span_lists_every_subset_sum(dtype, shape):
    """Entry i of span(rows) XORs the rows whose bits spell i, first row most significant."""
    rng = np.random.default_rng(5)
    for r in range(5):
        words = rng.integers(0, 256, size=(r, *shape)).astype(dtype)
        out = gf2.span(words)
        assert out.dtype == dtype and out.shape == (2**r, *shape)
        for i in range(2**r):
            want = np.zeros(shape, dtype=dtype)
            for j in range(r):
                if i >> (r - 1 - j) & 1:
                    want = want ^ words[j]
            assert np.array_equal(out[i], want)


def test_vector_int_round_trip():
    vec = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    assert gf2.vector_to_int(vec) == 0b10110
    assert np.array_equal(gf2.int_to_vector(0b10110, 5), vec)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 200])
def test_vector_int_round_trip_at_byte_boundaries(n):
    """The packers agree with a literal MSB-first sum and with _row_words row by row."""
    rng = np.random.default_rng(n)
    vecs = rng.integers(0, 2, size=(4, n), dtype=np.uint8)
    vecs[0], vecs[1] = 1, 0
    for vec, word in zip(vecs, gf2._row_words(vecs), strict=True):
        value = sum(int(b) << (n - 1 - i) for i, b in enumerate(vec))
        assert gf2.vector_to_int(vec) == word == value
        out = gf2.int_to_vector(value, n)
        assert out.dtype == np.uint8 and out.shape == (n,) and np.array_equal(out, vec)
        if n < 63:  # numpy integers, as the decoder tables hold, unpack the same way
            assert np.array_equal(gf2.int_to_vector(np.int64(value), n), vec)
    for wide in (1 << n, (1 << (n + 1)) - 1, -1):
        with pytest.raises(ValueError, match="does not fit"):
            gf2.int_to_vector(wide, n)


def test_rowspace_intersection():
    m1 = BitMatrix.from_strings(["1100", "0011"])
    m2 = BitMatrix.from_strings(["1100", "0101"])
    inter = gf2.rowspace_intersection(m1, m2)
    assert gf2.subspace_leq(inter, m1) and gf2.subspace_leq(inter, m2)
    assert gf2.rank(inter) == 1
    assert gf2.solve_row(inter, [1, 1, 0, 0]) is not None


def test_matrix_text_round_trip():
    m = BitMatrix.from_strings(["10110", "01011"])
    assert BitMatrix.from_text(m.to_text()) == m
    assert m.to_text().startswith("# format=1\n2 5\n")


def test_matrix_text_comments_allowed():
    text = "# a note\n\n2 3\n# another\n101\n011\n"
    assert BitMatrix.from_text(text) == BitMatrix.from_strings(["101", "011"])


@pytest.mark.parametrize("text,msg", [
    ("nonsense\n", "header"),
    ("2 3\n101\n", "expected 2"),
    ("1 3\n10\n", "bad matrix row"),
    ("1 3\n1a1\n", "bad matrix row"),
    ("1 3\n111\njunk\n", "line 3: unexpected content 'junk' after the matrix"),
    ("\u00b2 3\n111\n", "line 1: bad matrix header"),
])
def test_matrix_text_parse_errors(text, msg):
    with pytest.raises(ParseError, match=msg):
        BitMatrix.from_text(text)


@pytest.mark.parametrize("shape", [(0, 1), (0, 6), (1, 1), (5, 1), (3, 8), (6, 13), (2, 65)])
def test_row_strings_match_a_per_bit_join(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    m = BitMatrix(rng.integers(0, 2, size=shape, dtype=np.uint8), cols=shape[1])
    # dual_basis wraps a column slice of its unpacked words: a non-contiguous array.
    for mat in (m, gf2.dual_basis(m)):
        assert mat.row_strings() == ["".join(str(b) for b in row) for row in mat.a]


def test_bitmatrix_rejects_non_binary():
    with pytest.raises(ValueError):
        BitMatrix([[0, 2]])


def test_bitmatrix_is_immutable():
    m = BitMatrix([[1, 0]])
    with pytest.raises(ValueError):
        m.a[0, 0] = 0


# -- span primitives against brute-force span enumeration ------------------------


def span_of(m):
    """Every vector of the row space, as ints, by enumerating all row combinations."""
    words = [int("".join(str(int(b)) for b in row), 2) for row in m.a]
    span = {0}
    for w in words:
        span |= {s ^ w for s in span}
    return span


def greedy_rows(m, modulo):
    """Rows of m kept in order when each must leave the span of modulo + kept rows."""
    kept = []
    for row in m.a:
        acc = BitMatrix(np.vstack([modulo.a] + kept)) if kept else modulo
        if int("".join(map(str, row)), 2) not in span_of(acc):
            kept.append(row.reshape(1, -1))
    return BitMatrix(np.vstack(kept)) if kept else BitMatrix.empty(m.cols)


def random_span_operand(rng, cols):
    """0-5 random rows, sometimes with a dependent row and an all-zero row."""
    rows = [rng.integers(0, 2, size=cols, dtype=np.uint8) for _ in range(rng.integers(0, 6))]
    if len(rows) >= 2 and rng.random() < 0.5:
        i, j = rng.choice(len(rows), size=2, replace=False)
        rows.insert(int(rng.integers(0, len(rows) + 1)), rows[i] ^ rows[j])
    if rows and rng.random() < 0.3:
        rows.insert(int(rng.integers(0, len(rows) + 1)), np.zeros(cols, dtype=np.uint8))
    return BitMatrix(np.array(rows, dtype=np.uint8)) if rows else BitMatrix.empty(cols)


def span_operand_pairs(seed):
    """(sub, sup) pairs on n <= 8 columns; half have sub built inside sup."""
    rng = np.random.default_rng(500 + seed)
    cols = int(rng.integers(1, 9))
    sup = random_span_operand(rng, cols)
    sub = random_span_operand(rng, cols)
    if sup.rows and rng.random() < 0.5:
        coeffs = rng.integers(0, 2, size=(int(rng.integers(0, 5)), sup.rows), dtype=np.uint8)
        sub = BitMatrix(coeffs, cols=sup.rows) @ sup if coeffs.size else BitMatrix.empty(cols)
    return sub, sup


@pytest.mark.parametrize("seed", range(60))
def test_span_primitives_match_brute_force(seed):
    sub, sup = span_operand_pairs(seed)
    s_sub, s_sup = span_of(sub), span_of(sup)
    for m, s in ((sub, s_sub), (sup, s_sup)):
        assert 2 ** gf2.rank(m) == len(s)
    assert gf2.subspace_leq(sub, sup) == (s_sub <= s_sup)
    assert gf2.subspace_leq(sup, sub) == (s_sup <= s_sub)
    assert gf2.spans_equal(sub, sup) == (s_sub == s_sup)
    for m, mod in ((sup, sub), (sub, sup), (sup, BitMatrix.empty(sup.cols))):
        assert gf2.independent_rows(m, modulo=mod) == greedy_rows(m, mod)
    assert gf2.independent_rows(sup) == greedy_rows(sup, BitMatrix.empty(sup.cols))
    if s_sub <= s_sup:
        comp = gf2.complement_basis(sub, sup)
        assert comp == greedy_rows(sup, sub)
        assert span_of(BitMatrix(np.vstack([sub.a, comp.a]), cols=sup.cols)) == s_sup
        assert comp.rows == gf2.rank(sup) - gf2.rank(sub)
    else:
        with pytest.raises(ContainmentError):
            gf2.complement_basis(sub, sup)


def test_span_operands_cover_edge_cases():
    pairs = [span_operand_pairs(seed) for seed in range(60)]
    operands = [m for pair in pairs for m in pair]
    assert any(m.rows == 0 for m in operands)
    assert any(m.rows and not np.all(m.a.any(axis=1)) for m in operands)
    assert any(gf2.rank(m) < m.rows for m in operands)
    assert any(gf2.subspace_leq(sub, sup) and sub.rows for sub, sup in pairs)
    assert any(not gf2.subspace_leq(sub, sup) for sub, sup in pairs)


@pytest.mark.parametrize("seed", range(5))
def test_rows_in_span_answers_each_row(seed):
    rng = np.random.default_rng(seed)
    sup = BitMatrix(rng.integers(0, 2, size=(4, 9), dtype=np.uint8))
    inside = rng.integers(0, 2, size=(3, 4), dtype=np.uint8) @ sup.a % 2
    sub = BitMatrix(np.vstack([inside, rng.integers(0, 2, size=(3, 9), dtype=np.uint8)]))
    answer = gf2.rows_in_span(sub, sup)
    assert answer.dtype == bool and answer.shape == (6,)
    assert answer.tolist() == [gf2.subspace_leq(BitMatrix(row), sup) for row in sub]
    assert answer[:3].all()
    assert gf2.subspace_leq(sub, sup) == answer.all()


def test_rows_in_span_of_empty_matrices():
    assert gf2.rows_in_span(BitMatrix.empty(3), BitMatrix.identity(3)).shape == (0,)
    assert gf2.rows_in_span(BitMatrix([[0, 0, 0], [1, 0, 0]]), BitMatrix.empty(3)).tolist() == [
        True, False]
    with pytest.raises(DimensionMismatchError):
        gf2.rows_in_span(BitMatrix([[1, 0]]), BitMatrix([[1, 0, 0]]))


# -- the memoized echelon ----------------------------------------------------------


def _span_answers(sub, sup):
    """Every answer that seeds from or reads the echelon of sub or sup, in a fixed order."""
    def complement(m_sub, m_sup):
        try:
            return gf2.complement_basis(m_sub, m_sup)
        except ContainmentError:
            return "ContainmentError"

    return [
        lambda: gf2.independent_rows(sub, modulo=sup),
        lambda: gf2.independent_rows(sup, modulo=sub),
        lambda: complement(sub, sup),
        lambda: complement(sup, sub),
        lambda: gf2.rows_in_span(sub, sup).tolist(),
        lambda: gf2.rows_in_span(sup, sub).tolist(),
        lambda: (gf2.rank(sub), gf2.rank(sup), gf2.independent_rows(sub), gf2.independent_rows(sup)),
    ]


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("backwards", [False, True])
def test_memoized_echelons_are_not_changed_by_their_readers(seed, backwards):
    """Calls sharing two matrices, in either order, answer as calls on fresh copies do."""
    sub, sup = span_operand_pairs(seed)
    shared = _span_answers(sub, sup)
    fresh = [_span_answers(BitMatrix(sub.a), BitMatrix(sup.a))[i]() for i in range(len(shared))]
    order = range(len(shared))[::-1] if backwards else range(len(shared))
    assert [shared[i]() for i in order] == [fresh[i] for i in order]
    assert [answer() for answer in shared] == fresh


@pytest.mark.parametrize("shape", [(7, 7, 7), (64, 64, 64), (5, 257, 6), (40, 300, 30),
                                   (12, 600, 9), (0, 300, 4), (4, 300, 0), (3, 0, 5)])
def test_product_matches_int64_reference(shape):
    """Inner dimensions past 255 wrap the uint8 sums; parity must survive the wrap."""
    r, inner, c = shape
    rng = np.random.default_rng(inner + r)
    left = BitMatrix(rng.integers(0, 2, size=(r, inner), dtype=np.uint8))
    right = BitMatrix(rng.integers(0, 2, size=(inner, c), dtype=np.uint8))
    want = (left.a.astype(np.int64) @ right.a.astype(np.int64)) % 2
    got = left @ right
    assert got.a.dtype == np.uint8 and got.a.shape == (r, c)
    assert np.array_equal(got.a, want)
    ones = BitMatrix(np.ones((2, inner), dtype=np.uint8))
    assert np.array_equal((ones @ ones.T).a, np.full((2, 2), inner % 2))


def test_transpose_is_a_read_only_view():
    m = BitMatrix([[1, 0, 1], [0, 1, 1]])
    t = m.T
    assert t == BitMatrix([[1, 0], [0, 1], [1, 1]])
    assert np.shares_memory(t.a, m.a) and not t.a.flags.writeable
    assert t.T == m
