"""Classical and CSS code construction, distances, stabilizers, file I/O."""

import tracemalloc
import types
from itertools import product

import numpy as np
import pytest

import csspair
from csspair import (
    BitMatrix,
    ClassicalCode,
    CssCode,
    dual_basis,
    logical_z_representatives,
    make_classical,
    make_css,
    make_css_from_stabilizers,
    load_css,
    min_distance,
    parse_css_text,
    with_encoding,
)
from csspair import gf2, sampling
from csspair.codes import css_to_text
from csspair.errors import CapacityError, ContainmentError, EncodingError, ParseError

from conftest import FIXTURES, HAMMING_ROWS, build_pair7_a, build_pair7_b


def brute_force_distance(code):
    """Independent oracle: scan every vector of F_2^n for membership."""
    best = code.n
    for bits in product((0, 1), repeat=code.n):
        vec = np.array(bits, dtype=np.uint8)
        if not vec.any():
            continue
        if gf2.solve_row(code.gen, vec) is not None:
            best = min(best, int(vec.sum()))
    return best


def test_package_exports_exactly_its_public_names():
    public = {name for name, value in vars(csspair).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(csspair.__all__)
    assert len(csspair.__all__) == len(set(csspair.__all__))


def test_make_classical_identity():
    code = make_classical(BitMatrix.identity(3))
    assert (code.n, code.k) == (3, 3)
    assert not code.was_reduced


def test_make_classical_pair7_x_checks():
    code = make_classical(BitMatrix.from_strings(["1100000", "0101111"]))
    assert (code.n, code.k) == (7, 2)


def test_make_classical_repetition():
    code = make_classical(BitMatrix([[1, 1, 1]]))
    assert (code.n, code.k) == (3, 1)
    assert min_distance(code) == 3


def test_make_classical_reduces_dependent_rows():
    code = make_classical(BitMatrix.from_strings(["110", "011", "101"]))
    assert code.k == 2
    assert code.was_reduced
    # kept rows are the original leading independent ones
    assert code.gen.row_strings() == ["110", "011"]


def test_min_distance_hamming(hamming_code):
    assert min_distance(hamming_code) == 3
    assert brute_force_distance(hamming_code) == 3


def test_min_distance_full_space():
    assert min_distance(make_classical(BitMatrix.identity(5))) == 1


# Generator shapes (k, n) per seed; the last three cross the byte boundary of packed rows.
BRUTE_FORCE_SHAPES = [(3, 6)] * 4 + [(5, 9), (8, 12), (12, 12)]


@pytest.mark.parametrize("seed", range(len(BRUTE_FORCE_SHAPES)))
def test_min_distance_matches_brute_force(seed):
    rng = np.random.default_rng(400 + seed)
    m = BitMatrix(rng.integers(0, 2, size=BRUTE_FORCE_SHAPES[seed], dtype=np.uint8))
    code = make_classical(m)
    assert min_distance(code) == brute_force_distance(code)


def test_min_distance_twenty_mixed_repetition_blocks():
    """Twenty [10,1,10] blocks mixed by an invertible W: d = 10, in well under 1 MiB."""
    rng = np.random.default_rng(2020)
    while True:
        w = BitMatrix(rng.integers(0, 2, size=(20, 20), dtype=np.uint8))
        if gf2.rank(w) == 20:
            break
    blocks = BitMatrix(np.kron(np.eye(20, dtype=np.uint8), np.ones((1, 10), dtype=np.uint8)))
    code = ClassicalCode(w @ blocks)
    assert (code.k, code.n) == (20, 200)
    tracemalloc.start()
    try:
        d = min_distance(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d == 10
    assert peak < 1 << 20


def test_min_distance_capacity():
    code = ClassicalCode(BitMatrix.identity(21))
    with pytest.raises(CapacityError):
        min_distance(code)


def test_make_css_pair7_logical_dimension():
    qa = build_pair7_a()
    assert (qa.n, qa.k) == (7, 2)
    assert qa.c1.k == 4 and qa.c2.k == 5


def test_make_css_steane(hamming_code):
    q = make_css(hamming_code, make_classical(BitMatrix.from_strings(HAMMING_ROWS)))
    assert (q.n, q.k) == (7, 1)
    assert min(min_distance(q.c1), min_distance(q.c2)) == 3


def test_make_css_rejects_repetition_pair():
    rep = make_classical(BitMatrix([[1, 1, 1]]))
    rep2 = make_classical(BitMatrix([[1, 1, 1]]))
    with pytest.raises(ContainmentError):
        make_css(rep, rep2)


def test_make_css_validates_supplied_encoding():
    qa = build_pair7_a()
    with pytest.raises(EncodingError):  # wrong row count
        make_css(qa.c1, qa.c2, enc_a=BitMatrix.from_strings(["0011011"]))
    with pytest.raises(EncodingError):  # row outside C1
        make_css(qa.c1, qa.c2, enc_a=BitMatrix.from_strings(["1000000", "0011011"]))
    with pytest.raises(EncodingError):  # rows dependent modulo dual(C2)
        make_css(qa.c1, qa.c2, enc_a=BitMatrix.from_strings(["0011011", "1111011"]))


def test_stabilizer_generators_steane(steane):
    assert (steane.x_stab.rows, steane.z_stab.rows) == (3, 3)


def test_stabilizer_generators_pair7():
    qa = build_pair7_a()
    assert (qa.x_stab.rows, qa.z_stab.rows) == (2, 3)


def test_trivial_full_space_code_has_no_generators():
    full = make_classical(BitMatrix.identity(4))
    q = make_css(full, make_classical(BitMatrix.identity(4)))
    assert q.k == 4
    assert q.x_stab.rows == q.z_stab.rows == 0


def test_css_invariants_hold():
    for q in (build_pair7_a(), build_pair7_b()):
        if q.x_stab.rows and q.z_stab.rows:
            assert (q.x_stab @ q.z_stab.T).is_zero()
        assert q.k + q.x_stab.rows + q.z_stab.rows == q.n
        if q.enc_a.rows and q.z_stab.rows:
            assert (q.enc_a @ q.z_stab.T).is_zero()


def test_logical_x_representatives_pair7():
    qa = build_pair7_a()
    assert qa.enc_a.row_strings() == ["0011011", "1011100"]


def test_logical_x_representatives_trivial_k0():
    # dual(C2) = C1: no logical qubits
    gen = BitMatrix.from_strings(["1100", "0011"])
    c1 = make_classical(gen)
    c2 = ClassicalCode(dual_basis(gen))
    q = make_css(c1, c2)
    assert q.k == 0
    assert q.enc_a.rows == 0


def test_steane_default_encoding_row(steane):
    row = steane.enc_a.row(0)
    assert gf2.solve_row(steane.c1.gen, row) is not None
    assert gf2.solve_row(steane.x_stab, row) is None  # not a stabilizer


def test_logical_z_representatives_pairing(steane):
    for q in (steane, build_pair7_a(), build_pair7_b()):
        lz = logical_z_representatives(q)
        assert (lz @ q.enc_a.T) == BitMatrix.identity(q.k)
        if q.x_stab.rows:
            assert (lz @ q.x_stab.T).is_zero()


@pytest.mark.parametrize("seed", range(20))
def test_logical_z_representatives_match_per_target_solves(seed):
    """One elimination for all k targets gives the rows of k separate solves."""
    rng = np.random.default_rng(700 + seed)
    for q in sampling.random_valid_pair(rng, int(rng.integers(4, 12))):
        pairing = q.c2.gen @ q.enc_a.T
        want = [(gf2.solve_row(pairing, target) @ q.c2.gen.a) % 2
                for target in np.eye(q.k, dtype=np.uint8)]
        lz = logical_z_representatives(q)
        assert lz == BitMatrix(np.array(want, dtype=np.uint8), cols=q.n)
        assert (lz @ q.enc_a.T) == BitMatrix.identity(q.k)


def test_logical_z_representatives_reject_degenerate_pairing():
    # Bypass the constructors' validation: the first representative row twice.
    q = build_pair7_a()
    bad = CssCode(q.c1, q.c2, BitMatrix(np.vstack([q.enc_a.a[:1]] * 2)), q.x_stab, q.z_stab)
    with pytest.raises(EncodingError, match="degenerate"):
        logical_z_representatives(bad)


def test_make_css_from_stabilizers_keeps_checks():
    xs = BitMatrix.from_strings(["1100000", "0101111"])
    zs = BitMatrix.from_strings(["1100100", "1110010", "1110001"])
    q = make_css_from_stabilizers(xs, zs)
    assert q.x_stab == xs
    assert q.z_stab == zs
    assert q.k == 2


def test_make_css_from_stabilizers_rejects_anticommuting():
    with pytest.raises(ContainmentError):
        make_css_from_stabilizers(BitMatrix([[1, 0, 0]]), BitMatrix([[1, 1, 0]]))


def test_css_file_round_trip(steane):
    text = css_to_text(steane, header="round trip")
    again = parse_css_text(text)
    assert again.c1.gen == steane.c1.gen
    assert again.c2.gen == steane.c2.gen
    assert again.enc_a == steane.enc_a


@pytest.mark.parametrize("text,msg", [
    ("[C1]\n1 3\n111\n", "missing required section"),
    ("[C1]\n1 3\n111\n[C1]\n1 3\n111\n", "duplicate"),
    ("[WAT]\n1 3\n111\n", "unknown section"),
    ("junk\n", "unexpected content"),
])
def test_css_file_errors(text, msg):
    with pytest.raises(ParseError, match=msg):
        parse_css_text(text)


def _rebased(rng, m):
    """Same row space as the full-rank m, different rows: a random invertible mix."""
    while True:
        w = BitMatrix(rng.integers(0, 2, size=(m.rows, m.rows), dtype=np.uint8))
        if gf2.rank(w) == m.rows:
            return w @ m


@pytest.mark.parametrize("seed", range(12))
def test_constructors_agree_with_make_css(seed):
    rng = np.random.default_rng(700 + seed)
    q = sampling.random_css_code(rng, int(rng.integers(4, 9)))
    xs = _rebased(rng, q.x_stab)
    zs = _rebased(rng, q.z_stab)
    built = make_css_from_stabilizers(xs, zs)
    ref = make_css(built.c1, built.c2)
    assert built.x_stab == xs and built.z_stab == zs  # supplied rows kept verbatim
    assert gf2.spans_equal(built.c1.gen, q.c1.gen) and gf2.spans_equal(built.c2.gen, q.c2.gen)
    assert gf2.spans_equal(built.x_stab, ref.x_stab) and gf2.spans_equal(built.z_stab, ref.z_stab)
    assert built.enc_a == ref.enc_a
    enc = sampling.scramble_encoding(rng, ref).enc_a
    assert make_css_from_stabilizers(xs, zs, enc_a=enc).enc_a == enc
    moved = with_encoding(built, enc)
    assert moved.enc_a == make_css(built.c1, built.c2, enc_a=enc).enc_a == enc
    assert moved.x_stab == xs and moved.z_stab == zs
    assert moved.c1 is built.c1 and moved.c2 is built.c2


@pytest.mark.parametrize("build", [
    lambda q, enc: make_css(q.c1, q.c2, enc_a=enc),
    lambda q, enc: with_encoding(q, enc),
    lambda q, enc: make_css_from_stabilizers(q.x_stab, q.z_stab, enc_a=enc),
], ids=["make_css", "with_encoding", "make_css_from_stabilizers"])
@pytest.mark.parametrize("rows,msg", [
    (["0011011"], "encoding has 1 rows, logical dimension is 2"),
    (["1000000", "0011011"], "encoding row 1 is not a C1 codeword"),
    (["0011011", "1111011"], "encoding rows are dependent modulo dual"),
])
def test_every_constructor_rejects_invalid_encodings(build, rows, msg):
    with pytest.raises(EncodingError, match=msg):
        build(build_pair7_a(), BitMatrix.from_strings(rows))


def test_encoding_error_names_first_row_outside_c1():
    q = build_pair7_a()
    rows = [q.enc_a.row_strings()[0], "1000000", "0100000"][:q.k]
    with pytest.raises(EncodingError, match="encoding row 2 is not a C1 codeword"):
        with_encoding(q, BitMatrix.from_strings(rows))


def test_a_code_load_eliminates_each_matrix_once(monkeypatch, tmp_path):
    """C1, C2 and dual(C2) are each eliminated once: at most 3 echelons per file, with
    or without an [A] section (the unshared load built 7), and dual(C2) <= C1 is
    tested once."""
    files = sorted(FIXTURES.glob("*.code"))
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        text = css_to_text(sampling.random_css_code(rng, int(rng.integers(4, 13))))
        files.append(tmp_path / f"seeded{seed}.code")
        files[-1].write_text(text if seed % 2 else text.split("[A]")[0])
    built = []
    init = gf2._Echelon.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(gf2._Echelon, "__init__", counted)
    containment = []
    leq = gf2.subspace_leq
    monkeypatch.setattr(gf2, "subspace_leq", lambda *args: containment.append(1) or leq(*args))
    for path in files:
        built.clear()
        containment.clear()
        q = load_css(path)
        assert 1 <= len(built) <= 3, (path.name, len(built))
        assert len(containment) == 1, path.name
        assert q.k == q.enc_a.rows
