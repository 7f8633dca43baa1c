"""0-row and 0-column matrices are ordinary values, and so are the codes they describe.

A code with no logical qubits (k = 0) has a 0 x n representative
matrix, and a code with no X checks (r = 0) a 0 x n X-check matrix;
their products with a transpose are 0-row or 0-column matrices.  The
library results on such codes are pinned inline, and the CLI's stdout,
stderr and exit code on a [[4,0]] self-pair, a [[4,2]] code without X
checks and the mirrored pair of the [[4,0]] checks are pinned byte for
byte in `golden/empty_shapes.json`.  After an intended change,
regenerate that file with

    PYTHONPATH=src python tests/test_empty_shapes.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from csspair import (
    BitMatrix,
    cli,
    encode_logical,
    find_cnot_encoding,
    logical_z_representatives,
    make_css_from_stabilizers,
    make_mirrored_pair,
    parse_css_text,
    repair_mirrored_encodings,
    sampling,
)
from csspair.codes import css_to_text

GOLDEN = Path(__file__).resolve().parent / "golden" / "empty_shapes.json"

# [[4,0]]: X checks 1100/0110/0011, Z check 1111.  [[4,2]]: no X checks.
INPUTS = {
    "k0.code": "[C1]\n3 4\n1100\n0110\n0011\n[C2]\n1 4\n1111\n",
    "noxchecks.code": "[C1]\n2 4\n1100\n0011\n[C2]\n4 4\n1000\n0100\n0010\n0001\n",
    "k0_z.mat": "1 4\n1111\n",
    "k0_x.mat": "3 4\n1100\n0110\n0011\n",
}
for _stem in ("k0", "noxchecks"):
    _link = f"codeA={_stem}.code\ncodeB={_stem}.code\nf1=0.01\nf2=0.02\nf3=0.001\n"
    INPUTS[f"{_stem}.cfg"] = _link
    INPUTS[f"{_stem}_mc.cfg"] = _link + "mode=montecarlo\nsamples=3000\nseed=5\njobs=3\n"


def _commands() -> list[list[str]]:
    commands = []
    for stem in ("k0", "noxchecks"):
        code = f"{stem}.code"
        commands += [
            ["verify", code, code],
            ["check-cz", "--oracle", "--sufficient", code, code],
            ["check-cnot", "--oracle", code, code],
            ["check-cnot", "--oracle", "--mode", "strict", code, code],
            ["find-encoding", "--check", code, code],
            ["distance", "--css", code],
            ["simulate", f"{stem}.cfg"],
            ["simulate", f"{stem}_mc.cfg"],
        ]
    return commands + [["mirror", "k0_z.mat", "k0_x.mat", "--out-dir", "mirrored"]]


def cli_golden_text() -> str:
    """Each command's exit code, stdout, stderr and written files, run in the current
    directory on INPUTS; one JSON object per line, inside a JSON list."""
    for name, text in INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")
    lines = []
    for argv in _commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        record = {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if argv[0] == "mirror":
            record["files"] = {p.name: p.read_text(encoding="utf-8")
                               for p in sorted(Path("mirrored").iterdir())}
        lines.append(json.dumps(record, sort_keys=True))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_cli_on_k0_and_r0_codes_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_golden_text().encode("utf-8") == GOLDEN.read_bytes()


def _k0():
    return parse_css_text(INPUTS["k0.code"])


def _no_x_checks():
    return parse_css_text(INPUTS["noxchecks.code"])


def test_zero_column_matrices_are_values():
    e = BitMatrix.empty(4)
    assert (e.T.rows, e.T.cols) == (4, 0)
    gram = e @ e.T
    assert (gram.rows, gram.cols) == (0, 0)
    assert gram.row_strings() == []
    assert BitMatrix.zeros(4, 0) @ BitMatrix.zeros(0, 3) == BitMatrix.zeros(4, 3)
    tall = BitMatrix(np.zeros((3, 0)))
    assert (tall.rows, tall.cols) == (3, 0)
    assert tall.row_strings() == ["", "", ""]
    assert tall.T == BitMatrix.empty(3)


def test_empty_list_is_one_empty_row_unless_cols_given():
    """A 1-d input is one row, so [] is 1 x 0; `cols` makes empty input 0 x cols."""
    m = BitMatrix([])
    assert (m.rows, m.cols) == (1, 0)
    assert BitMatrix([], cols=4) == BitMatrix.empty(4)


@pytest.mark.parametrize("argv, name, text, line", [
    (["distance"], "cols0.mat", "# no columns\n2 0\n", 2),
    (["distance", "--css"], "cols0.code", "[C1]\n1 4\n1111\n[C2]\n1 0\n", 5),
], ids=["matrix-file", "code-file"])
def test_files_still_need_a_column(capsys, tmp_path, monkeypatch, argv, name, text, line):
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(text, encoding="utf-8")
    assert cli.main([*argv, name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} line {line}: column count must be at least 1\n"


def test_random_full_rank_with_no_rows_draws_nothing():
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    assert sampling.random_full_rank(rng, 0, 5) == BitMatrix.empty(5)
    assert rng.bit_generator.state == state


def test_k0_code_results():
    q = _k0()
    assert q.k == 0 and q.x_stab.rows == 3
    assert logical_z_representatives(q) == BitMatrix.empty(4)
    assert find_cnot_encoding(q, q) == BitMatrix.empty(4)
    state = encode_logical(q, [])
    support = np.flatnonzero(state.amp)
    assert support.tolist() == [0, 3, 5, 6, 9, 10, 12, 15]
    assert np.allclose(state.amp[support], 1 / np.sqrt(8))


def test_k0_mirrored_pair_repairs_to_empty_encodings():
    q1, q2 = make_mirrored_pair(BitMatrix.from_strings(["1111"]),
                                BitMatrix.from_strings(["1100", "0110", "0011"]))
    assert (q1.k, q2.k) == (0, 0)
    q1r, q2r = repair_mirrored_encodings(q1, q2)
    assert (q1r.enc_a, q2r.enc_a) == (BitMatrix.empty(4), BitMatrix.empty(4))


def test_scramble_encoding_of_k0_code_keeps_it_and_draws_nothing():
    q = _k0()
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert css_to_text(sampling.scramble_encoding(rng, q)) == css_to_text(q)
    assert rng.bit_generator.state == state


def test_scramble_encoding_without_x_checks_draws_only_the_transform():
    q = _no_x_checks()
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    scrambled = sampling.scramble_encoding(rng, q)
    sampling.random_full_rank(twin, q.k, q.k)
    assert scrambled.enc_a.row_strings() == ["1100", "1111"]
    assert rng.bit_generator.state == twin.bit_generator.state


def test_css_from_stabilizers_with_an_empty_side():
    checks = BitMatrix.from_strings(["1100", "0011"])
    no_x = make_css_from_stabilizers(BitMatrix.empty(4), checks)
    assert css_to_text(no_x) == (
        "# format=1\n[C1]\n2 4\n1100\n0011\n[C2]\n4 4\n1000\n0100\n0010\n0001\n"
        "[A]\n2 4\n1100\n0011\n")
    no_z = make_css_from_stabilizers(checks, BitMatrix.empty(4))
    assert css_to_text(no_z) == (
        "# format=1\n[C1]\n4 4\n1000\n0100\n0010\n0001\n[C2]\n2 4\n1100\n0011\n"
        "[A]\n2 4\n1000\n0010\n")
    bare = make_css_from_stabilizers(BitMatrix.empty(3), BitMatrix.empty(3))
    assert (bare.k, bare.x_stab.rows, bare.z_stab.rows) == (3, 0, 0)
    assert bare.enc_a == BitMatrix.identity(3)


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            text = cli_golden_text()
        finally:
            os.chdir(home)
    GOLDEN.write_text(text, encoding="utf-8")
