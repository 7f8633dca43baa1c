"""Seeded sampler draws, byte for byte against a committed file.

Every public sampler of `csspair.sampling` is drawn on seeded
Generators at n = 3-16: `random_full_rank` and `extend_basis` (0-row
bases and extra = 0 included) as matrices, the code samplers as their
code files (`css_to_text`), and `random_mirrored_inputs` as its two
check matrices.  Each (sampler, n) gets its own Generator, so a change
in one sampler's rng use shows on that sampler's records alone.  After
an intended change, regenerate with

    PYTHONPATH=src python tests/test_sampling.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from csspair import gf2, sampling
from csspair.codes import css_to_text

GOLDEN = Path(__file__).resolve().parent / "golden" / "sampler_draws.json"
SIZES = range(3, 17)
DRAWS = 2


def _codes(*qs) -> list[str]:
    return [css_to_text(q) for q in qs]


def _full_rank(rng, n):
    rows = int(rng.integers(0, n + 1))
    return {"rows": rows, "matrix": sampling.random_full_rank(rng, rows, n).row_strings()}


def _extend(rng, n):
    r = int(rng.integers(0, n + 1))
    extra = int(rng.integers(0, n - r + 1))
    base = sampling.random_full_rank(rng, r, n)
    return {"r": r, "extra": extra, "matrix": sampling.extend_basis(rng, base, extra).row_strings()}


def _mirrored_inputs(rng, n):
    return [m.row_strings() for m in sampling.random_mirrored_inputs(rng, n)]


SAMPLERS = {
    "random_full_rank": _full_rank,
    "extend_basis": _extend,
    "random_css_code k=None": lambda rng, n: _codes(sampling.random_css_code(rng, n)),
    "random_css_code k=1": lambda rng, n: _codes(sampling.random_css_code(rng, n, 1)),
    "random_css_code k=2": lambda rng, n: _codes(sampling.random_css_code(rng, n, 2)),
    "random_cnot_pair shared": lambda rng, n: _codes(*sampling.random_cnot_pair(rng, n)),
    "random_cnot_pair scrambled": lambda rng, n: _codes(
        *sampling.random_cnot_pair(rng, n, shared_encoding=False)),
    "random_independent_pair": lambda rng, n: _codes(*sampling.random_independent_pair(rng, n)),
    "random_mirrored_inputs": _mirrored_inputs,
    "random_repaired_mirrored_pair": lambda rng, n: _codes(
        *sampling.random_repaired_mirrored_pair(rng, n)),
    "random_valid_pair": lambda rng, n: _codes(*sampling.random_valid_pair(rng, n)),
    "scramble_encoding": lambda rng, n: _codes(
        sampling.scramble_encoding(rng, sampling.random_css_code(rng, n))),
}


def golden_text() -> str:
    """One JSON object per line, inside a JSON list."""
    lines = []
    for index, (label, draw) in enumerate(SAMPLERS.items()):
        for n in SIZES:
            rng = np.random.default_rng([index, n])
            for i in range(DRAWS):
                record = {"sampler": label, "n": n, "draw": i, "out": draw(rng, n)}
                lines.append(json.dumps(record, sort_keys=True))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_sampler_draws_match_golden():
    assert golden_text().encode("utf-8") == GOLDEN.read_bytes()


class _CountingRng:
    """A Generator that counts its `integers` calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def test_extend_basis_builds_at_most_one_echelon(monkeypatch):
    built = []
    init = gf2._Echelon.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(gf2._Echelon, "__init__", counting_init)
    rejected = 0
    for seed in range(20):
        n = 6
        base = gf2.BitMatrix(np.eye(n, dtype=np.uint8)[:n - 2])
        rng = _CountingRng(seed)
        built.clear()
        out = sampling.extend_basis(rng, base, 2)
        assert len(built) <= 1
        assert out.rows == n and gf2.rank(out) == n
        rejected += rng.calls - 2
    assert rejected > 0  # the draws did hit dependent rows


class _NoDraws:
    def integers(self, *args, **kwargs):
        raise AssertionError("drew from the generator")


@pytest.mark.parametrize("rows, n, rank, extra", [
    (["111", "010", "001"], 3, 3, 1),
    ([], 4, 0, 5),
    (["1100", "1100", "0011"], 4, 2, 3),  # dependent rows: the rank, not the row count
])
def test_extend_basis_refuses_more_rows_than_free_dimensions(rows, n, rank, extra):
    base = gf2.BitMatrix.from_strings(rows) if rows else gf2.BitMatrix.empty(n)
    with pytest.raises(ValueError, match=f"rank-{rank} base in {n} columns by {extra} "):
        sampling.extend_basis(_NoDraws(), base, extra)


if __name__ == "__main__":
    GOLDEN.write_text(golden_text(), encoding="utf-8")
