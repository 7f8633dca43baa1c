"""Shared fixtures: the bundled code files and a few reference codes."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from csspair import (
    BitMatrix,
    ClassicalCode,
    dual_basis,
    load_css,
    make_classical,
    make_css,
    sampling,
    with_encoding,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Child processes (`python -m csspair`) do not see pytest's `pythonpath`;
# hand them the source tree through the environment instead.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

HAMMING_ROWS = ["1000011", "0100101", "0010110", "0001111"]
PAIR7_X_CHECKS = ["1100000", "0101111"]
PAIR7_REPS = ["0011011", "1011100"]
PAIR7_EXTRA_CHECK = "0111010"

STANDARD_SELF_PAIRS = {
    # name: (n, g(x) exponents, classical k and d, CSS k, X-check rank)
    "golay23": (23, (0, 2, 4, 5, 6, 10, 11), 12, 7, 1, 11),
    "hamming15": (15, (0, 1, 4), 11, 3, 7, 4),
}

_ACCEPTANCE_LINES: list[str] = []


def announce(label: str, ok: bool) -> None:
    """Record one pass/fail line per acceptance check for the summary."""
    _ACCEPTANCE_LINES.append(f"[{'PASS' if ok else 'FAIL'}] {label}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checks")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def pair7_a():
    return load_css(FIXTURES / "pair7_station_a.code")


@pytest.fixture(scope="session")
def pair7_b():
    return load_css(FIXTURES / "pair7_station_b.code")


@pytest.fixture(scope="session")
def pair7_counterexample():
    return load_css(FIXTURES / "pair7_counterexample_b.code")


@pytest.fixture(scope="session")
def steane():
    return load_css(FIXTURES / "steane.code")


@pytest.fixture()
def hamming_code():
    return make_classical(BitMatrix.from_strings(HAMMING_ROWS))


def build_pair7_a():
    x_checks = BitMatrix.from_strings(PAIR7_X_CHECKS)
    c1 = make_classical(BitMatrix.from_strings(PAIR7_X_CHECKS + PAIR7_REPS))
    return make_css(c1, ClassicalCode(dual_basis(x_checks)))


def build_pair7_b():
    rows = PAIR7_X_CHECKS + [PAIR7_EXTRA_CHECK]
    x_checks = BitMatrix.from_strings(rows)
    c1 = make_classical(BitMatrix.from_strings(rows + PAIR7_REPS))
    return make_css(c1, ClassicalCode(dual_basis(x_checks)))


def cyclic_code(n: int, exponents: tuple[int, ...]):
    """Cyclic code of length n generated by g(x) = sum of x^e: the n - deg g shifts of g."""
    g = np.zeros(n, dtype=np.uint8)
    g[list(exponents)] = 1
    rows = [np.roll(g, shift) for shift in range(n - max(exponents))]
    return make_classical(BitMatrix(np.array(rows, dtype=np.uint8)))


def x_checked_code(n: int, r: int):
    """[[n, n - r]] code with r unit X checks and no Z checks."""
    x_checks = BitMatrix(np.eye(n, dtype=np.uint8)[:r])
    return make_css(make_classical(BitMatrix.identity(n)), ClassicalCode(dual_basis(x_checks)))


def combine_rows(q, j: int):
    """q with representative row j replaced by rows j + (j + 1): same code, shifted encoding."""
    enc = q.enc_a.a.copy()
    enc[j] ^= enc[j + 1]
    return with_encoding(q, BitMatrix(enc))


def late_witness_pairs(rng, n: int, k: int, j: int = 0):
    """A random_css_code self-pair and a repaired mirrored pair, each with rows j, j + 1
    of the second code combined.

    The self-pair first fails CNOT at (e_j, 0); the mirrored pair's pairing A @ B^T
    gains the entry (j + 1, j), so it first fails CZ at (e_(j+1), e_j).  With j = 0
    both come late in the lexicographic order of basis pairs.
    """
    q = sampling.random_css_code(rng, n, k)
    m1, m2 = sampling.random_repaired_mirrored_pair(rng, n, k)
    return (q, combine_rows(q, j)), (m1, combine_rows(m2, j))
