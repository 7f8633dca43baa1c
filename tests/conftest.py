"""Shared fixtures: the bundled code files and a few reference codes."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from csspair import (
    BitMatrix,
    ClassicalCode,
    dual_basis,
    load_css,
    make_classical,
    make_css,
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
