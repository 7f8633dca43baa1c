"""Checker reports on a fixed corpus of pairs, byte for byte against a committed file.

Every report field (verdict, conditions, details, witness) of the CNOT
checker in both modes, the CZ checker and the CZ sufficient-condition
checker is pinned for about 60 pairs: the bundled fixtures, the mirrored
fixture pair, seeded `random_valid_pair` draws at n = 4-10 and the
late-witness pairs.  After an intended report change, regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np

from csspair import (
    check_cnot_transversal,
    check_cz_sufficient,
    check_cz_transversal,
    load_css,
    load_matrix,
    make_mirrored_pair,
    repair_mirrored_encodings,
    sampling,
)

from conftest import FIXTURES, late_witness_pairs

GOLDEN = Path(__file__).resolve().parent / "golden" / "checker_reports.json"


def golden_corpus() -> list[tuple[str, object, object]]:
    """(label, code_a, code_b) for every pair in the golden file, in file order."""
    names = ["pair7_station_a", "pair7_station_b", "pair7_counterexample_b", "steane"]
    fixture = {name: load_css(FIXTURES / f"{name}.code") for name in names}
    pairs = [(f"{a}/{b}", fixture[a], fixture[b]) for a in names for b in names]
    mirrored = make_mirrored_pair(load_matrix(FIXTURES / "mirror7_z_checks.mat"),
                                  load_matrix(FIXTURES / "mirror7_x_checks.mat"))
    pairs.append(("mirror7", *mirrored))
    pairs.append(("mirror7_repaired", *repair_mirrored_encodings(*mirrored)))
    rng = np.random.default_rng(909)
    for n in range(4, 11):
        for draw in range(4):
            pairs.append((f"random_valid_pair n={n} #{draw}", *sampling.random_valid_pair(rng, n)))
    rng = np.random.default_rng(2027)
    for k in range(2, 7):
        for j in sorted({0, k - 2}):
            self_pair, mirrored_pair = late_witness_pairs(rng, k + 4, k, j)
            pairs.append((f"late self k={k} j={j}", *self_pair))
            pairs.append((f"late mirrored k={k} j={j}", *mirrored_pair))
    return pairs


def golden_text() -> str:
    """One JSON object per line, inside a JSON list."""
    lines = []
    for label, qa, qb in golden_corpus():
        record = {
            "pair": label,
            "cnot_coset": check_cnot_transversal(qa, qb, mode="coset").to_dict(),
            "cnot_strict": check_cnot_transversal(qa, qb, mode="strict").to_dict(),
            "cz": check_cz_transversal(qa, qb).to_dict(),
            "cz_sufficient": check_cz_sufficient(qa, qb).to_dict(),
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_checker_reports_match_golden():
    assert golden_text().encode("utf-8") == GOLDEN.read_bytes()


def test_golden_corpus_has_late_witnesses():
    """The corpus pins witnesses past the first quarter of the 4^k basis pairs."""
    late = 0
    for record in json.loads(GOLDEN.read_text(encoding="utf-8")):
        witness = record["cz"]["witness"]
        if witness and witness["psi_a"]:
            k = len(witness["psi_a"])
            late += int(witness["psi_a"] + witness["psi_b"], 2) >= 4**k // 4
    assert late > 0


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text(), encoding="utf-8")
