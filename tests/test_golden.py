"""Checker reports and GF(2) outputs on a fixed corpus, byte for byte against committed files.

Every report field (verdict, conditions, details, witness) of the CNOT
checker in both modes, the CZ checker and the CZ sufficient-condition
checker is pinned for about 60 pairs: the bundled fixtures, the mirrored
fixture pair, seeded `random_valid_pair` draws at n = 4-10 and the
late-witness pairs.  A second file pins the GF(2) answers the reports
rest on: per distinct code of that corpus its logical Z representatives,
the duals of its stabilizer matrices and the distances of C1 and C2; per
mirrored pair the right identity transform of its pairing; and
`solve_row` on seeded draws, out-of-span targets and 0-row matrices
included.  A third file pins the link reports: `run_local_swapping` on
every equal-k pair of the corpus in exact mode at four noise models and
once in Monte Carlo mode, and on the bundled configs.  After an
intended change, regenerate all three with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from csspair import (
    BitMatrix,
    ErrorModel,
    ProtocolConfig,
    check_cnot_transversal,
    check_cz_sufficient,
    check_cz_transversal,
    dual_basis,
    gf2,
    load_config,
    load_css,
    load_matrix,
    logical_z_representatives,
    make_mirrored_pair,
    min_distance,
    repair_mirrored_encodings,
    run_local_swapping,
    sampling,
)
from csspair.codes import css_to_text
from csspair.transversality import is_mirrored_pair

from conftest import FIXTURES, late_witness_pairs

GOLDEN = Path(__file__).resolve().parent / "golden" / "checker_reports.json"
GF2_GOLDEN = GOLDEN.parent / "gf2_outputs.json"
LINK_GOLDEN = GOLDEN.parent / "link_reports.json"
# (f1, f2, f3): both channels and the correlated one, f3 = 0, one channel, noiseless.
EXACT_MODELS = [(0.02, 0.005, 0.001), (0.01, 0.01, 0.0), (0.03, 0.0, 0.0), (0.0, 0.0, 0.0)]
MONTECARLO_MODEL = (0.02, 0.01, 0.005)


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


def _solve_row_draws() -> list[tuple[BitMatrix, np.ndarray]]:
    """Seeded (M, t): t in the row space, t random (often outside it), and 0-row M."""
    rng = np.random.default_rng(1111)
    draws = []
    for _ in range(80):
        rows, cols = int(rng.integers(0, 8)), int(rng.integers(1, 10))
        m = BitMatrix(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8), cols=cols)
        coeffs = rng.integers(0, 2, size=rows, dtype=np.uint8)
        draws.append((m, (coeffs.astype(np.int64) @ m.a) % 2))
        draws.append((m, rng.integers(0, 2, size=cols, dtype=np.uint8)))
    for cols in (1, 4):
        draws.append((BitMatrix.empty(cols), np.zeros(cols, dtype=np.uint8)))
        draws.append((BitMatrix.empty(cols), np.eye(cols, dtype=np.uint8)[-1]))
    return draws


def _bits(vec) -> str:
    return "".join(str(int(b)) for b in vec)


def gf2_golden_text() -> str:
    """One JSON object per line, inside a JSON list."""
    records, seen = [], set()
    for label, qa, qb in golden_corpus():
        for side, q in (("a", qa), ("b", qb)):
            key = css_to_text(q)
            if key in seen:
                continue
            seen.add(key)
            records.append({
                "code": f"{label} {side}",
                "logical_z": logical_z_representatives(q).row_strings(),
                "dual_x_stab": dual_basis(q.x_stab).row_strings(),
                "dual_z_stab": dual_basis(q.z_stab).row_strings(),
                "d1": min_distance(q.c1) if q.c1.k else None,
                "d2": min_distance(q.c2) if q.c2.k else None,
            })
        if qa.k and is_mirrored_pair(qa, qb):
            transform = gf2.right_identity_transform(qa.enc_a @ qb.enc_a.T)
            records.append({"mirrored_pair": label, "transform": transform.row_strings()})
    for m, target in _solve_row_draws():
        coeffs = gf2.solve_row(m, target)
        records.append({"solve_row": m.row_strings(), "cols": m.cols, "target": _bits(target),
                        "coeffs": None if coeffs is None else _bits(coeffs)})
    lines = [json.dumps(record, sort_keys=True) for record in records]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def link_golden_text() -> str:
    """One JSON object per line, inside a JSON list."""
    records = []
    for i, (label, qa, qb) in enumerate(golden_corpus()):
        if qa.k != qb.k:
            continue
        cfg = ProtocolConfig(qa, qb, ErrorModel(0.0, 0.0, 0.0), allow_nontransversal=True)
        for f in EXACT_MODELS:
            report = run_local_swapping(replace(cfg, model=ErrorModel(*f)))
            records.append({"pair": label, "model": f, "report": report.to_dict()})
        report = run_local_swapping(replace(cfg, model=ErrorModel(*MONTECARLO_MODEL),
                                            mode="montecarlo", samples=300, seed=i, jobs=2))
        records.append({"pair": label, "montecarlo": True, "report": report.to_dict()})
    for path in sorted(FIXTURES.glob("*.cfg")):
        records.append({"config": path.name,
                        "report": run_local_swapping(load_config(path)).to_dict()})
    lines = [json.dumps(record, sort_keys=True) for record in records]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_checker_reports_match_golden():
    assert golden_text().encode("utf-8") == GOLDEN.read_bytes()


def test_gf2_outputs_match_golden():
    assert gf2_golden_text().encode("utf-8") == GF2_GOLDEN.read_bytes()


def test_link_reports_match_golden():
    assert link_golden_text().encode("utf-8") == LINK_GOLDEN.read_bytes()


def test_link_montecarlo_records_within_5_sigma_of_exact():
    """Each Monte Carlo record lies within 5 sigma of exact mode.

    The fidelity and every per-pair marginal is the fraction of samples in
    a set of classes, so each must lie within 5 binomial standard errors
    sqrt(p (1 - p) / samples) of exact mode's p.  A class that exact mode
    gives no mass must hold no sample.
    """
    pairs = {label: (qa, qb) for label, qa, qb in golden_corpus()}
    checked = 0
    for record in json.loads(LINK_GOLDEN.read_text(encoding="utf-8")):
        report = record["report"]
        if report["mode"] != "montecarlo":
            continue
        if "config" in record:
            cfg = load_config(FIXTURES / record["config"])
        else:
            cfg = ProtocolConfig(*pairs[record["pair"]], ErrorModel(*MONTECARLO_MODEL),
                                 allow_nontransversal=True)
        exact = run_local_swapping(replace(cfg, mode="exact", samples=0, seed=None, jobs=1))
        assert report["class_breakdown"].keys() <= exact.class_breakdown.keys(), record
        for got, p in zip([report["logical_fidelity"], *report["per_pair_marginals"]],
                          [exact.logical_fidelity, *exact.per_pair_marginals]):
            p = min(p, 1.0)
            assert abs(got - p) <= 5 * np.sqrt(p * (1 - p) / report["samples"]), (record, p)
        checked += 1
    assert checked == 57


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
    GF2_GOLDEN.write_text(gf2_golden_text(), encoding="utf-8")
    LINK_GOLDEN.write_text(link_golden_text(), encoding="utf-8")
