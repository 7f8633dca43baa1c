"""Output checks for every op, with references that do not share the program's code.

Each op kind has an expected exit code, a validator and a summary.  The
validators re-derive what they can independently of csspair:

* exact link fidelity from the benchmark's own minimum-weight decoder
  (same documented tie-break) and a Kronecker-factored sum over the
  product channel, for every seed;
* classical distances by enumerating all codewords as packed words;
* checker verdicts against the state-vector oracle and the construction.

Summaries of the default-seed run are stored in reference.json; a later
run compares against them: exact fidelities to 1e-12 absolute, Monte
Carlo fidelities within 5 standard errors, everything else exactly.
Fixture references hold for every seed and size.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

MASS_TOL = 1e-9          # exact-mode class masses must sum to 1 within this
INDEPENDENT_TOL = 1e-9   # program vs the benchmark's own exact fidelity
REFERENCE_TOL = 1e-12    # program vs stored default-seed reference
MC_SIGMAS = 5.0          # Monte Carlo fidelity vs exact, in standard errors


def read_config(path: Path) -> dict[str, str]:
    values = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip().lower()] = value.strip()
    return values


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 entries to ints, first column most significant."""
    weights = 1 << np.arange(bits.shape[1] - 1, -1, -1, dtype=np.int64)
    return bits @ weights


def trivial_after_decoding(detect: np.ndarray, logical_space: np.ndarray) -> np.ndarray:
    """For every error pattern (qubit 1 = most significant bit): does decoding leave it trivial?

    The decoder reads the syndrome against `detect` and applies the
    minimum-weight error of that syndrome, ties going to the
    lexicographically smallest support (the largest int).  The residual
    is trivial when it is orthogonal to every row of `logical_space`.
    """
    n = detect.shape[1]
    ints = np.arange(1 << n, dtype=np.int64)
    bits = (ints[:, None] >> np.arange(n - 1, -1, -1)) & 1
    synd = _pack(bits @ detect.T.astype(np.int64) % 2)
    cls = _pack(bits @ logical_space.T.astype(np.int64) % 2)
    order = np.lexsort((-ints, bits.sum(axis=1)))
    _, first = np.unique(synd[order], return_index=True)
    leaders = order[first]
    leader_cls = np.zeros(int(synd.max()) + 1, dtype=np.int64)
    leader_cls[synd[leaders]] = cls[leaders]
    return (cls ^ leader_cls[synd]) == 0


def exact_fidelity(qa, qb, f1: float, f2: float, f3: float) -> float:
    """Probability that both stations decode to the identity class."""
    n = qa.n
    ok_a = trivial_after_decoding(qa.x_stab.a, qa.c1.gen.a)   # Z errors on A
    ok_b = trivial_after_decoding(qb.z_stab.a, qb.c2.gen.a)   # X errors on B
    # Per qubit pair, rows: Z on A absent/present; columns: X on B absent/present.
    w = np.array([[1.0 - f1 - f2 - f3, f2], [f1, f3]])
    t = ok_b.astype(np.float64).reshape((2,) * n)
    for axis in range(n):
        t = np.moveaxis(np.tensordot(w, t, axes=([1], [axis])), 0, axis)
    return float((ok_a.reshape((2,) * n) * t).sum())


def min_weight(gen: np.ndarray) -> int:
    """Minimum weight over the nonzero codewords spanned by the rows of gen."""
    words = np.zeros(1, dtype=np.uint64)
    for row in _pack(gen.astype(np.int64)):
        words = np.concatenate([words, words ^ np.uint64(row)])
    return int(np.bitwise_count(words[1:]).min())


def _sigma(fidelity: float, samples: int) -> float:
    """Standard error of a Monte Carlo fidelity, floored at one sample."""
    return math.sqrt(max(fidelity * (1.0 - fidelity), 0.0) / samples) + 1.0 / samples


class Checker:
    """Validates recorded op outputs; caches the independent references."""

    def __init__(self, csspair, references: dict):
        self.cs = csspair
        self.references = references
        self._exact: dict[str, float] = {}
        self._distance: dict[str, tuple[int, int]] = {}

    def check(self, op, rc, out: str, err: str, exc: str | None) -> tuple[list[str], dict]:
        """(errors, summary) for one recorded execution of op."""
        if exc is not None:
            return [f"exception: {exc}"], {}
        expected_rc = EXPECTED_EXIT[op.kind](op)
        if rc != expected_rc:
            return [f"exit code {rc}, expected {expected_rc}: {err.strip()[-300:]}"], {}
        try:
            report = json.loads(out)
        except ValueError as exc_:
            return [f"output is not JSON: {exc_}"], {}
        try:
            errors, summary = getattr(self, "_" + op.kind.replace("-", "_"))(op, report)
        except (KeyError, TypeError, ValueError) as exc_:
            return [f"malformed report: {type(exc_).__name__}: {exc_}"], {}
        summary["exit"] = rc
        return errors + self._compare(op, summary), summary

    def _compare(self, op, summary: dict) -> list[str]:
        ref = self.references.get(op.key)
        if ref is None:
            return []
        errors = []
        for name, want in ref.items():
            got = summary.get(name)
            if name == "mc_fidelity" and isinstance(got, float):
                ok = abs(got - want) <= MC_SIGMAS * _sigma(want, summary["samples"])
            elif isinstance(want, float) and isinstance(got, float):
                ok = abs(got - want) <= REFERENCE_TOL
            else:
                ok = got == want
            if not ok:
                errors.append(f"{name}={got!r}, reference {want!r}")
        return errors

    # -- link ---------------------------------------------------------------

    def _link(self, op, report) -> tuple[dict, float, float]:
        path = Path(op.argv[1])
        cfg = read_config(path)
        if op.key not in self._exact:
            load = self.cs.codes.load_css
            qa, qb = load(path.parent / cfg["codea"]), load(path.parent / cfg["codeb"])
            model = (float(cfg.get("f1", 0)), float(cfg.get("f2", 0)), float(cfg.get("f3", 0)))
            self._exact[op.key] = exact_fidelity(qa, qb, *model)
        mass = sum(report["class_breakdown"].values())
        return cfg, self._exact[op.key], mass

    def _simulate_exact(self, op, report):
        cfg, exact, mass = self._link(op, report)
        fid = report["logical_fidelity"]
        errors = []
        if report["mode"] != "exact":
            errors.append(f"mode {report['mode']!r}")
        if not abs(mass - 1.0) <= MASS_TOL:
            errors.append(f"class masses sum to {mass!r}")
        if not abs(fid - exact) <= INDEPENDENT_TOL:
            errors.append(f"fidelity {fid!r}, independent exact {exact!r}")
        if report["transversality_verdict"] is not True:
            errors.append("pair not reported CNOT-transversal")
        return errors, {"fidelity": fid}

    def _simulate_mc(self, op, report):
        cfg, exact, mass = self._link(op, report)
        fid = report["logical_fidelity"]
        samples = int(cfg["samples"])
        errors = []
        if report["mode"] != "montecarlo":
            errors.append(f"mode {report['mode']!r}")
        if report["samples"] != samples or report["seed"] != int(cfg["seed"]):
            errors.append("samples or seed not echoed")
        if report["workers"] != int(cfg.get("jobs", 1)):
            errors.append(f"workers {report['workers']}, config jobs {cfg.get('jobs', 1)}")
        if not abs(mass - 1.0) <= MASS_TOL:
            errors.append(f"class masses sum to {mass!r}")
        sigma = _sigma(exact, samples)
        if not abs(fid - exact) <= MC_SIGMAS * sigma:
            errors.append(f"fidelity {fid!r} is {abs(fid - exact) / sigma:.1f} standard errors "
                          f"from exact {exact!r}")
        return errors, {"mc_fidelity": fid, "samples": samples}

    # -- certify ------------------------------------------------------------

    @staticmethod
    def _oracle_ok(report, entry) -> bool | None:
        """Oracle outcome of a report entry; the oracle runs only when k matches."""
        codes = report["codes"]
        if codes["a"]["k"] != codes["b"]["k"]:
            return None
        return entry["oracle"]["ok"]

    def _verify(self, op, report):
        summary = {
            "cnot": report["cnot"]["verdict"],
            "cz": report["cz"]["verdict"],
            "cnot_oracle": self._oracle_ok(report, report["cnot"]),
            "cz_oracle": self._oracle_ok(report, report["cz"]),
            "sufficient_cz": report["sufficient_cz"]["verdict"],
        }
        errors = []
        if report["agreement"] is not True:
            errors.append("checker and oracle disagree")
        for gate in ("cnot", "cz"):
            oracle = summary[f"{gate}_oracle"]
            if oracle is not None and oracle != summary[gate]:
                errors.append(f"{gate} verdict differs from the oracle outcome")
            if gate in op.expect and summary[gate] != op.expect[gate]:
                errors.append(f"{gate} verdict {summary[gate]}, expected {op.expect[gate]}")
        if summary["sufficient_cz"] and not summary["cz"]:
            errors.append("sufficient CZ condition holds but CZ verdict is false")
        return errors, summary

    def _check_cnot_oracle(self, op, report):
        oracle_ok = self._oracle_ok(report, report)
        summary = {"verdict": report["verdict"], "oracle_ok": oracle_ok,
                   "pairs_checked": None if oracle_ok is None else report["oracle"]["pairs_checked"]}
        errors = []
        if oracle_ok is not None and (report["checker_oracle_agree"] is not True
                                      or oracle_ok != report["verdict"]):
            errors.append("checker and oracle disagree")
        return errors, summary

    # -- screen -------------------------------------------------------------

    def _mirror(self, op, report):
        k = op.expect["k"]
        identity = ["".join("1" if i == j else "0" for j in range(k)) for i in range(k)]
        digest = hashlib.sha256()
        for path in report["written"]:
            digest.update(Path(path).read_bytes())
        errors = []
        if report["cz_check"]["verdict"] is not True:
            errors.append("repaired mirrored pair is not CZ-transversal")
        if report["pairing_ABt"] != identity:
            errors.append(f"pairing {report['pairing_ABt']} is not the identity")
        return errors, {"files_sha256": digest.hexdigest()}

    def _check_cnot(self, op, report):
        return [], {"verdict": report["verdict"]}

    def _check_cz_sufficient(self, op, report):
        summary = {"verdict": report["verdict"], "sufficient": report["sufficient"]["verdict"]}
        errors = [] if summary["sufficient"] else ["mirrored pair fails the sufficient condition"]
        return errors, summary

    def _find_encoding(self, op, report):
        return ([] if report["found"] is False else ["found an encoding for nested-free checks"],
                {"found": report["found"]})

    def _distance_css(self, op, report):
        path = op.argv[-1]
        if op.key not in self._distance:
            q = self.cs.codes.load_css(path)
            self._distance[op.key] = (min_weight(q.c1.gen.a), min_weight(q.c2.gen.a))
        d1, d2 = self._distance[op.key]
        summary = {"d": report["d"], "d1": report["d1"], "d2": report["d2"]}
        errors = []
        if (summary["d1"], summary["d2"]) != (d1, d2) or summary["d"] != min(d1, d2):
            errors.append(f"distances {summary}, independent d1={d1} d2={d2}")
        if (report["n"], report["k"]) != (op.expect["n"], op.expect["k"]):
            errors.append(f"n, k = {report['n']}, {report['k']}")
        return errors, summary


EXPECTED_EXIT = {
    "simulate-exact": lambda op: 0,
    "simulate-mc": lambda op: 0,
    "verify": lambda op: 0,
    "check-cnot-oracle": lambda op: 0 if op.expect["cnot"] else 1,
    "mirror": lambda op: 0,
    "check-cnot": lambda op: 1,
    "check-cz-sufficient": lambda op: 0,
    "find-encoding": lambda op: 1,
    "distance-css": lambda op: 0,
}
