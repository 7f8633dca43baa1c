"""Command-line front end.

Subcommands load code files, run the transversality checkers and their
state-vector oracles, build mirrored pairs, simulate the repeater
link, and emit machine-readable reports (JSON by default, a human
rendering behind --pretty).

Exit codes: 0 verdict true / run complete, 1 verdict false, 2 input
error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import codes, gf2, repeater, transversality
from .errors import CapacityError, CsspairError, ParseError

FORMAT_VERSION = 1


def _emit(report: dict, pretty: bool, out_path: str | None) -> None:
    report = {"format": FORMAT_VERSION, **report}
    if pretty:
        text = _render_pretty(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render_pretty(obj: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_pretty(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: " + ", ".join(str(v) for v in value))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if indent == 0 else "")


def _code_summary(q: codes.CssCode) -> dict:
    return {
        "n": q.n,
        "k": q.k,
        "x_stabilizers": q.x_stab.row_strings(),
        "z_stabilizers": q.z_stab.row_strings(),
        "logical_x": q.enc_a.row_strings(),
    }


def _oracle_block(res: transversality.OracleResult, detail: bool = False) -> dict:
    block = {"ok": res.ok, "max_amplitude_deviation": res.max_deviation}
    if detail:
        block["pairs_checked"] = res.pairs_checked
        block["witness"] = transversality._witness_dict(res.witness)
    return block


def _load_pair(path_a: str, path_b: str) -> tuple[codes.CssCode, codes.CssCode]:
    return codes.load_css(path_a, name=path_a), codes.load_css(path_b, name=path_b)


_GATES = {
    "cnot": (transversality.check_cnot_transversal, transversality.oracle_cnot),
    "cz": (transversality.check_cz_transversal, transversality.oracle_cz),
}


def _add_oracle(entry: dict, gate: str, rep: transversality.TransversalityReport,
                qa: codes.CssCode, qb: codes.CssCode, detail: bool = False) -> bool:
    """Add the gate's oracle result to entry (equal k only); False iff it disagrees with rep."""
    if qa.k != qb.k:
        return True
    res = _GATES[gate][1](qa, qb)
    # The strict check is sufficient, not necessary: it agrees if its pass implies the oracle's.
    agree = (res.ok or not rep.verdict) if rep.mode == "strict" else res.ok == rep.verdict
    entry["oracle"] = _oracle_block(res, detail)
    entry["checker_oracle_agree"] = agree
    return agree


def _run_check(args, gate: str) -> int:
    qa, qb = _load_pair(args.code_a, args.code_b)
    rep = _GATES[gate][0](qa, qb, **({"mode": args.mode} if gate == "cnot" else {}))
    payload = rep.to_dict()
    if gate == "cz" and args.sufficient:
        payload["sufficient"] = transversality.check_cz_sufficient(qa, qb).to_dict()
    if args.oracle and not _add_oracle(payload, gate, rep, qa, qb, detail=True):
        payload["warning"] = "checker and oracle disagree; please report this input"
    payload["codes"] = {"a": _code_summary(qa), "b": _code_summary(qb)}
    _emit(payload, args.pretty, args.out)
    return 0 if rep.verdict else 1


def _cmd_verify(args) -> int:
    """Run both gate checkers with their oracles; exit 0 iff they agree."""
    qa, qb = _load_pair(args.code_a, args.code_b)
    payload: dict = {"codes": {"a": _code_summary(qa), "b": _code_summary(qb)}}
    agree = True
    for gate, (checker, _) in _GATES.items():
        rep = checker(qa, qb)
        payload[gate] = rep.to_dict()
        agree = _add_oracle(payload[gate], gate, rep, qa, qb) and agree
    payload["sufficient_cz"] = transversality.check_cz_sufficient(qa, qb).to_dict()
    payload["agreement"] = agree
    _emit(payload, args.pretty, args.out)
    return 0 if agree else 1


def _cmd_mirror(args) -> int:
    z_checks = gf2.load_matrix(args.z_checks)
    x_checks = gf2.load_matrix(args.x_checks)
    q1, q2 = transversality.make_mirrored_pair(z_checks, x_checks)
    q1, q2 = transversality.repair_mirrored_encodings(q1, q2)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path1 = out_dir / "mirrored_a.code"
    path2 = out_dir / "mirrored_b.code"
    codes.save_css(q1, path1, header="mirrored pair, first code (X checks mirrored into the second)")
    codes.save_css(q2, path2, header="mirrored pair, second code (X/Z checks swapped)")
    pairing = (q1.enc_a @ q2.enc_a.T).row_strings()
    check = transversality.check_cz_transversal(q1, q2)
    payload = {
        "written": [str(path1), str(path2)],
        "pairing_ABt": pairing,
        "cz_check": check.to_dict(),
        "codes": {"a": _code_summary(q1), "b": _code_summary(q2)},
    }
    _emit(payload, args.pretty, args.out)
    return 0 if check.verdict else 1


# A sweep of more points than this exits 3 before its point list is built.
MAX_SWEEP_POINTS = 10**6


def _parse_sweep(arg: str) -> tuple[str, list[float]]:
    try:
        key, _, rng = arg.partition("=")
        start_s, stop_s, step_s = rng.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise ParseError(f"bad sweep argument {arg!r}: want key=start:stop:step") from exc
    if key not in ("f1", "f2", "f3"):
        raise ParseError(f"bad sweep argument {arg!r}: the key must be f1, f2 or f3")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ParseError(f"bad sweep argument {arg!r}: start, stop and step must be finite")
    if step <= 0:
        raise ParseError(f"bad sweep argument {arg!r}: the step must be positive")
    if not (0 <= start <= 1 and 0 <= stop <= 1):
        raise ParseError(f"bad sweep argument {arg!r}: start and stop must lie in [0, 1]")
    if start > stop:
        raise ParseError(f"bad sweep argument {arg!r}: start must not exceed stop")
    top = stop + 1e-12
    if step <= math.ulp(top) / 2:  # a value v <= top might never advance
        raise ParseError(f"bad sweep argument {arg!r}: the step vanishes in rounding beside stop")
    points = math.floor((top - start) / step) + 1
    if points > MAX_SWEEP_POINTS:
        raise CapacityError(f"sweep {arg!r} has {points} points; the limit is {MAX_SWEEP_POINTS}")
    values = []
    v = start
    while v <= top:
        values.append(round(v, 12))
        v += step
    return key, values


def _cmd_simulate(args) -> int:
    if args.sweep and args.pretty:
        raise ParseError("--pretty does not apply to --sweep, which prints CSV")
    cfg = repeater.load_config(args.config)
    if not args.sweep:
        report = repeater.run_local_swapping(cfg)
        _emit(report.to_dict(), args.pretty, args.out)
        return 0
    key, values = _parse_sweep(args.sweep)

    def model_at(value: float) -> repeater.ErrorModel:
        try:
            return replace(cfg.model, **{key: value})
        except ValueError as exc:
            raise ParseError(
                f"bad sweep argument {args.sweep!r}: at {key} = {value!r}, {exc}") from exc

    for value in values:  # every point's noise is checked before the first point runs
        model_at(value)
    rows = ["f1,f2,f3,mode,samples,seed,logical_fidelity,logical_error_rate,standard_error"]
    for value in values:
        model = model_at(value)
        report = repeater.run_local_swapping(replace(cfg, model=model))
        rows.append(
            f"{model.f1!r},{model.f2!r},{model.f3!r},{report.mode},{report.samples},"
            f"{report.seed},{report.logical_fidelity!r},{report.logical_error_rate!r},"
            f"{'' if report.standard_error is None else repr(report.standard_error)}"
        )
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_distance(args) -> int:
    if args.css:
        q = codes.load_css(args.path)
        d1, d2 = codes.min_distance(q.c1), codes.min_distance(q.c2)
        payload = {"n": q.n, "k": q.k, "d": min(d1, d2), "d1": d1, "d2": d2}
    else:
        code = gf2._parse_file(args.path,
                               lambda text: codes.make_classical(gf2.BitMatrix.from_text(text)))
        payload = {"n": code.n, "k": code.k, "d": codes.min_distance(code)}
        if code.was_reduced:
            payload["warning"] = "generator rows were dependent; reduced"
    _emit(payload, args.pretty, args.out)
    return 0


def _cmd_find_encoding(args) -> int:
    qa, qb = _load_pair(args.code_a, args.code_b)
    enc = transversality.find_cnot_encoding(qa, qb)
    if enc is None:
        _emit({"found": False}, args.pretty, args.out)
        return 1
    payload = {"found": True, "encoding": enc.row_strings()}
    if args.check:  # enc is qa's own encoding, so only qb takes it on
        res = transversality.oracle_cnot(qa, codes.with_encoding(qb, enc))
        payload["oracle"] = _oracle_block(res)
    _emit(payload, args.pretty, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csspair",
        description="CSS code pairs: transversality checks, mirrored constructions, "
                    "and repeater-link simulation.",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-cnot", help="decide pairwise CNOT transversality")
    p.add_argument("code_a")
    p.add_argument("code_b")
    p.add_argument("--mode", choices=("strict", "coset"), default="coset")
    p.add_argument("--oracle", action="store_true", help="also run the state-vector oracle")
    p.set_defaults(func=lambda a: _run_check(a, "cnot"))

    p = sub.add_parser("check-cz", help="decide pairwise CZ transversality")
    p.add_argument("code_a")
    p.add_argument("code_b")
    p.add_argument("--sufficient", action="store_true",
                   help="also report the sufficient-condition branches")
    p.add_argument("--oracle", action="store_true", help="also run the state-vector oracle")
    p.set_defaults(func=lambda a: _run_check(a, "cz"))

    p = sub.add_parser("verify", help="run both checkers plus oracles; exit 0 iff they agree")
    p.add_argument("code_a")
    p.add_argument("code_b")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mirror", help="build a mirrored pair from Z/X check matrices")
    p.add_argument("z_checks", help="matrix file: Z checks of the first code")
    p.add_argument("x_checks", help="matrix file: X checks of the first code")
    p.add_argument("--out-dir", required=True, help="directory for the two code files")
    p.set_defaults(func=_cmd_mirror)

    p = sub.add_parser("simulate", help="simulate the repeater link from a config file")
    p.add_argument("config")
    p.add_argument("--sweep", help="vary one parameter: f1=start:stop:step (CSV output)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("distance", help="[n,k,d] of a code file")
    p.add_argument("path")
    p.add_argument("--css", action="store_true", help="treat the file as a CSS code file")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("find-encoding", help="search for a shared encoding enabling CNOT")
    p.add_argument("code_a")
    p.add_argument("code_b")
    p.add_argument("--check", action="store_true", help="confirm the result with the oracle")
    p.set_defaults(func=_cmd_find_encoding)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (CsspairError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
