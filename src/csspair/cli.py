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


def _load_pair(path_a: str, path_b: str) -> tuple[codes.CssCode, codes.CssCode]:
    return codes.load_css(path_a, name=path_a), codes.load_css(path_b, name=path_b)


def _run_check(args, gate: str) -> int:
    qa, qb = _load_pair(args.code_a, args.code_b)
    if gate == "cnot":
        rep = transversality.check_cnot_transversal(qa, qb, mode=args.mode)
        oracle = transversality.oracle_cnot if args.oracle else None
    else:
        rep = transversality.check_cz_transversal(qa, qb)
        oracle = transversality.oracle_cz if args.oracle else None
    payload = rep.to_dict()
    if gate == "cz" and getattr(args, "sufficient", False):
        payload["sufficient"] = transversality.check_cz_sufficient(qa, qb).to_dict()
    if oracle is not None and qa.k == qb.k:
        res = oracle(qa, qb)
        payload["oracle"] = {
            "ok": res.ok,
            "max_amplitude_deviation": res.max_deviation,
            "pairs_checked": res.pairs_checked,
            "witness": None if res.witness is None else {
                "psi_a": "".join(map(str, res.witness[0])),
                "psi_b": "".join(map(str, res.witness[1])),
            },
        }
        payload["checker_oracle_agree"] = res.ok == rep.verdict
        if res.ok != rep.verdict:
            payload["warning"] = "checker and oracle disagree; please report this input"
    payload["codes"] = {"a": _code_summary(qa), "b": _code_summary(qb)}
    _emit(payload, args.pretty, args.out)
    return 0 if rep.verdict else 1


def _cmd_verify(args) -> int:
    """Run both gate checkers with their oracles; exit 0 iff they agree."""
    qa, qb = _load_pair(args.code_a, args.code_b)
    payload: dict = {"codes": {"a": _code_summary(qa), "b": _code_summary(qb)}}
    agree = True
    for gate, checker, oracle in (
        ("cnot", transversality.check_cnot_transversal, transversality.oracle_cnot),
        ("cz", transversality.check_cz_transversal, transversality.oracle_cz),
    ):
        rep = checker(qa, qb)
        entry = rep.to_dict()
        if qa.k == qb.k:
            res = oracle(qa, qb)
            entry["oracle"] = {"ok": res.ok, "max_amplitude_deviation": res.max_deviation}
            entry["checker_oracle_agree"] = res.ok == rep.verdict
            agree = agree and (res.ok == rep.verdict)
        payload[gate] = entry
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
    pairing = (q1.enc_a @ q2.enc_a.T).row_strings() if q1.k else []
    check = transversality.check_cz_transversal(q1, q2)
    payload = {
        "written": [str(path1), str(path2)],
        "pairing_ABt": pairing,
        "cz_check": check.to_dict(),
        "codes": {"a": _code_summary(q1), "b": _code_summary(q2)},
    }
    _emit(payload, args.pretty, args.out)
    return 0 if check.verdict else 1


def _parse_sweep(arg: str) -> tuple[str, list[float]]:
    try:
        key, _, rng = arg.partition("=")
        start_s, stop_s, step_s = rng.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise ParseError(f"bad sweep argument {arg!r} (want key=start:stop:step)") from exc
    if key not in ("f1", "f2", "f3"):
        raise ParseError(f"sweep key must be f1, f2 or f3, not {key!r}")
    if step <= 0:
        raise ParseError("sweep step must be positive")
    values = []
    v = start
    while v <= stop + 1e-12:
        values.append(round(v, 12))
        v += step
    return key, values


def _cmd_simulate(args) -> int:
    cfg = repeater.load_config(args.config)
    if args.jobs:
        cfg = replace(cfg, jobs=args.jobs)
    if args.allow_nontransversal:
        cfg = replace(cfg, allow_nontransversal=True)
    if not args.sweep:
        report = repeater.run_local_swapping(cfg)
        _emit(report.to_dict(), args.pretty, args.out)
        return 0
    key, values = _parse_sweep(args.sweep)
    rows = ["f1,f2,f3,mode,samples,seed,logical_fidelity,logical_error_rate,standard_error"]
    for value in values:
        model = replace(cfg.model, **{key: value})
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
        payload = {
            "n": q.n,
            "k": q.k,
            "d": codes.css_distance(q),
            "d1": codes.min_distance(q.c1),
            "d2": codes.min_distance(q.c2),
        }
    else:
        code = codes.make_classical(gf2.load_matrix(args.path))
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
    if args.check:
        qa2 = codes.with_encoding(qa, enc)
        qb2 = codes.with_encoding(qb, enc)
        res = transversality.oracle_cnot(qa2, qb2)
        payload["oracle"] = {"ok": res.ok, "max_amplitude_deviation": res.max_deviation}
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
    p.add_argument("--jobs", type=int, default=0, help="Monte Carlo worker streams")
    p.add_argument("--allow-nontransversal", action="store_true",
                   help="simulate even if the pair fails the CNOT check")
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
