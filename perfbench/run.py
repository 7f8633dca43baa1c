"""csspair benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --workload NAME --write-reference

Set-up imports csspair from ./src and writes the workload's inputs, made
from --seed alone, under perfbench/out/.  After one untimed warm-up
round, the timed phase calls csspair.cli.main(argv) for each op of the
round, one op after another, and repeats whole rounds until --seconds
have passed (at least MIN_ROUNDS).  Outputs are checked after the timed
phase.  The last stdout line is a JSON object: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  A fuller result file is
written next to the inputs.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP pools at the cores this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Builder  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
OUT = HERE / "out"
REFERENCE_FILE = HERE / "reference.json"

DEFAULT_SEED = 1
MIN_ROUNDS = 3        # timed rounds per run, at least
SETUP_REPEATS = 9     # set-ups per untraced run; setup_s is their median
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class ProgramMissing(RuntimeError):
    """The checkout holds no csspair sources to benchmark."""


def import_csspair() -> SimpleNamespace:
    """Import csspair afresh from ./src (dropping any loaded copy)."""
    if not (SRC / "csspair" / "__init__.py").is_file():
        raise ProgramMissing(f"no csspair package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "csspair" or m.startswith("csspair.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"csspair.{name}") for name in tracing.LAYERS}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"csspair imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def build_inputs(workload: str, seed: int, inputs: Path, smoke: bool):
    """Timed set-up: import csspair, then generate and write the inputs."""
    shutil.rmtree(inputs, ignore_errors=True)
    start = time.perf_counter()
    cs = import_csspair()
    inputs.mkdir(parents=True)
    builder = _builder(cs, workload, seed, inputs, smoke)
    return time.perf_counter() - start, cs, builder


def _builder(cs, workload, seed, inputs, smoke):
    builder = Builder(cs, np.random.default_rng(seed), inputs, FIXTURES, smoke)
    WORKLOADS[workload](builder)
    return builder


def execute(cs, op) -> tuple:
    """Run one op through the CLI entry point; (rc, stdout, stderr, exception, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cs.cli.main(op.argv)
    except SystemExit as stop:
        rc = 0 if stop.code is None else stop.code if isinstance(stop.code, int) else 2
    except Exception as error:  # an op that crashes is a failed op, not a failed run
        exc = "".join(traceback.format_exception_only(type(error), error)).strip()
    elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), exc, elapsed


def run_phase(cs, ops, seconds: float, min_rounds: int, tracer=None) -> dict:
    """Closed loop over whole rounds until `seconds` have passed and min_rounds are done."""
    records = []
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = len(records)
            records.append((index,) + execute(cs, op))
        rounds += 1
    return {"records": records, "rounds": rounds, "wall": time.perf_counter() - start}


def check_records(checker, ops, records) -> tuple[list[str], list[dict]]:
    """Failure messages per failed execution, and the summary of each op's first run."""
    failures, summaries, seen = [], [None] * len(ops), {}
    for index, rc, out, err, exc, _ in records:
        key = (index, rc, out, exc)
        if key not in seen:
            seen[key] = checker.check(ops[index], rc, out, err, exc)
        errors, summary = seen[key]
        if summaries[index] is None:
            summaries[index] = summary
        if errors:
            failures.append(f"{ops[index].key}: {'; '.join(errors)}")
    return failures, summaries


def tail_percentile(ops_per_round: int) -> float:
    """Highest ladder percentile with at least 10 executions beyond it in MIN_ROUNDS rounds.

    It depends on the op mix only, so every seed reports the same percentile.
    """
    for p in TAIL_LADDER:
        if (1.0 - p / 100.0) * ops_per_round * MIN_ROUNDS >= 10:
            return p
    return TAIL_LADDER[-1]


def latency_stats(records: list, ops_per_round: int) -> dict:
    """Median and tail latency, each execution counted at its op's mean over the rounds.

    The shared host runs this process faster or slower for seconds to
    minutes at a time.  A quantile of raw latencies inside a block of
    equal-cost ops jumps with whichever speed held most of the run; the
    per-op mean moves only with the run's average speed, as ops_per_s does.
    Every op runs once per round, so each mean stands for `rounds` executions.
    """
    by_op = [[] for _ in range(ops_per_round)]
    for record in records:
        by_op[record[0]].append(record[-1])
    means = sorted(statistics.fmean(latencies) for latencies in by_op)
    p = tail_percentile(ops_per_round)
    rank = math.ceil(p / 100.0 * ops_per_round)
    return {"p50": statistics.median(means), "tail": means[rank - 1],
            "tail_percentile": p, "ops_beyond_tail": (ops_per_round - rank) * len(by_op[0]),
            "op_count": len(records)}


def load_references(workload: str, seed: int, smoke: bool) -> dict:
    """Reference summaries by op key: fixtures always, generated inputs at the default seed."""
    stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    refs = dict(stored["fixtures"].get(workload, {}))
    if seed == stored["default_seed"] and not smoke:
        refs.update(stored["seeded"].get(workload, {}))
    return refs


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_steal_s() -> float | None:
    """Machine-wide CPU time the hypervisor gave to other guests, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def machine_facts() -> dict:
    ram_mib = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                ram_mib = int(line.split()[1]) // 1024
    return {"nproc": NPROC, "ram_mib": ram_mib, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "git_commit": git_commit()}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        references: dict | None = None) -> dict:
    """One benchmark run; returns the full result record."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    work = OUT / tag
    inputs = work / "inputs"
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        elapsed, cs, builder = build_inputs(workload, seed, inputs, smoke)
        setups.append(elapsed)
    ops = builder.ops
    if references is None:
        references = load_references(workload, seed, smoke)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "machine": machine_facts(), "ops_per_round": len(ops),
        "sizes": {name: [min(v), max(v)] for name, v in sorted(builder.sizes.items())},
        "setup_runs_s": setups,
    }
    # One untimed round first: lazy imports, allocator and caches warm up.
    warmup = run_phase(cs, ops, 0, 1)
    steal_before = cpu_steal_s()
    if not trace:
        phase = run_phase(cs, ops, seconds, MIN_ROUNDS)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records = warmup["records"] + phase["records"]
    else:
        plain = run_phase(cs, ops, seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _builder(cs, workload, seed, inputs, smoke)   # traced set-up, for sampling.self_s
            phase = run_phase(cs, ops, seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.jsonl.gz", [ops[r[0]].key for r in phase["records"]])
        records = warmup["records"] + plain["records"] + phase["records"]
    steal_after = cpu_steal_s()
    if steal_before is not None and steal_after is not None:
        # Noise indicator on shared hosts: time other guests held this machine's CPUs.
        result["machine"]["steal_s_during_timed_phase"] = steal_after - steal_before
    failures, summaries = check_records(checks.Checker(cs, references), ops, records)
    stats = latency_stats(phase["records"], len(ops))
    attempted = len(records)
    result.update({
        "rounds": phase["rounds"], "attempted": attempted, "failed": len(failures),
        "op_fail_ratio": len(failures) / attempted, "tail": stats,
        "failures": failures[:50], "summaries": {op.key: s for op, s in zip(ops, summaries)},
        "op_latencies_s": {op.key: [r[-1] for r in phase["records"] if r[0] == i]
                           for i, op in enumerate(ops)},
    })
    if not trace:
        result["metrics"] = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(phase["records"]) / phase["wall"], "1/s"),
            "op_p50_s": (stats["p50"], "s"),
            "op_tail_s": (stats["tail"], "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "op_ok_ratio": (1.0 - len(failures) / attempted, "ratio"),
        }
    else:
        per_layer, shares = tracing.layer_metrics(tracer, phase["rounds"])
        overhead = (phase["wall"] / phase["rounds"]) / (plain["wall"] / plain["rounds"])
        per_layer["trace.overhead_ratio"] = overhead
        result["metrics"] = {name: (value, tracing.unit(name)) for name, value in per_layer.items()}
        result["layer_share"] = shares
        result["computed_counts"] = list(tracing.COMPUTED)
    work.mkdir(parents=True, exist_ok=True)
    (work / "result.json").write_text(json.dumps(result, indent=2, default=list) + "\n")
    return result


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    })


def write_reference(workload: str) -> None:
    """Store the default-seed summaries of one workload after its checks pass."""
    stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    result = run(workload, stored["default_seed"], 0, False, references={})
    if result["failed"]:
        raise SystemExit("refusing to store references from a run with failed ops:\n"
                         + "\n".join(result["failures"]))
    summaries = result["summaries"].items()
    stored["fixtures"][workload] = {k: s for k, s in summaries if k.startswith("fixture:")}
    stored["seeded"][workload] = {k: s for k, s in summaries if not k.startswith("fixture:")}
    REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def selftest() -> int:
    """Tiny-size run of every workload: all metric names, and a corrupted reference fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run(workload, DEFAULT_SEED, 0.5, trace, smoke=True)
            want = {(metric["name"], metric["unit"]) for metric in spec[section]}
            got = {(name, unit) for name, (_, unit) in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={int(trace)}: metrics differ by "
                                f"{sorted(got ^ want)}")
            if result["failed"]:
                problems.append(f"{workload}: {result['failures'][:3]}")
    refs = load_references("link-exact", DEFAULT_SEED, True)
    refs["fixture:sim_pair7.cfg"] = {"fidelity": refs["fixture:sim_pair7.cfg"]["fidelity"] + 1e-6}
    result = run("link-exact", DEFAULT_SEED, 0.5, False, smoke=True, references=refs)
    if not result["failed"] or not all("sim_pair7.cfg" in f for f in result["failures"]):
        problems.append(f"corrupted reference not reported as failed ops: {result['failures']}")
    for line in problems:
        print(f"selftest: {line}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default-seed output summaries of --workload")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        if args.write_reference:
            write_reference(args.workload)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    summary = {k: result[k] for k in ("workload", "seed", "rounds", "attempted", "failed")}
    print(json.dumps({**summary, "tail": result["tail"], "sizes": result["sizes"]}))
    for failure in result["failures"][:10]:
        print(f"failed: {failure}", file=sys.stderr)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
