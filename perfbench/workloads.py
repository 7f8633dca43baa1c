"""Workload definitions: seeded inputs and the fixed op mix of one round.

A workload builder writes code, matrix and config files into an input
directory and returns the ops of one round.  Every generated input comes
from the numpy Generator seeded with the benchmark's --seed argument;
the program only ever sees the written files.  The bundled fixtures are
added unchanged, so their reference values hold for every seed.

The op mix of a round is fixed: the same slots (block length, logical
dimension, verdict signature, classical dimensions) are filled on every
seed, so op costs and the latency quantiles land on the same kind of op
whatever the seed.  Each builder's comment says why the workload exists
and which ROADMAP items it should and should not move.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

# Biased (f1, f2, f3) points: Z-heavy on station A, X-heavy on station B,
# and balanced with correlated errors.  Each point gets its own config file
# (rather than one `simulate --sweep` op) so that every op returns the JSON
# class breakdown the mass check needs.
POINTS = ((0.02, 0.005, 0.001), (0.005, 0.02, 0.001), (0.01, 0.01, 0.002))

# Monte Carlo streams per op; the nproc of the reference machine.  A
# constant, not the local core count, so that outputs are seed-stable.
MC_JOBS = 2


@dataclass
class Op:
    """One CLI invocation of the round."""

    key: str            # stable name; reference values are stored under it
    argv: list[str]     # arguments for csspair.cli.main
    kind: str           # output check that applies (see checks.py)
    expect: dict = field(default_factory=dict)  # facts known from construction


class Builder:
    """Collects the ops of one round and the sizes of their inputs."""

    def __init__(self, csspair, rng, inputs: Path, fixtures: Path, smoke: bool):
        self.cs = csspair
        self.rng = rng
        self.inputs = inputs
        self.fixtures = fixtures
        self.smoke = smoke
        self.ops: list[Op] = []
        self.sizes: dict[str, set[int]] = {}

    def add(self, key: str, argv: list[str], kind: str, **expect) -> None:
        self.ops.append(Op(key, [str(a) for a in argv], kind, expect))

    def note(self, name: str, value: int) -> None:
        self.sizes.setdefault(name, set()).add(int(value))

    def note_code(self, q) -> None:
        self.note("n", q.n)
        self.note("k", q.k)
        self.note("x_stab_rank", q.x_stab.rows)
        self.note("z_stab_rank", q.z_stab.rows)

    def save_pair(self, stem: str, qa, qb) -> tuple[Path, Path]:
        paths = (self.inputs / f"{stem}_a.code", self.inputs / f"{stem}_b.code")
        for q, path in zip((qa, qb), paths):
            self.cs.codes.save_css(q, path)
            self.note_code(q)
        return paths

    def write_config(self, name: str, code_a: Path, code_b: Path, point, **extra) -> Path:
        f1, f2, f3 = point
        lines = ["# format=1", f"codeA={os.path.relpath(code_a, self.inputs)}",
                 f"codeB={os.path.relpath(code_b, self.inputs)}",
                 f"f1={f1!r}", f"f2={f2!r}", f"f3={f3!r}", "N=16"]
        lines += [f"{key}={value}" for key, value in extra.items()]
        path = self.inputs / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def fixture(self, name: str) -> Path:
        return self.fixtures / name


# link-exact: exact-mode `simulate` at n = 11-13 (13 is MAX_EXACT_PATTERNS).
# Why: the 4^n enumeration in repeater is nearly all the work; no state
# vectors are built and min_distance never runs.
# Should move: ROADMAP item 2 (Walsh-Hadamard exact fidelity).
# Should stay unchanged: items 3 (sparse oracle) and 5 (distance).
def link_exact(b: Builder) -> None:
    sizes = (6, 6, 7, 8) if b.smoke else (11, 11, 12, 13)
    pairs = []
    for i, n in enumerate(sizes):
        qa, qb = b.cs.sampling.random_cnot_pair(b.rng, n)
        pairs.append((f"exact-n{n}-{i}", f"exact{i}", b.save_pair(f"pair{i}", qa, qb)))
    # The worked [[7,2]] pair at the same points, beside the bundled configs:
    # with as many cheap ops as n = 12 and 13 ops, the median falls in the
    # middle of the n = 11 block and the tail in the middle of the n = 12 block.
    pairs.append(("fixture:pair7", "pair7",
                  (b.fixture("pair7_station_a.code"), b.fixture("pair7_station_b.code"))))
    # Point-major order: ops of one size recur through the round rather than
    # back to back, so their mean latency samples more moments of the run.
    for j, point in enumerate(POINTS):
        for key, stem, (code_a, code_b) in pairs:
            cfg = b.write_config(f"{stem}_{j}.cfg", code_a, code_b, point, mode="exact")
            b.add(f"{key}-{j}", ["simulate", cfg], "simulate-exact")
    for name in ("sim_pair7.cfg", "sim_steane.cfg", "sim_zero_noise.cfg"):
        b.add(f"fixture:{name}", ["simulate", b.fixture(name)], "simulate-exact")


# link-mc: Monte Carlo `simulate` at n = 13-15 (15 is MAX_TABLE_LENGTH),
# 1e5-1e6 samples per op over MC_JOBS streams, plus sim_pair7_mc.cfg.
# Why: sampling and decoder lookups dominate and exact enumeration is
# bypassed; peak memory grows with samples (8 * samples * n bytes per stream).
# Should move: item 4 (chunked sampling, real jobs) and item 2's decoder
# collapse.  Should stay unchanged: item 2's transform.
def link_mc(b: Builder) -> None:
    sizes = (8, 8, 9, 10, 10) if b.smoke else (13, 13, 14, 15, 15)
    samples = (2_000, 5_000, 20_000) if b.smoke else (100_000, 300_000, 1_000_000)
    by_point: list[list[tuple[str, Path]]] = [[] for _ in POINTS]
    for i, n in enumerate(sizes):
        qa, qb = b.cs.sampling.random_cnot_pair(b.rng, n)
        code_a, code_b = b.save_pair(f"pair{i}", qa, qb)
        for j, (count, point) in enumerate(zip(samples, POINTS)):
            seed = int(b.rng.integers(2**31))
            cfg = b.write_config(f"mc{i}_{j}.cfg", code_a, code_b, point, mode="montecarlo",
                                 samples=count, seed=seed, jobs=MC_JOBS)
            by_point[j].append((f"mc-n{n}-{i}-{j}", cfg))
    # Point-major order, as in link-exact; the inputs are still drawn pair by pair.
    for point_ops in by_point:
        for key, cfg in point_ops:
            b.add(key, ["simulate", cfg], "simulate-mc")
    b.add("fixture:sim_pair7_mc.cfg", ["simulate", b.fixture("sim_pair7_mc.cfg")], "simulate-mc")


def _signature(T, qa, qb) -> str | None:
    """Name of the oracle path a pair takes, or None for a pair no slot wants.

    The label fixes how many logical pairs each oracle checks before it
    stops, which is what an op on the pair costs.
    """
    if qa.k != qb.k:
        return None
    cnot = T.check_cnot_transversal(qa, qb)
    cz = T.check_cz_transversal(qa, qb)
    zeros = tuple([0] * qa.k)
    first = (zeros, zeros)
    if cnot.verdict and not cz.verdict and cz.witness == first:
        return "transversal"      # CNOT oracle checks all 4^k pairs; CZ stops at once
    if cz.verdict and not cnot.verdict and cnot.witness == first:
        return "mirrored"         # CZ oracle checks all pairs plus the superposition
    if cnot.verdict or cz.verdict or cz.witness != first:
        return None
    if cnot.witness == first:
        return "unrelated"        # both oracles stop at the first pair
    if cnot.witness == (zeros[:-1] + (1,), zeros):
        return "near-miss"        # CNOT oracle stops at pair 2^k + 1
    return None


# certify: `verify` and `check-cnot --oracle` on a corpus of the four pair
# kinds sampling.random_valid_pair mixes (transversal, near-miss, unrelated,
# mirrored) at n = 8-11, in fixed slots, plus the pair7 fixtures and the
# counterexample.  Each slot draws from its kind's sampler directly, so
# set-up cost does not depend on how long random_valid_pair takes to hit a kind.
# Why: the dense 2^(2n) statevec arrays dominate time and memory; passing
# verdicts check all 4^k logical pairs and failing ones exit early, so both
# oracle paths run.  n stays <= 11 to keep peak RSS far below 7 GiB.
# Should move: item 3 (sparse oracle).  repeater never runs; min_distance
# runs once per round on a block of 11 (at most 2^10 codewords).
def certify(b: Builder) -> None:
    T, sampling = b.cs.transversality, b.cs.sampling
    samplers = {
        "transversal": lambda n, k: sampling.random_cnot_pair(b.rng, n, shared_encoding=True),
        "near-miss": lambda n, k: sampling.random_cnot_pair(b.rng, n, shared_encoding=False),
        "unrelated": lambda n, k: sampling.random_independent_pair(b.rng, n),
        "mirrored": lambda n, k: sampling.random_repaired_mirrored_pair(b.rng, n, k),
    }
    if b.smoke:
        slots = [(6, 2, label) for label in samplers]
    else:
        slots = ([(8, 2, label) for label in samplers] + [(9, 2, label) for label in samplers]
                 + [(10, 1, "transversal"), (10, 1, "mirrored"), (11, 1, "mirrored")])
    pairs: list[tuple[str, Path, Path, dict]] = []
    for n, k, label in slots:
        for _ in range(1000):
            qa, qb = samplers[label](n, k)
            if qa.k == k and _signature(T, qa, qb) == label:
                break
        else:
            raise RuntimeError(f"certify: no {label} pair with n={n}, k={k} in 1000 draws")
        stem = f"{label}-n{n}-k{k}"
        code_a, code_b = b.save_pair(stem, qa, qb)
        pairs.append((stem, code_a, code_b, {"cnot": label == "transversal",
                                             "cz": label == "mirrored"}))
    # One small `distance --css` per round, on the last slot's code (n = 11),
    # keeps codes.min_distance measured in a workload BENCHMARK.json lists
    # (screen, which stresses it, is not listed; see README.md).
    last_stem, last_code = pairs[-1][:2]
    b.add(f"{last_stem}:distance", ["distance", "--css", last_code], "distance-css",
          n=slots[-1][0], k=slots[-1][1])
    pairs.append(("fixture:pair7", b.fixture("pair7_station_a.code"),
                  b.fixture("pair7_station_b.code"), {"cnot": True}))
    pairs.append(("fixture:pair7-counterexample", b.fixture("pair7_station_a.code"),
                  b.fixture("pair7_counterexample_b.code"), {"cnot": False}))
    for stem, code_a, code_b, verdicts in pairs:
        b.add(f"{stem}:verify", ["verify", code_a, code_b], "verify", **verdicts)
        b.add(f"{stem}:check-cnot", ["check-cnot", code_a, code_b, "--oracle"],
              "check-cnot-oracle", cnot=verdicts["cnot"])


# screen: algebraic screening of mirrored candidate station pairs.  Each
# candidate runs `mirror` on seeded check matrices
# (sampling.random_mirrored_inputs), then `check-cnot`, `check-cz
# --sufficient`, `find-encoding` and `distance --css`, with classical
# dimensions from 14 up to MAX_DISTANCE_DIMENSION = 20.
# Why: the Gray-code loop in codes.min_distance and the gf2 algebra
# dominate; transversality runs algebraically (certify runs it through the
# oracle); no state vectors, no noise channel.
# Should move: item 5 (vectorised distance).  Items 2-4 should leave it unchanged.
def screen(b: Builder) -> None:
    gf2, sampling = b.cs.gf2, b.cs.sampling
    k = 2
    # Four candidates share (16, 16) so that the tail percentile falls inside
    # a block of equal-cost distance ops rather than between two sizes.
    if b.smoke:
        dims = ((8, 7), (7, 7), (7, 7), (7, 7), (7, 7), (7, 6), (6, 6))
    else:
        dims = ((20, 14), (16, 16), (16, 16), (16, 16), (16, 16), (15, 14), (14, 14))
    for i, (d1, d2) in enumerate(dims):
        n = d1 + d2 - k
        # The construction of sampling.random_mirrored_inputs with the rank
        # split pinned to the classical dimensions (that function draws the
        # split itself).  Nested X checks would make the pair CNOT-transversal.
        while True:
            g1 = sampling.random_full_rank(b.rng, n - d1, n)
            ortho = gf2.dual_basis(g1)
            g2 = sampling.random_full_rank(b.rng, d1 - k, ortho.rows) @ ortho
            if not gf2.subspace_leq(g2, g1):
                break
        z_path, x_path = b.inputs / f"cand{i}_z.mat", b.inputs / f"cand{i}_x.mat"
        gf2.save_matrix(g1, z_path)
        gf2.save_matrix(g2, x_path)
        for name, value in (("n", n), ("k", k), ("classical_dim", d1), ("classical_dim", d2),
                            ("z_stab_rank", g1.rows), ("x_stab_rank", g2.rows)):
            b.note(name, value)
        out_dir = b.inputs / f"cand{i}"
        code_a, code_b = out_dir / "mirrored_a.code", out_dir / "mirrored_b.code"
        stem = f"cand{i}-d{d1}-{d2}"
        b.add(f"{stem}:mirror", ["mirror", z_path, x_path, "--out-dir", out_dir], "mirror", k=k)
        b.add(f"{stem}:check-cnot", ["check-cnot", code_a, code_b], "check-cnot")
        b.add(f"{stem}:check-cz", ["check-cz", code_a, code_b, "--sufficient"],
              "check-cz-sufficient")
        b.add(f"{stem}:find-encoding", ["find-encoding", code_a, code_b], "find-encoding")
        b.add(f"{stem}:distance", ["distance", "--css", code_a], "distance-css", n=n, k=k)


WORKLOADS = {
    "link-exact": link_exact,
    "link-mc": link_mc,
    "certify": certify,
    "screen": screen,
}
