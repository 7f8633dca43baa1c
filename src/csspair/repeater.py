"""Two-station repeater link simulation under a biased Pauli channel.

The link protocol (encode, share purified Bell pairs, teleport a
remote pairwise CNOT, decode at both stations) is Clifford throughout,
and the noise left after purification and gate teleportation is a
per-qubit-pair Pauli mixture: identity with probability 1-f1-f2-f3,
Z on station A's qubit with f1, X on station B's qubit with f2, and
the correlated Z(x)X with f3.  Fidelity questions therefore reduce to
classical syndrome bookkeeping; no state vectors appear on this path
(the statevec module independently validates the gate algebra).

Each station's decoder (see _SyndromeDecoder) sees an error only
through a linear map (its syndrome and logical-class rows), and exact
mode, Monte Carlo mode and decode_css all read a station's residual
class off that map's packed image through the decoder's `residual`.
Exact mode never lists the 4^n error patterns: it propagates the joint
distribution of both stations' images, 2^m values with m <= n + k for
CNOT-transversal pairs, one qubit at a time, then folds each station's
images onto its residual classes.  Monte Carlo mode samples
patterns and maps them through the same packed columns.  It draws only
the (row, qubit) entries the channel hits, one pair of uniforms per hit
(the geometric gap to it and its species), so a sample costs O(n h)
with h = f1 + f2 + f3, not O(n).  A row with no hit has image 0 at both
stations: syndrome 0, whose leader is the empty error with class 0, so
it counts as class (0, 0) without being decoded.

The reported logical fidelity is the probability that the residual
error after both stations decode acts trivially on every logical Bell
pair; per-pair marginals are reported alongside.
"""

from __future__ import annotations

import math
import os
import secrets
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from weakref import WeakKeyDictionary

import numpy as np

from . import gf2
from .codes import CssCode, load_css, logical_z_representatives
from .errors import MAX_EXACT_BYTES, CapacityError, NonTransversalError, ParseError
from .gf2 import BitMatrix
from .transversality import check_cnot_transversal

MAX_EXACT_PATTERNS = 2**26
# Packed error ints put qubit 1 on bit n - 1 of an int64.
MAX_PACKED_LENGTH = 62
# The leader search holds two int64 tables over the 2^r syndromes, and a
# few int64 vectors over each layer's n steps from at most 2^r syndromes.
DECODER_BYTES_PER_SYNDROME = 16
DECODER_BYTES_PER_STEP = 48
# Exact mode holds three float64 vectors over the 2^m decoder images.
EXACT_BYTES_PER_IMAGE = 24
# Monte Carlo draws one (U, V) pair of uniforms per channel hit, and its
# workers together hold at most MC_BATCH_HITS hits: each of W workers draws
# its seed streams in batches of at most max(MC_BATCH_HITS // W, n + 1)
# pairs, n + 1 so that a row a batch ends inside can be carried over.  A
# batch's working set stays within MC_BYTES_PER_HIT per pair, whatever the
# sample count or noise: the two float64 draws, then two masks and a few
# int64 vectors over the hits and over the rows they hit (at most one per hit).
MC_BATCH_HITS = 1 << 16
MC_BYTES_PER_HIT = 96
# A longer gap between hits reads as this many entries with no hit (see
# _channel_hits), so a batch's gaps sum to less than 2^62.
MC_MAX_GAP = 1 << 32


class _BadValue(ValueError):
    """A rejected setting, naming the config keys whose values conflict."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


@dataclass
class ErrorModel:
    """Per-qubit-pair mixture weights (f1: Z on A, f2: X on B, f3: both)."""

    f1: float
    f2: float
    f3: float

    def __post_init__(self):
        for name in ("f1", "f2", "f3"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise _BadValue(f"{name} must be finite", name)
            if value < 0:
                raise _BadValue(f"{name} must be nonnegative", name)
        if self.f1 + self.f2 + self.f3 > 1.0 + 1e-12:
            raise _BadValue("f1 + f2 + f3 must not exceed 1",
                            *(name for name in ("f1", "f2", "f3") if getattr(self, name)))

    @property
    def weights(self) -> tuple[float, float, float, float]:
        """(identity, Z_A, X_B, Z_A X_B) probabilities."""
        return (1.0 - self.f1 - self.f2 - self.f3, self.f1, self.f2, self.f3)

    @property
    def hit_rate(self) -> float:
        """f1 + f2 + f3: the probability that the channel hits a qubit pair."""
        return self.f1 + self.f2 + self.f3


def enumerate_error_patterns(n: int, model: ErrorModel):
    """Yield all 4^n joint patterns (e_z on A, e_x on B, probability).

    Qubit 1 is the most significant base-4 digit; digits mean
    0: identity, 1: Z_A, 2: X_B, 3: Z_A X_B.  Probabilities multiply
    per qubit and sum to 1 over the stream.
    """
    if 4**n > MAX_EXACT_PATTERNS:
        raise CapacityError(f"4^{n} patterns exceed the exact-enumeration limit")
    w = model.weights
    for idx in range(4**n):
        e_z = np.zeros(n, dtype=np.uint8)
        e_x = np.zeros(n, dtype=np.uint8)
        p = 1.0
        rem = idx
        for q in range(n - 1, -1, -1):
            digit = rem & 3
            rem >>= 2
            p *= w[digit]
            e_z[q] = 1 if digit in (1, 3) else 0
            e_x[q] = 1 if digit in (2, 3) else 0
        yield e_z, e_x, p


class _SyndromeDecoder:
    """Minimum-weight coset-leader decoding for one Pauli species.

    Decoding sees an error only through one linear map: the rows of a
    stabilizer matrix (whose syndromes detect the errors) above the rows
    of a pairing matrix (whose inner products read out the residual
    logical class).  Column j of that map is packed into the int
    `columns[j]`, syndrome bits above the k class bits, so the image of
    an error is the XOR of the columns on its support.  Error ints put
    qubit 1 on the most significant bit.

    A breadth-first search over the 2^r syndromes, one weight layer at a
    time, sets leader(s) = e_i + leader(s ^ col_i) for the least qubit i
    that steps onto s.  The lexicographically first minimum-weight
    support starts at that i, so ties go to the first support tuple.
    """

    def __init__(self, stab: BitMatrix, pairing: BitMatrix):
        n = stab.cols
        if n > MAX_PACKED_LENGTH:
            raise CapacityError(f"packed decoding supports n <= {MAX_PACKED_LENGTH}, got n = {n}")
        self.r = stab.rows
        self.k = pairing.rows
        need = (DECODER_BYTES_PER_SYNDROME + DECODER_BYTES_PER_STEP * n) << self.r
        if need > MAX_EXACT_BYTES:
            raise CapacityError(f"the coset-leader search needs {need} bytes for 2^{self.r} "
                                f"syndromes; the limit is {MAX_EXACT_BYTES}")
        self.class_mask = (1 << self.k) - 1
        self.columns = np.array(gf2._row_words(np.vstack([stab.a, pairing.a]).T), dtype=np.int64)
        synd_cols = self.columns >> self.k
        class_cols = self.columns & self.class_mask
        self.leaders = np.full(1 << self.r, -1, dtype=np.int64)
        self.leaders[0] = 0
        self.leader_class = np.zeros(1 << self.r, dtype=np.int64)
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            # Qubit-major, so the first step onto a syndrome is the least qubit's.
            steps = (frontier ^ synd_cols[:, None]).ravel()
            fresh = np.flatnonzero(self.leaders[steps] < 0)
            reached, first = np.unique(steps[fresh], return_index=True)
            qubit = fresh[first] // frontier.size
            parent = reached ^ synd_cols[qubit]
            self.leaders[reached] = self.leaders[parent] | (1 << (n - 1 - qubit))
            self.leader_class[reached] = self.leader_class[parent] ^ class_cols[qubit]
            frontier = reached
        assert self.leaders.min() >= 0, "stabilizer matrix rows must be independent"

    def residual(self, images):
        """(syndrome, residual class) of packed images, XORs of `columns`."""
        synd = images >> self.k
        return synd, (images & self.class_mask) ^ self.leader_class[synd]

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(syndrome, residual class) for every error int 0..2^n-1: a test reference."""
        return self.residual(gf2.span(self.columns))


_decoder_cache: "WeakKeyDictionary[CssCode, dict]" = WeakKeyDictionary()


def _station_decoder(q: CssCode, species: str) -> _SyndromeDecoder:
    """Decoder for X errors (species 'x') or Z errors (species 'z') on q."""
    cache = _decoder_cache.setdefault(q, {})
    if species not in cache:
        if species == "x":
            cache[species] = _SyndromeDecoder(q.z_stab, logical_z_representatives(q))
        elif species == "z":
            cache[species] = _SyndromeDecoder(q.x_stab, q.enc_a)
        else:
            raise ValueError(f"unknown error species {species!r}")
    return cache[species]


@dataclass
class LogicalClass:
    """Residual logical operator, as X and Z multi-indices."""

    x: tuple[int, ...]
    z: tuple[int, ...]

    @property
    def trivial(self) -> bool:
        return not any(self.x) and not any(self.z)

    def __str__(self) -> str:
        terms = [f"X{i}" for i, b in enumerate(self.x, start=1) if b]
        terms += [f"Z{i}" for i, b in enumerate(self.z, start=1) if b]
        return "·".join(terms) if terms else "I"


def decode_css(q: CssCode, e_x, e_z) -> tuple[np.ndarray, np.ndarray, LogicalClass]:
    """Decode a Pauli error (X part e_x, Z part e_z) on code q.

    Syndromes come from the opposite-species stabilizers; corrections
    are precomputed minimum-weight coset leaders; the residual logical
    class is read off by pairing the corrected error against the
    logical representatives.
    """
    decoded = []
    for species, e in (("x", e_x), ("z", e_z)):
        dec = _station_decoder(q, species)
        support = np.flatnonzero(np.asarray(e, dtype=np.uint8) % 2)
        synd, residual = dec.residual(np.bitwise_xor.reduce(dec.columns[support]))
        decoded.append((gf2.int_to_vector(int(dec.leaders[synd]), q.n), int(residual)))
    (corr_x, x_class), (corr_z, z_class) = decoded
    cls = LogicalClass(
        x=tuple(int(b) for b in gf2.int_to_vector(x_class, q.k)),
        z=tuple(int(b) for b in gf2.int_to_vector(z_class, q.k)),
    )
    return corr_x, corr_z, cls


@dataclass
class ProtocolConfig:
    qa: CssCode
    qb: CssCode
    model: ErrorModel
    mode: str = "exact"
    samples: int = 0
    seed: int | None = None
    raw_pairs_n: int | None = None
    allow_nontransversal: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.qa.n != self.qb.n:
            raise _BadValue("station codes must share the block length", "codea", "codeb")
        if self.qa.k != self.qb.k:
            raise _BadValue("the protocol pairs logical qubits one-to-one; k must match",
                            "codea", "codeb")
        if self.mode not in ("exact", "montecarlo"):
            raise _BadValue(f"unknown mode {self.mode!r}", "mode")
        if self.mode == "montecarlo" and self.samples < 1:
            raise _BadValue("montecarlo mode needs samples >= 1", "samples", "mode")
        if self.jobs < 1:
            raise _BadValue("jobs must be >= 1", "jobs")
        for name, count in (("seed", self.seed), ("N", self.raw_pairs_n),
                            ("samples", self.samples)):
            if count is not None and count < 0:
                raise _BadValue(f"{name} must be nonnegative", name.lower())
        if self.mode == "exact":  # the report would echo a setting that never ran
            for name, unused in (("samples", self.samples != 0), ("seed", self.seed is not None),
                                 ("jobs", self.jobs != 1)):
                if unused:
                    raise _BadValue(f"{name} applies to montecarlo mode only", name, "mode")


@dataclass
class ProtocolReport:
    logical_fidelity: float
    logical_error_rate: float
    class_breakdown: dict[str, float]
    per_pair_marginals: list[float]
    mode: str
    seed: int | None
    samples: int
    workers: int
    raw_pairs_n: int | None
    standard_error: float | None = None
    transversality_verdict: bool | None = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "logical_fidelity": self.logical_fidelity,
            "logical_error_rate": self.logical_error_rate,
            "class_breakdown": dict(sorted(self.class_breakdown.items())),
            "per_pair_marginals": list(self.per_pair_marginals),
            "mode": self.mode,
            "seed": self.seed,
            "samples": self.samples,
            "workers": self.workers,
            "raw_pairs_N": self.raw_pairs_n,
            "standard_error": self.standard_error,
            "transversality_verdict": self.transversality_verdict,
            "notes": list(self.notes),
        }


def _class_key(k: int, za: int, xb: int) -> str:
    a = format(za, f"0{k}b") if k else ""
    b = format(xb, f"0{k}b") if k else ""
    return f"zA={a},xB={b}"


def _image_distribution(cols_a: list[int], cols_b: list[int], m: int,
                        model: ErrorModel) -> np.ndarray:
    """Distribution of the joint image of a pattern over 2^m bits.

    Qubit j adds a_j on a Z error at A, b_j on an X error at B and both
    on the correlated error, so each qubit updates
    P <- f0 P + f1 P[i ^ a] + f2 P[i ^ b] + f3 P[i ^ a ^ b].  P has one
    axis per bit, most significant first, so P[i ^ c] is the view of P
    flipped along c's set bits.  Every term is nonnegative, so images no
    pattern reaches stay exactly 0.  At most three 2^m arrays are alive
    at once; the result keeps the m axes.
    """
    f0, f1, f2, f3 = model.weights
    p = np.zeros((2,) * m)
    p.flat[0] = 1.0
    term = np.empty_like(p)
    for a, b in zip(cols_a, cols_b):
        nxt = p * f0
        for f, c in ((f1, a), (f2, b), (f3, a ^ b)):
            if f:
                flips = tuple(axis for axis in range(m) if c >> (m - 1 - axis) & 1)
                np.multiply(np.flip(p, flips), f, out=term)
                nxt += term
        p = nxt
    return p


def _exact_breakdown(qa: CssCode, qb: CssCode, model: ErrorModel) -> np.ndarray:
    """Joint class-mass matrix M[za, xb], exact over all error patterns.

    Both stations decode a pattern through their packed linear maps
    (Z errors on A, X errors on B), so only its joint image matters: A's
    w_A image bits above B's w_B.  Each station's `residual` maps its 2^w
    images to residual classes, as in Monte Carlo, and `bincount` sums
    the masses onto them: B's classes under each A image first, then A's.

    A station no channel reaches (A when f1 = f3 = 0, B when f2 = f3 = 0)
    keeps image 0, class 0, so its w is 0 (else r + k).  The byte check
    counts both stations, so whether a pair fits ignores the noise.
    """
    m = qa.x_stab.rows + qa.k + qb.z_stab.rows + qb.k
    need = EXACT_BYTES_PER_IMAGE << m
    if need > MAX_EXACT_BYTES:
        raise CapacityError(
            f"exact mode needs {need} bytes for 2^{m} decoder images; the limit is {MAX_EXACT_BYTES}")
    dec_a = _station_decoder(qa, "z")
    dec_b = _station_decoder(qb, "x")
    _, f1, f2, f3 = model.weights
    # An unreached station's columns enter only zero-weight terms, which are skipped.
    wa = dec_a.r + dec_a.k if f1 or f3 else 0
    wb = dec_b.r + dec_b.k if f2 or f3 else 0
    p = _image_distribution([int(c) << wb for c in dec_a.columns], dec_b.columns.tolist(),
                            wa + wb, model)
    # bincount adds in input order, so each cell sums over syndromes in ascending order.
    kb = 1 << dec_b.k
    nb = kb if wb else 1  # B's classes in the image: class 0 alone when B is unreached
    _, class_b = dec_b.residual(np.arange(1 << wb))
    p = np.bincount((np.arange(1 << wa)[:, None] * nb + class_b).ravel(), p.ravel(), nb << wa)
    _, class_a = dec_a.residual(np.arange(1 << wa))
    p = np.bincount((class_a[:, None] * kb + np.arange(nb)).ravel(), p, kb << dec_a.k)
    return p.reshape(-1, kb)


def exact_logical_fidelity(qa: CssCode, qb: CssCode, model: ErrorModel) -> float:
    """Probability that both stations decode back to the identity class."""
    return float(_exact_breakdown(qa, qb, model)[0, 0])


def _marginals(breakdown: np.ndarray, k: int) -> list[float]:
    """Per logical pair j: probability its Bell pair survives untouched."""
    out = []
    za = np.arange(breakdown.shape[0])
    xb = np.arange(breakdown.shape[1])
    for j in range(k):
        bit = 1 << (k - 1 - j)
        ok_a = (za & bit) == 0
        ok_b = (xb & bit) == 0
        out.append(float(breakdown[np.ix_(ok_a, ok_b)].sum()))
    return out


def _channel_hits(pairs: np.ndarray, model: ErrorModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gap before each channel hit and the hit's species, one (U, V) row of `pairs` per hit.

    The channel hits each (row, qubit) entry independently with
    h = f1 + f2 + f3 > 0, so the gap from one hit to the next is
    Geometric(h) on {1, 2, ...}: by inversion, 1 + floor(log1p(-U) /
    log1p(-h)), which is 1 for every U when h = 1.  V h < f1 makes the hit
    Z on A (z), f1 <= V h < f1 + f2 X on B (x), and the rest both.

    A gap longer than MC_MAX_GAP reads as MC_MAX_GAP entries, the last
    with neither species.  The wait for a hit is memoryless, so the next
    gap starts afresh and the hits keep their law, and no int64 sum of a
    batch's gaps can overflow, however many samples a stream holds.
    """
    f1, f2, h = model.f1, model.f2, model.hit_rate
    scale = math.log1p(-h) if h < 1 else -math.inf
    wait = np.log1p(-pairs[:, 0])
    np.maximum(wait, scale * (MC_MAX_GAP + 1), out=wait)  # bounds the quotient below
    wait /= scale
    gaps = wait.astype(np.int64)  # floor, as wait >= 0
    gaps += 1
    del wait
    kind = pairs[:, 1] * h
    z = (kind < f1) | (kind >= f1 + f2)
    x = kind >= f1
    long = np.flatnonzero(gaps > MC_MAX_GAP)
    gaps[long] = MC_MAX_GAP
    z[long] = x[long] = False
    return gaps, z, x


def _stream_counts(rng: np.random.Generator, rows: int, model: ErrorModel, cap: int,
                   dec_a: _SyndromeDecoder, dec_b: _SyndromeDecoder) -> np.ndarray:
    """Joint class counts of `rows` samples drawn hit by hit from one seed stream.

    The rows' (row, qubit) entries are read as one flat run, row after
    row, and the stream as one (U, V) pair per hit (see _channel_hits).
    Pairs are drawn in batches of about the hits still expected, at most
    max(cap, n + 1), and `rng.random` reads the stream pair by pair, so
    the counts do not depend on the batch sizes.  A batch is decoded up
    to its last row, which may get more hits: that row's pairs are
    carried over to the next batch.  Each hit XORs its qubit's packed
    column into its row's image at every station it reaches, one
    `reduceat` per station over the hits in row order.  A row with no hit
    has image 0 at both stations, class (0, 0), and is not decoded.
    """
    n = dec_a.columns.size
    counts = np.zeros((1 << dec_a.k, 1 << dec_b.k), dtype=np.int64)
    entries = rows * n
    last = -1  # the entry of the last decoded hit
    decoded = 0  # rows with a decoded hit
    kept = np.empty((0, 2))
    while True:
        left = entries - last  # a hit g entries past `last` lies in the stream iff g < left
        expected = left * max(model.hit_rate, 1 / MC_MAX_GAP)  # pairs still to draw
        size = max(len(kept) + 1, min(cap, int(expected + 4 * math.sqrt(expected)) + 8))
        pairs = np.empty((size, 2))
        pairs[:len(kept)] = kept
        rng.random(out=pairs[len(kept):])
        offset, z, x = _channel_hits(pairs, model)
        np.cumsum(offset, out=offset)  # gaps to entries past `last`, below 2^62 (see MC_MAX_GAP)
        got = int(np.searchsorted(offset, min(left, 1 << 62)))
        at = offset[:got] + last % n  # entries past the start of the row of `last`
        row = at // n
        ended = got < size
        if not ended:
            got = int(np.searchsorted(row, row[-1]))
            kept = pairs[got:].copy()
        del pairs
        if got:
            # Each hit row's first hit; the batch's first hit lies past the row of `last`.
            first = np.flatnonzero(np.r_[True, row[1:got] != row[:got - 1]])
            qubit = at[:got] - row[:got] * n
            last += int(offset[got - 1])
            del offset, at, row  # freed before the column gathers, which set the peak working set
            _, class_a = dec_a.residual(np.bitwise_xor.reduceat(dec_a.columns[qubit] * z[:got], first))
            _, class_b = dec_b.residual(np.bitwise_xor.reduceat(dec_b.columns[qubit] * x[:got], first))
            joint = class_a * counts.shape[1] + class_b
            counts += np.bincount(joint, minlength=counts.size).reshape(counts.shape)
            decoded += first.size
        if ended:
            counts[0, 0] += rows - decoded
            return counts


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mc_breakdown(qa: CssCode, qb: CssCode, model: ErrorModel, samples: int,
                  seed: int, jobs: int) -> np.ndarray:
    """Joint class counts from Monte Carlo sampling.

    The samples are split over `jobs` seed streams, child streams of
    the seed.  The stream count is part of what fixes the sample:
    results are reproducible for a fixed (seed, samples, jobs) triple.
    Streams past the `samples`-th would draw no rows, so they are never
    made.  Stream w is seeded where it is drawn, as
    SeedSequence(seed, spawn_key=(w,)), which is the w-th child of
    SeedSequence(seed).spawn; no list of children is held, so memory
    does not grow with the stream count.

    Each stream draws only the channel's hits: one (U, V) pair of
    uniforms per hit, the gap to it and its species (see _channel_hits
    and _stream_counts), so a stream costs O(rows n h) with
    h = f1 + f2 + f3, and h = 0 draws nothing.

    The streams are drawn in parallel by W = min(streams, usable cores)
    worker threads: worker t draws streams t, t + W, ... in batches of
    at most MC_BATCH_HITS // W hits and keeps its own counts, which are
    summed at the end.  Integer sums do not depend on order, and a
    stream's counts do not depend on its batches, so the counts do not
    depend on W.  Workers call only private functions and methods, so a
    tracer that wraps the public functions keeps one span stack, and the
    numpy loops they run release the interpreter lock.
    """
    dec_a = _station_decoder(qa, "z")
    dec_b = _station_decoder(qb, "x")
    assert dec_a.residual(0)[1] == dec_b.residual(0)[1] == 0, "image 0 must decode to class 0"
    shape = (1 << qa.k, 1 << qb.k)
    if not model.hit_rate:  # no entry is hit: nothing to draw
        counts = np.zeros(shape, dtype=np.int64)
        counts[0, 0] = samples
        return counts
    streams = min(jobs, samples)
    base, extra = divmod(samples, streams)
    workers = min(streams, _usable_cores())
    cap = max(1, MC_BATCH_HITS // workers)

    def draw(t: int) -> np.ndarray:
        counts = np.zeros(shape, dtype=np.int64)
        for w in range(t, streams, workers):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(w,)))
            counts += _stream_counts(rng, base + (1 if w < extra else 0), model, cap, dec_a, dec_b)
        return counts

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(draw, range(workers)))


def run_local_swapping(cfg: ProtocolConfig) -> ProtocolReport:
    """Simulate the two-station link and report logical Bell-pair fidelity.

    Refuses pairs that fail the pairwise-CNOT transversality check
    unless allow_nontransversal is set (config key `override`; useful
    for studying how badly a mismatched pair would perform).
    """
    notes: list[str] = []
    verdict = check_cnot_transversal(cfg.qa, cfg.qb, mode="coset").verdict
    if not verdict:
        if not cfg.allow_nontransversal:
            raise NonTransversalError(
                "codes are not pairwise CNOT-transversal; set override=1 to simulate anyway"
            )
        notes.append("pair is not CNOT-transversal; simulated under override")
    k = cfg.qa.k
    seed, samples = cfg.seed, cfg.samples
    if cfg.mode == "exact":
        breakdown = _exact_breakdown(cfg.qa, cfg.qb, cfg.model)
        total = breakdown.sum()
        if not abs(total - 1.0) <= 1e-9:
            raise AssertionError(f"pattern masses sum to {total}, expected 1")
    else:
        if seed is None:
            seed = secrets.randbits(32)
        counts = _mc_breakdown(cfg.qa, cfg.qb, cfg.model, samples, seed, cfg.jobs)
        breakdown = counts / float(samples)
    fid = float(breakdown[0, 0])
    stderr = None if cfg.mode == "exact" else float(np.sqrt(max(fid * (1.0 - fid), 0.0) / samples))
    keys = {}
    for za in range(breakdown.shape[0]):
        for xb in range(breakdown.shape[1]):
            if breakdown[za, xb] > 0.0:
                keys[_class_key(k, za, xb)] = float(breakdown[za, xb])
    return ProtocolReport(
        logical_fidelity=fid,
        logical_error_rate=1.0 - fid,
        class_breakdown=keys,
        per_pair_marginals=_marginals(breakdown, k),
        mode=cfg.mode,
        seed=seed,
        samples=samples,
        workers=cfg.jobs,
        raw_pairs_n=cfg.raw_pairs_n,
        standard_error=stderr,
        transversality_verdict=verdict,
        notes=notes,
    )


# -- config files -----------------------------------------------------------------

_CONFIG_KEYS = {"f1", "f2", "f3", "mode", "samples", "seed", "codea", "codeb", "n",
                "override", "jobs"}
_SWITCHES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _switch(text: str) -> bool:
    """An on/off config value: 1/true/yes or 0/false/no, in any case."""
    if text.lower() not in _SWITCHES:
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")
    return _SWITCHES[text.lower()]


def load_config(path) -> ProtocolConfig:
    """Parse a key=value config file into a ProtocolConfig.

    Recognized keys: f1 f2 f3 mode samples seed codeA codeB N override
    jobs.  Keys are case-blind and may appear once.  Code paths are
    resolved relative to the config file.  A bad value is reported at
    its line; values that conflict (f1 + f2 + f3 above 1, say) at the
    last line among them.
    """
    path = Path(path)
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    texts: dict[str, str] = {}
    for lineno, line in gf2._parse_file(path, gf2.content_lines):
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        typed, _, value = line.partition("=")
        key = typed.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {typed.strip()!r}", line=lineno)
        if key in values:
            raise ParseError(f"duplicate config key {key!r}", line=lineno)
        values[key] = value.strip()
        lines[key] = lineno
        texts[key] = line
    for required in ("codea", "codeb"):
        if required not in values:
            raise ParseError(f"missing config key {required}")

    def parsed(key: str, convert, default):
        """The value of `key` through `convert`, or default when the file omits it."""
        if key not in values:
            return default
        try:
            return convert(values[key])
        except ValueError as exc:
            raise ParseError(f"bad config value: {exc}", line=lines[key]) from exc

    def code(key: str) -> CssCode:
        """The code file `key` names; its errors name the file and the key's line."""
        try:
            return load_css(path.parent / values[key], name=values[key])
        except ValueError as exc:
            raise ParseError(f"{texts[key]}: {exc}", line=lines[key]) from exc

    try:
        model = ErrorModel(
            f1=parsed("f1", float, 0.0),
            f2=parsed("f2", float, 0.0),
            f3=parsed("f3", float, 0.0),
        )
        return ProtocolConfig(
            qa=code("codea"),
            qb=code("codeb"),
            model=model,
            mode=values.get("mode", "exact"),
            samples=parsed("samples", int, 0),
            seed=parsed("seed", int, None),
            raw_pairs_n=parsed("n", int, None),
            allow_nontransversal=parsed("override", _switch, False),
            jobs=parsed("jobs", int, 1),
        )
    except _BadValue as exc:
        line = max(lines.get(key, 0) for key in exc.keys)
        raise ParseError(f"bad config value: {exc}", line=line or None) from exc
