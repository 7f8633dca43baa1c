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
patterns and maps them through the same packed columns.  It draws each
row's hit count first, Binomial(n, h) with h = f1 + f2 + f3, as one
multinomial per seed stream.  A row with no hit has image 0 at both
stations: syndrome 0, whose leader is the empty error with class 0, so
it counts as class (0, 0) without being decoded.  The rows with one hit
are split over the channel's (species, qubit) cells by one more
multinomial, and the rows with two hits over the (qubit pair, species
pair) cells by a third; each reads a class table built once per run.
Only the rows with three or more hits are drawn hit by hit, one pair of
uniforms per hit, and decoded, so a stream costs the two tables plus
those rows.

The reported logical fidelity is the probability that the residual
error after both stations decode acts trivially on every logical Bell
pair; per-pair marginals are reported alongside.  The logical error
rate is the mass of the other classes, summed directly: 1 - fidelity
would cancel near fidelity 1.
"""

from __future__ import annotations

import math
import os
import secrets
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from weakref import WeakKeyDictionary

import numpy as np

from . import gf2
from .codes import CssCode, load_css, logical_z_representatives
from .errors import (MAX_EXACT_BYTES, CapacityError, DimensionMismatchError,
                     NonTransversalError, ParseError)
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
# Monte Carlo draws each row's hit count first, and only the rows with three
# or more hits are drawn hit by hit, MC_CHUNK_ROWS rows at a time.  The chunk
# is a constant, so the draw does not depend on the worker count.  Each of W
# workers holds one chunk at a time, within MC_BYTES_PER_ROW bytes per row
# (4 MiB) whatever n, the sample count or the noise: the rows' hit counts,
# Floyd bitmasks and two images, one step's uniforms and cells, then the
# decoded classes and their `np.unique`.  Measured peaks reach 114 bytes per row.
# The class tables add about 24 bytes per cell, 9 C(n, 2) + 3n cells at most
# (17,205 at n = 62), and a few int64 vectors over those cells while built.
MC_CHUNK_ROWS = 1 << 15
MC_BYTES_PER_ROW = 128


class _BadValue(ValueError):
    """A rejected setting, naming the config keys (codeA, N, ...) whose values conflict."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


@dataclass
class ErrorModel:
    """Per-qubit-pair mixture weights (f1: Z on A, f2: X on B, f3: both)."""

    f1: float = 0.0
    f2: float = 0.0
    f3: float = 0.0

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
        e = np.asarray(e, dtype=np.uint8).ravel()
        if e.size != q.n:
            raise DimensionMismatchError(
                f"{species.upper()} error has length {e.size}, code has n={q.n}")
        dec = _station_decoder(q, species)
        support = np.flatnonzero(e % 2)
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
            raise _BadValue("station codes must share the block length", "codeA", "codeB")
        if self.qa.k != self.qb.k:
            raise _BadValue("the protocol pairs logical qubits one-to-one; k must match",
                            "codeA", "codeB")
        if self.mode not in ("exact", "montecarlo"):
            raise _BadValue(f"unknown mode {self.mode!r}", "mode")
        if self.mode == "montecarlo" and self.samples < 1:
            raise _BadValue("montecarlo mode needs samples >= 1", "samples", "mode")
        if self.jobs < 1:
            raise _BadValue("jobs must be >= 1", "jobs")
        for name, count in (("seed", self.seed), ("N", self.raw_pairs_n),
                            ("samples", self.samples)):
            if count is not None and count < 0:
                raise _BadValue(f"{name} must be nonnegative", name)
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


def _marginals(breakdown: np.ndarray, k: int) -> list[float]:
    """Per logical pair j: probability its Bell pair survives untouched.

    Bit j of both class indices is its own axis of a reshaped view, so
    the cells where both bits are 0 are summed in place, with no copy.
    """
    out = []
    for j in range(k):
        high, low = 1 << j, 1 << (k - 1 - j)
        out.append(float(breakdown.reshape(high, 2, low, high, 2, low)[:, 0, :, :, 0, :].sum()))
    return out


def _stream_counts(rng: np.random.Generator, rows: int, order: np.ndarray, pmf: np.ndarray,
                   tables, model: ErrorModel, cells_a: np.ndarray, cells_b: np.ndarray, joint):
    """Yield (joint classes, counts) of `rows` samples drawn from one seed stream.

    The channel hits each of a row's n qubits independently with
    h = f1 + f2 + f3, so the row's hit count J is Binomial(n, h), `pmf`.
    Given J = j, the hits sit on a uniform j-subset of the qubits, and each
    is Z on A, X on B or both with probability f1 / h, f2 / h, f3 / h: it is
    one of the cells s * n + q (species s, qubit q), which add
    `cells_a[s * n + q]` and `cells_b[s * n + q]` to the stations' packed
    images.  The stream is read in this order:

    - One multinomial splits the rows over j = 0..n, its categories in
      `order`, ascending probability: numpy gives the last category the
      remainder, so one of probability 0 is never drawn, and rounding lands
      on the likeliest.  The J = 0 rows have image 0 at both stations and
      count as class (0, 0).
    - For j = 1, then j = 2, one multinomial over `tables[j - 1]`'s
      categories splits the rows with j hits (see _mc_breakdown); each
      category's count is folded onto its joint class.
    - The J >= 3 rows, by descending j, are drawn MC_CHUNK_ROWS rows at a
      time, so a stream costs the two tables plus its rows with three or
      more hits.  Floyd's algorithm places a row's hits: step i, with
      t = n - j + i, takes qubit floor(U (t + 1)), or t when that one is
      taken (a bitmask per row), so the j qubits are a uniform j-subset.
      Step i reads one (U, V) pair of uniforms for each of the chunk's rows
      with more than i hits; V h picks the species, split at f1 and
      f1 + f2.  The chunk's images go through `joint`, which decodes them
      to joint classes class_a << kB | class_b.

    The counts of one yield are over distinct classes.
    """
    n = cells_a.size // 3
    per_j = np.empty(n + 1, dtype=np.int64)
    per_j[order] = rng.multinomial(rows, pmf[order])
    yield 0, per_j[0]
    for count, (p, fold, classes) in zip(per_j[1:3], tables):
        if count:  # a multinomial over 0 rows would read nothing from the stream
            hits = np.zeros(classes.size, dtype=np.int64)
            np.add.at(hits, fold, rng.multinomial(count, p))
            yield classes, hits
    edges = np.zeros(n - 1, dtype=np.int64)  # where the runs of rows with n, n - 1, ..., 3 hits start
    np.cumsum(per_j[:2:-1], out=edges[1:])
    f1, f12 = model.f1, model.f1 + model.f2
    for lo in range(0, rows - int(per_j[:3].sum()), MC_CHUNK_ROWS):
        cut = np.minimum(np.maximum(edges, lo), lo + MC_CHUNK_ROWS)
        hits = np.repeat(np.arange(n, 2, -1), cut[1:] - cut[:-1])
        first = n - hits  # Floyd's first t
        taken = np.zeros(hits.size, dtype=np.int64)
        img_a = np.zeros(hits.size, dtype=np.int64)
        img_b = np.zeros(hits.size, dtype=np.int64)
        for i, a in enumerate(np.searchsorted(-hits, -np.arange(hits[0]))):  # rows with hits > i
            u, v = rng.random((2, a))
            t = first[:a] + i
            pos = (u * (t + 1)).astype(np.int64)
            pos += (taken[:a] >> pos & 1) * (t - pos)  # t where pos is taken
            taken[:a] |= 1 << pos
            v *= model.hit_rate
            pos += n * (v >= f1) + n * (v >= f12)  # the cell: species Z, X or both
            img_a[:a] ^= cells_a[pos]
            img_b[:a] ^= cells_b[pos]
        yield np.unique(joint(img_a, img_b), return_counts=True)


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

    Each stream draws its rows' hit counts first (see _stream_counts):
    rows with no hit, one hit or two hits cost only the run's class tables,
    and only the rows with three or more hits are drawn hit by hit and
    decoded, one (U, V) pair of uniforms per hit.  h = f1 + f2 + f3 = 0
    draws nothing.  The pmf and both tables are built once per run, each
    through `residual`: one-hit cells s * n + q (species s, qubit q) with
    probability f_s / (h n), and two-hit cells (q1 < q2, s1, s2), qubit
    pairs in lexicographic order, with (f_s1 / h)(f_s2 / h) / C(n, 2) and
    the XOR of both cells' images: given two hits, they sit on a uniform
    2-subset with iid species.  A table keeps only cells of nonzero
    probability (a product of two small rates can underflow), so numpy's
    multinomial never hands such a cell its remainder.

    The streams are drawn by W = min(streams, usable cores, R // MC_CHUNK_ROWS)
    threads, at least one, where R = samples * P(J >= 3) is the run's
    expected hit-by-hit rows: with less than a chunk each, threads spend
    more handing the interpreter lock back and forth than they overlap.
    With W = 1 the calling thread draws every stream and no pool starts.
    Otherwise worker t draws streams t, t + W, ..., one chunk of at most
    MC_CHUNK_ROWS rows at a time, and adds each yield's class counts into
    the run's one int64 count array under a lock.  Integer sums do not
    depend on order, and a stream's draw does not depend on W, so neither
    do the counts.  Workers call only private functions and methods, so a
    tracer that wraps the public functions keeps one span stack, and the
    numpy loops they run release the interpreter lock.  The count array,
    the report's float64 copy and its nonzero mask, 17 bytes per class
    pair, must fit MAX_EXACT_BYTES before the array is allocated: like
    exact mode's check, this depends on the codes only.
    """
    m = qa.k + qb.k
    need = 17 << m
    if need > MAX_EXACT_BYTES:
        raise CapacityError(f"Monte Carlo needs {need} bytes for its counts over 2^{m} classes; "
                            f"the limit is {MAX_EXACT_BYTES}")
    dec_a = _station_decoder(qa, "z")
    dec_b = _station_decoder(qb, "x")
    assert dec_a.residual(0)[1] == dec_b.residual(0)[1] == 0, "image 0 must decode to class 0"
    counts = np.zeros((1 << qa.k, 1 << qb.k), dtype=np.int64)
    if not model.hit_rate:  # no entry is hit: nothing to draw
        counts[0, 0] = samples
        return counts
    n = qa.n
    hit = min(model.hit_rate, 1.0)  # ErrorModel admits sums up to 1 + 1e-12
    j = np.arange(n + 1)
    pmf = np.array([math.comb(n, i) for i in j], dtype=float) * hit**j * (1.0 - hit) ** (n - j)
    order = np.argsort(pmf, kind="stable")
    # Cell s * n + q is species s (0: Z on A, 1: X on B, 2: both) on qubit q.
    zero = np.zeros(n, dtype=np.int64)
    cells_a = np.concatenate([dec_a.columns, zero, dec_a.columns])
    cells_b = np.concatenate([zero, dec_b.columns, dec_b.columns])

    def joint(img_a: np.ndarray, img_b: np.ndarray) -> np.ndarray:
        return dec_a.residual(img_a)[1] << dec_b.k | dec_b.residual(img_b)[1]

    def table(p: np.ndarray, img_a: np.ndarray, img_b: np.ndarray):
        keep = p > 0  # numpy would give the last category the remainder, whatever its p
        classes, fold = np.unique(joint(img_a[keep], img_b[keep]), return_inverse=True)
        return p[keep], fold, classes

    rate = np.array([model.f1, model.f2, model.f3]) / model.hit_rate
    s1, s2 = np.meshgrid(*2 * [np.flatnonzero(rate)], indexing="ij")
    q1, q2 = np.triu_indices(n, 1)
    c1 = (s1 * n + q1[:, None, None]).ravel()
    c2 = (s2 * n + q2[:, None, None]).ravel()
    pair_p = np.broadcast_to(rate[s1] * rate[s2], (q1.size,) + s1.shape) / math.comb(n, 2)
    tables = [table(np.repeat(rate, n) / n, cells_a, cells_b),
              table(pair_p.ravel(), cells_a[c1] ^ cells_a[c2], cells_b[c1] ^ cells_b[c2])]
    streams = min(jobs, samples)
    base, extra = divmod(samples, streams)
    heavy = int(samples * pmf[3:].sum())  # rows expected to be drawn hit by hit
    workers = min(streams, _usable_cores(), max(1, heavy // MC_CHUNK_ROWS))
    cells, lock = counts.ravel(), threading.Lock()

    def draw(t: int) -> None:
        for w in range(t, streams, workers):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(w,)))
            for classes, hits in _stream_counts(rng, base + (1 if w < extra else 0), order, pmf,
                                                tables, model, cells_a, cells_b, joint):
                with lock:
                    cells[classes] += hits

    if workers == 1:
        draw(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(draw, range(workers)))  # re-raises a worker's exception
    return counts


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
        rate = float(breakdown.ravel()[1:].sum())  # the failing cells, not 1 - fidelity
    else:
        if seed is None:
            seed = secrets.randbits(32)
        counts = _mc_breakdown(cfg.qa, cfg.qb, cfg.model, samples, seed, cfg.jobs)
        rate = (samples - int(counts[0, 0])) / samples
        breakdown = counts / float(samples)
        del counts  # the report reads only its float64 copy, and that copy's mask below
    fid = float(breakdown[0, 0])
    stderr = None if cfg.mode == "exact" else float(np.sqrt(max(fid * (1.0 - fid), 0.0) / samples))
    za, xb = np.nonzero(breakdown > 0.0)  # row-major; skips a rounding-level negative cell
    keys = {_class_key(k, a, b): p
            for a, b, p in zip(za.tolist(), xb.tolist(), breakdown[za, xb].tolist())}
    return ProtocolReport(
        logical_fidelity=fid,
        logical_error_rate=rate,
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

_SWITCHES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _switch(text: str) -> bool:
    """An on/off config value: 1/true/yes or 0/false/no, in any case."""
    if text.lower() not in _SWITCHES:
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")
    return _SWITCHES[text.lower()]


def _code(text: str, folder: Path) -> CssCode:
    """The code in file `text`, a path relative to `folder`, named as written."""
    return load_css(folder / text, name=text)


# Each config key, spelled as documented: the dataclass and field it sets, and the
# field's parser.  A key the file omits keeps the field's default; a field without
# one makes its key required.
_CONFIG_KEYS = {
    "codeA": (ProtocolConfig, "qa", _code),
    "codeB": (ProtocolConfig, "qb", _code),
    "f1": (ErrorModel, "f1", float),
    "f2": (ErrorModel, "f2", float),
    "f3": (ErrorModel, "f3", float),
    "mode": (ProtocolConfig, "mode", str),
    "samples": (ProtocolConfig, "samples", int),
    "seed": (ProtocolConfig, "seed", int),
    "N": (ProtocolConfig, "raw_pairs_n", int),
    "override": (ProtocolConfig, "allow_nontransversal", _switch),
    "jobs": (ProtocolConfig, "jobs", int),
}


def load_config(path) -> ProtocolConfig:
    """Parse a key=value config file into a ProtocolConfig.

    Recognized keys: codeA codeB f1 f2 f3 mode samples seed N override
    jobs.  Keys are case-blind and may appear once; an unknown or
    repeated key is named as typed, a missing one as documented here.
    Code paths are resolved relative to the config file.  Values are
    parsed in file order, and the first that fails (a code file that
    cannot be read or parsed included) is reported at its line.  The
    dataclasses then check the values; one they refuse is reported at
    its line, and values that conflict (f1 + f2 + f3 above 1, say) at
    the last line among them.
    """
    path = Path(path)
    given: dict[str, tuple[int, str, str]] = {}  # key: (line number, line, value)
    for lineno, line in gf2._parse_file(path, gf2.content_lines):
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        typed, _, value = line.partition("=")
        typed = typed.strip()
        key = next((key for key in _CONFIG_KEYS if key.lower() == typed.lower()), None)
        if key is None:
            raise ParseError(f"unknown config key {typed!r}", line=lineno)
        if key in given:
            raise ParseError(f"duplicate config key {typed!r}", line=lineno)
        given[key] = (lineno, line, value.strip())
    for key, (cls, name, _) in _CONFIG_KEYS.items():
        if key not in given and next(f for f in fields(cls) if f.name == name).default is MISSING:
            raise ParseError(f"missing config key {key}")
    settings: dict[type, dict] = {ErrorModel: {}, ProtocolConfig: {}}
    for key, (lineno, line, text) in given.items():
        cls, name, parse = _CONFIG_KEYS[key]
        is_code = parse is _code
        try:
            settings[cls][name] = parse(text, path.parent) if is_code else parse(text)
        except (OSError, ValueError) as exc:
            message = f"{line}: {exc}" if is_code else f"bad config value: {exc}"
            raise ParseError(message, line=lineno) from exc
    try:
        return ProtocolConfig(model=ErrorModel(**settings[ErrorModel]),
                              **settings[ProtocolConfig])
    except _BadValue as exc:
        line = max((given[key][0] for key in exc.keys if key in given), default=None)
        raise ParseError(f"bad config value: {exc}", line=line) from exc
