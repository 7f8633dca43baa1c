"""Two-station repeater link simulation under a biased Pauli channel.

The link protocol (encode, share purified Bell pairs, teleport a
remote pairwise CNOT, decode at both stations) is Clifford throughout,
and the noise left after purification and gate teleportation is a
per-qubit-pair Pauli mixture: identity with probability 1-f1-f2-f3,
Z on station A's qubit with f1, X on station B's qubit with f2, and
the correlated Z(x)X with f3.  Fidelity questions therefore reduce to
classical syndrome bookkeeping; no state vectors appear on this path
(the statevec module independently validates the gate algebra).

Each station's decoder sees an error only through a linear map (its
syndrome and logical-class rows), so exact mode never lists the 4^n
error patterns: it propagates the joint distribution of both stations'
images, 2^m values with m <= n + k for CNOT-transversal pairs, one
qubit at a time.  Monte Carlo mode samples patterns and looks their
classes up in the same decoders' tables.

The reported logical fidelity is the probability that the residual
error after both stations decode acts trivially on every logical Bell
pair; per-pair marginals are reported alongside.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from weakref import WeakKeyDictionary

import numpy as np

from . import gf2
from .codes import CssCode, load_css, logical_z_representatives
from .errors import CapacityError, NonTransversalError, ParseError
from .gf2 import BitMatrix
from .transversality import check_cnot_transversal

MAX_EXACT_PATTERNS = 2**26
MAX_TABLE_LENGTH = 15
# Exact mode holds three float64 vectors over the 2^m decoder images.
EXACT_BYTES_PER_IMAGE = 24
MAX_EXACT_BYTES = 2**31
# Monte Carlo draws each seed stream in blocks of this many rows.
MC_CHUNK_ROWS = 1 << 16


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
                raise ValueError(f"{name} must be finite")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.f1 + self.f2 + self.f3 > 1.0 + 1e-12:
            raise ValueError("f1 + f2 + f3 must not exceed 1")

    @property
    def weights(self) -> tuple[float, float, float, float]:
        """(identity, Z_A, X_B, Z_A X_B) probabilities."""
        return (1.0 - self.f1 - self.f2 - self.f3, self.f1, self.f2, self.f3)


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
    qubit 1 on the most significant bit.  Ties between equal-weight
    leaders are broken by the lexicographic order of their support
    index tuples.
    """

    def __init__(self, stab: BitMatrix, pairing: BitMatrix):
        n = stab.cols
        if n > MAX_TABLE_LENGTH:
            raise CapacityError(f"coset-leader tables support n <= {MAX_TABLE_LENGTH}")
        self.r = stab.rows
        self.k = pairing.rows
        self.class_mask = (1 << self.k) - 1
        rows = np.vstack([stab.a, pairing.a]).astype(np.int64)
        self.columns = (rows << np.arange(len(rows) - 1, -1, -1)[:, None]).sum(axis=0)
        images = self.images()
        errors = np.arange(1 << n, dtype=np.int64)
        mask = errors.size - 1
        # Rank by weight, then by support tuple: among equal weights the
        # lexicographically first tuple is the larger int, so rank by its
        # complement.  The least rank per syndrome is its leader.
        rank = (np.bitwise_count(errors).astype(np.int64) << n) | (errors ^ mask)
        unreached = (n + 1) << n
        best = np.full(1 << self.r, unreached, dtype=np.int64)
        np.minimum.at(best, images >> self.k, rank)
        assert best.max() < unreached, "stabilizer matrix rows must be independent"
        self.leaders = (best & mask) ^ mask
        self.leader_class = images[self.leaders] & self.class_mask

    def images(self) -> np.ndarray:
        """Packed (syndrome, class) image of every error int 0..2^n-1."""
        images = np.zeros(1, dtype=np.int64)
        for column in self.columns[::-1]:
            images = np.concatenate([images, images ^ column])
        return images

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(syndrome, residual class) for every error int 0..2^n-1."""
        images = self.images()
        synd = images >> self.k
        return synd, (images & self.class_mask) ^ self.leader_class[synd]


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
        image = int(np.bitwise_xor.reduce(dec.columns[support], initial=0))
        synd = image >> dec.k
        correction = gf2.int_to_vector(int(dec.leaders[synd]), q.n)
        decoded.append((correction, (image & dec.class_mask) ^ int(dec.leader_class[synd])))
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
            raise ValueError("station codes must share the block length")
        if self.qa.k != self.qb.k:
            raise ValueError("the protocol pairs logical qubits one-to-one; k must match")
        if self.mode not in ("exact", "montecarlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "montecarlo" and self.samples < 1:
            raise ValueError("montecarlo mode needs samples >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


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


def _xor_axes(m: int, c: int) -> tuple[list[int], tuple[int, ...]]:
    """Shape and axes that turn a 2^m vector p into p[i ^ c] by flipping.

    XOR with c reverses the index bits under each run of set bits of c,
    so p is reshaped to one axis per run of equal bits and the axes of
    the set runs are flipped: a view, with no index array.
    """
    shape: list[int] = []
    flips: list[int] = []
    prev = None
    for bit in range(m - 1, -1, -1):
        on = (c >> bit) & 1
        if on == prev:
            shape[-1] *= 2
            continue
        if on:
            flips.append(len(shape))
        shape.append(2)
        prev = on
    return shape, tuple(flips)


def _image_distribution(cols_a: list[int], cols_b: list[int], m: int,
                        model: ErrorModel) -> np.ndarray:
    """Distribution of the joint image of a pattern over 2^m bits.

    Qubit j adds a_j on a Z error at A, b_j on an X error at B and both
    on the correlated error, so each qubit updates
    P <- f0 P + f1 P[i ^ a] + f2 P[i ^ b] + f3 P[i ^ a ^ b].  Every term
    is nonnegative, so images no pattern reaches stay exactly 0.  At
    most three 2^m vectors are alive at once.
    """
    f0, f1, f2, f3 = model.weights
    p = np.zeros(1 << m)
    p[0] = 1.0
    term = np.empty_like(p)
    for a, b in zip(cols_a, cols_b):
        nxt = p * f0
        for f, c in ((f1, a), (f2, b), (f3, a ^ b)):
            if f:
                shape, flips = _xor_axes(m, c)
                np.multiply(np.flip(p.reshape(shape), flips), f, out=term.reshape(shape))
                nxt += term
        p = nxt
    return p


def _exact_breakdown(qa: CssCode, qb: CssCode, model: ErrorModel) -> np.ndarray:
    """Joint class-mass matrix M[za, xb], exact over all error patterns.

    Both stations decode a pattern through their packed linear maps
    (Z errors on A, X errors on B), so only its joint image on m bits,
    ordered (s_A, c_A, s_B, c_B), matters.  The image distribution is
    folded onto residual classes: (s, c) lands on c ^ leader_class[s].
    """
    m = qa.x_stab.rows + qa.k + qb.z_stab.rows + qb.k
    need = EXACT_BYTES_PER_IMAGE << m
    if need > MAX_EXACT_BYTES:
        raise CapacityError(
            f"exact mode needs {need} bytes for 2^{m} decoder images; the limit is {MAX_EXACT_BYTES}")
    dec_a = _station_decoder(qa, "z")
    dec_b = _station_decoder(qb, "x")
    width_b = dec_b.r + dec_b.k
    p = _image_distribution([int(c) << width_b for c in dec_a.columns],
                            dec_b.columns.tolist(), m, model)
    # Gathering class y ^ leader_class[s] under syndrome s puts residual y in column y.
    p = p.reshape(1 << dec_a.r, 1 << dec_a.k, 1 << dec_b.r, 1 << dec_b.k)
    synd_b = np.arange(1 << dec_b.r)[:, None]
    p = p[:, :, synd_b, np.arange(1 << dec_b.k) ^ dec_b.leader_class[:, None]].sum(axis=2)
    synd_a = np.arange(1 << dec_a.r)[:, None]
    return p[synd_a, np.arange(1 << dec_a.k) ^ dec_a.leader_class[:, None]].sum(axis=0)


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


def _mc_breakdown(qa: CssCode, qb: CssCode, model: ErrorModel, samples: int,
                  seed: int, jobs: int) -> np.ndarray:
    """Joint class counts from Monte Carlo sampling.

    Each worker owns a child stream of the seed, so results are
    reproducible for a fixed (seed, samples, jobs) triple regardless of
    scheduling.
    """
    n = qa.n
    k = qa.k
    _, class_a = _station_decoder(qa, "z").tables()
    _, class_b = _station_decoder(qb, "x").tables()
    f0, f1, f2, _ = model.weights
    t1, t2, t3 = f0, f0 + f1, f0 + f1 + f2
    powers = (1 << np.arange(n - 1, -1, -1)).astype(np.int64)
    counts = np.zeros((1 << k, 1 << qb.k), dtype=np.int64)
    children = np.random.SeedSequence(seed).spawn(jobs)
    base, extra = divmod(samples, jobs)
    for w, child in enumerate(children):
        block = base + (1 if w < extra else 0)
        if block == 0:
            continue
        rng = np.random.default_rng(child)
        # Row chunks consume the stream in the same order as one draw.
        for start in range(0, block, MC_CHUNK_ROWS):
            u = rng.random((min(MC_CHUNK_ROWS, block - start), n))
            cat = (u >= t1).astype(np.int8) + (u >= t2) + (u >= t3)
            ez = ((cat == 1) | (cat == 3)).astype(np.int64) @ powers
            ex = ((cat == 2) | (cat == 3)).astype(np.int64) @ powers
            joint = class_a[ez] * (1 << qb.k) + class_b[ex]
            counts += np.bincount(joint, minlength=counts.size).reshape(counts.shape)
    return counts


def run_local_swapping(cfg: ProtocolConfig) -> ProtocolReport:
    """Simulate the two-station link and report logical Bell-pair fidelity.

    Refuses pairs that fail the pairwise-CNOT transversality check
    unless allow_nontransversal is set (useful for studying how badly a
    mismatched pair would perform).
    """
    notes: list[str] = []
    verdict = check_cnot_transversal(cfg.qa, cfg.qb, mode="coset").verdict
    if not verdict:
        if not cfg.allow_nontransversal:
            raise NonTransversalError(
                "codes are not pairwise CNOT-transversal; pass allow_nontransversal to simulate anyway"
            )
        notes.append("pair is not CNOT-transversal; simulated under override")
    k = cfg.qa.k
    if cfg.mode == "exact":
        breakdown = _exact_breakdown(cfg.qa, cfg.qb, cfg.model)
        total = breakdown.sum()
        if not abs(total - 1.0) <= 1e-9:
            raise AssertionError(f"pattern masses sum to {total}, expected 1")
        fid = float(breakdown[0, 0])
        stderr = None
        seed = cfg.seed
        samples = 0
    else:
        seed = cfg.seed if cfg.seed is not None else secrets.randbits(32)
        counts = _mc_breakdown(cfg.qa, cfg.qb, cfg.model, cfg.samples, seed, cfg.jobs)
        samples = cfg.samples
        breakdown = counts / float(samples)
        fid = float(breakdown[0, 0])
        stderr = float(np.sqrt(max(fid * (1.0 - fid), 0.0) / samples))
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


def load_config(path) -> ProtocolConfig:
    """Parse a key=value config file into a ProtocolConfig.

    Recognized keys: f1 f2 f3 mode samples seed codeA codeB N override
    jobs.  Code paths are resolved relative to the config file.
    """
    path = Path(path)
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {key.strip()!r}", line=lineno)
        values[key] = value.strip()
    for required in ("codea", "codeb"):
        if required not in values:
            raise ParseError(f"missing config key {required}", line=0)
    try:
        model = ErrorModel(
            f1=float(values.get("f1", "0")),
            f2=float(values.get("f2", "0")),
            f3=float(values.get("f3", "0")),
        )
        qa = load_css(path.parent / values["codea"])
        qb = load_css(path.parent / values["codeb"])
        return ProtocolConfig(
            qa=qa,
            qb=qb,
            model=model,
            mode=values.get("mode", "exact"),
            samples=int(values.get("samples", "0")),
            seed=int(values["seed"]) if "seed" in values else None,
            raw_pairs_n=int(values["n"]) if "n" in values else None,
            allow_nontransversal=values.get("override", "false").lower()
            in ("1", "true", "yes"),
            jobs=int(values.get("jobs", "1")),
        )
    except (ValueError,) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad config value: {exc}") from exc
