"""Repeater link simulation: channel enumeration, decoding, fidelity."""

import sys
import tracemalloc
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from csspair import (
    BitMatrix,
    ClassicalCode,
    ErrorModel,
    ProtocolConfig,
    decode_css,
    dual_basis,
    enumerate_error_patterns,
    exact_logical_fidelity,
    load_config,
    make_classical,
    make_css,
    run_local_swapping,
)
from csspair import gf2, repeater
from csspair.errors import CapacityError, NonTransversalError, ParseError
from csspair.sampling import random_cnot_pair, random_repaired_mirrored_pair

from conftest import HAMMING_ROWS, STANDARD_SELF_PAIRS, cyclic_code, x_checked_code


def weight_tail_bound(n, p, min_weight=2):
    return sum(comb(n, w) * p**w * (1 - p) ** (n - w) for w in range(min_weight, n + 1))


def z_strong_code():
    """[[7,4]] code: distance-3 against Z errors, distance-1 against X."""
    full = make_classical(BitMatrix.identity(7))
    return make_css(full, make_classical(BitMatrix.from_strings(HAMMING_ROWS)))


def x_strong_code():
    """[[7,4]] code: distance-3 against X errors, distance-1 against Z."""
    ham = make_classical(BitMatrix.from_strings(HAMMING_ROWS))
    return make_css(ham, make_classical(BitMatrix.identity(7)))


def test_error_model_validation():
    ErrorModel(0.1, 0.2, 0.3)
    with pytest.raises(ValueError):
        ErrorModel(-0.1, 0, 0)
    with pytest.raises(ValueError):
        ErrorModel(0.5, 0.5, 0.2)


def test_enumerate_patterns_single_qubit():
    model = ErrorModel(0.1, 0.2, 0.05)
    patterns = list(enumerate_error_patterns(1, model))
    assert len(patterns) == 4
    table = {(int(ez[0]), int(ex[0])): p for ez, ex, p in patterns}
    assert table[(0, 0)] == pytest.approx(0.65)
    assert table[(1, 0)] == pytest.approx(0.1)
    assert table[(0, 1)] == pytest.approx(0.2)
    assert table[(1, 1)] == pytest.approx(0.05)


def test_enumerate_patterns_noiseless():
    patterns = [(ez, ex, p) for ez, ex, p in enumerate_error_patterns(3, ErrorModel(0, 0, 0))
                if p > 0]
    assert len(patterns) == 1
    ez, ex, p = patterns[0]
    assert p == 1.0 and not ez.any() and not ex.any()


def test_enumerate_patterns_weights_sum_to_one():
    model = ErrorModel(0.01, 0.01, 0.0)
    total = sum(p for _, _, p in enumerate_error_patterns(7, model))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_enumerate_patterns_capacity():
    with pytest.raises(CapacityError):
        next(enumerate_error_patterns(14, ErrorModel(0, 0, 0)))


def test_decode_zero_error(steane):
    corr_x, corr_z, cls = decode_css(steane, np.zeros(7), np.zeros(7))
    assert not corr_x.any() and not corr_z.any()
    assert cls.trivial
    assert str(cls) == "I"


def test_decode_single_errors_on_distance3_code(steane):
    for qubit in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[qubit] = 1
        _, _, cls_z = decode_css(steane, np.zeros(7), e)
        _, _, cls_x = decode_css(steane, e, np.zeros(7))
        assert cls_z.trivial, f"Z error on qubit {qubit + 1} not corrected"
        assert cls_x.trivial, f"X error on qubit {qubit + 1} not corrected"


def test_decode_logical_representative_lands_in_logical_class(steane, pair7_a):
    for q in (steane, pair7_a):
        for i in range(q.k):
            row = q.enc_a.row(i)
            _, _, cls = decode_css(q, row, np.zeros(q.n))
            assert cls.x[i] == 1
            assert not any(cls.z)
            expected = tuple(1 if j == i else 0 for j in range(q.k))
            assert cls.x == expected


def test_leader_tables_match_weight_then_lexicographic_search():
    """Leaders equal a first-found search by weight, then by support tuple.

    Equal-weight leaders can differ in logical class, so the tie-break
    changes fidelity and must not drift.
    """
    rng = np.random.default_rng(777)
    pairs = [random_cnot_pair(rng, n) for n in (4, 5, 6, 7, 8, 9, 10, 11, 12)]
    rng = np.random.default_rng(778)
    pairs += [random_repaired_mirrored_pair(rng, n) for n in (4, 5, 6, 7, 8, 9, 10, 11, 12)]
    for qa, qb in pairs:
        n = qa.n
        for q in (qa, qb):
            for species, stab, pairing in (("x", q.z_stab, repeater.logical_z_representatives(q)),
                                           ("z", q.x_stab, q.enc_a)):
                leaders = {}
                for weight in range(n + 1):
                    for support in combinations(range(n), weight):
                        e = np.zeros(n, dtype=np.uint8)
                        e[list(support)] = 1
                        leaders.setdefault(gf2.vector_to_int(stab.a @ e % 2), e)
                dec = repeater._station_decoder(q, species)
                for synd, e in leaders.items():
                    assert int(dec.leaders[synd]) == gf2.vector_to_int(e)
                    assert int(dec.leader_class[synd]) == gf2.vector_to_int(pairing.a @ e % 2)


def test_exact_matches_pattern_enumeration(pair7_a, pair7_b):
    """Dual route: the vectorized kernel vs. per-pattern decoding."""
    model = ErrorModel(0.01, 0.02, 0.005)
    slow_ok = 0.0
    for e_z, e_x, p in enumerate_error_patterns(7, model):
        _, _, cls_a = decode_css(pair7_a, np.zeros(7), e_z)
        _, _, cls_b = decode_css(pair7_b, e_x, np.zeros(7))
        if not any(cls_a.z) and not any(cls_b.x):
            slow_ok += p
    fast = exact_logical_fidelity(pair7_a, pair7_b, model)
    assert fast == pytest.approx(slow_ok, abs=1e-12)


def test_zero_noise_gives_unit_fidelity(pair7_a, pair7_b):
    cfg = ProtocolConfig(qa=pair7_a, qb=pair7_b, model=ErrorModel(0, 0, 0))
    rep = run_local_swapping(cfg)
    assert rep.logical_fidelity == pytest.approx(1.0, abs=1e-12)
    assert rep.class_breakdown == {"zA=00,xB=00": 1.0}
    assert rep.per_pair_marginals == [1.0, 1.0]


def test_steane_pair_matches_independent_hamming_decoder(steane):
    """Textbook cross-check: an independently coded [7,4] coset-leader
    decoder computes the same station-B success mass."""
    p = 0.01
    fid = exact_logical_fidelity(steane, steane, ErrorModel(0.0, p, 0.0))
    simplex = dual_basis(BitMatrix.from_strings(HAMMING_ROWS))
    h = simplex.a
    leaders = {}
    for w in range(8):
        for sup in combinations(range(7), w):
            e = np.zeros(7, dtype=np.uint8)
            e[list(sup)] = 1
            syn = tuple((h @ e) % 2)
            leaders.setdefault(syn, e)
    p_ok = 0.0
    for bits in product((0, 1), repeat=7):
        e = np.array(bits, dtype=np.uint8)
        w = int(e.sum())
        residual = e ^ leaders[tuple((h @ e) % 2)]
        if gf2.solve_row(simplex, residual) is not None:
            p_ok += p**w * (1 - p) ** (7 - w)
    assert fid == pytest.approx(p_ok, abs=1e-12)


def test_distance3_pair_is_weight1_correctable(steane):
    p = 0.01
    bound = weight_tail_bound(7, p)
    err_a = 1.0 - exact_logical_fidelity(steane, steane, ErrorModel(p, 0.0, 0.0))
    err_b = 1.0 - exact_logical_fidelity(steane, steane, ErrorModel(0.0, p, 0.0))
    assert err_a <= bound
    assert err_b <= bound


def test_breakdown_sums_to_one(pair7_a, pair7_b):
    cfg = ProtocolConfig(qa=pair7_a, qb=pair7_b, model=ErrorModel(0.02, 0.01, 0.005))
    rep = run_local_swapping(cfg)
    assert sum(rep.class_breakdown.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(m >= rep.logical_fidelity - 1e-12 for m in rep.per_pair_marginals)


@pytest.mark.parametrize("param", ["f1", "f2", "f3"])
def test_fidelity_monotone_in_each_parameter(steane, pair7_a, pair7_b, param):
    grid = [0.0, 0.005, 0.01, 0.02]
    for qa, qb in ((steane, steane), (pair7_a, pair7_b)):
        fids = []
        for value in grid:
            kwargs = {"f1": 0.0, "f2": 0.0, "f3": 0.0}
            kwargs[param] = value
            fids.append(exact_logical_fidelity(qa, qb, ErrorModel(**kwargs)))
        assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:])), (param, fids)


def test_bias_matched_assignment_beats_swapped():
    """Z-heavy channel: the Z-strong code belongs on station A."""
    model = ErrorModel(0.02, 0.001, 0.0)
    zc, xc = z_strong_code(), x_strong_code()
    good = ProtocolConfig(qa=zc, qb=xc, model=model, allow_nontransversal=True)
    bad = ProtocolConfig(qa=xc, qb=zc, model=model, allow_nontransversal=True)
    fid_good = run_local_swapping(good).logical_fidelity
    fid_bad = run_local_swapping(bad).logical_fidelity
    assert fid_good > fid_bad


def test_nontransversal_pair_refused_without_override():
    cfg = ProtocolConfig(qa=z_strong_code(), qb=x_strong_code(),
                         model=ErrorModel(0.01, 0.01, 0.0))
    with pytest.raises(NonTransversalError):
        run_local_swapping(cfg)


def test_montecarlo_reproducible_and_consistent(pair7_a, pair7_b):
    model = ErrorModel(0.01, 0.01, 0.0)
    cfg = ProtocolConfig(qa=pair7_a, qb=pair7_b, model=model,
                         mode="montecarlo", samples=100_000, seed=987, jobs=1)
    rep1 = run_local_swapping(cfg)
    rep2 = run_local_swapping(cfg)
    assert rep1.to_dict() == rep2.to_dict()
    exact = exact_logical_fidelity(pair7_a, pair7_b, model)
    assert abs(rep1.logical_fidelity - exact) <= 3 * rep1.standard_error


def test_montecarlo_worker_streams_deterministic(pair7_a, pair7_b):
    model = ErrorModel(0.01, 0.01, 0.002)
    cfg = ProtocolConfig(qa=pair7_a, qb=pair7_b, model=model,
                         mode="montecarlo", samples=20_000, seed=5, jobs=4)
    assert run_local_swapping(cfg).to_dict() == run_local_swapping(cfg).to_dict()


def test_montecarlo_draws_seed_when_missing(pair7_a, pair7_b):
    cfg = ProtocolConfig(qa=pair7_a, qb=pair7_b, model=ErrorModel(0.01, 0, 0),
                         mode="montecarlo", samples=100)
    rep = run_local_swapping(cfg)
    assert isinstance(rep.seed, int)


def test_config_loader(fixtures_dir):
    cfg = load_config(fixtures_dir / "sim_pair7_mc.cfg")
    assert cfg.mode == "montecarlo"
    assert cfg.samples == 100_000
    assert cfg.seed == 20240817
    assert cfg.model.f1 == 0.01 and cfg.model.f2 == 0.01 and cfg.model.f3 == 0.0
    assert cfg.qa.n == 7 and cfg.qb.n == 7
    assert cfg.raw_pairs_n == 16


def test_config_loader_errors(tmp_path, fixtures_dir):
    bad = tmp_path / "bad.cfg"
    bad.write_text("codeA=steane.code\ncodeB=steane.code\nwat=1\n")
    with pytest.raises(ParseError, match="unknown config key"):
        load_config(bad)
    bad.write_text("codeA=steane.code\ncodeB=steane.code\nJobZ=2\n")
    with pytest.raises(ParseError, match="line 3: unknown config key 'JobZ'"):
        load_config(bad)
    missing = tmp_path / "missing.cfg"
    missing.write_text("f1=0.01\n")
    with pytest.raises(ParseError, match="missing config key"):
        load_config(missing)


def test_protocol_requires_matching_k(pair7_a, pair7_counterexample):
    with pytest.raises(ValueError):
        ProtocolConfig(qa=pair7_a, qb=pair7_counterexample, model=ErrorModel(0, 0, 0))


def test_trivial_single_qubit_code_certain_error():
    # [[1,1]] code with no stabilizers: nothing is correctable, so a
    # certain Z error is a certain logical error.
    full = make_css(make_classical(BitMatrix.identity(1)),
                    make_classical(BitMatrix.identity(1)))
    assert exact_logical_fidelity(full, full, ErrorModel(1.0, 0.0, 0.0)) == 0.0
    assert exact_logical_fidelity(full, full, ErrorModel(0.0, 0.0, 0.0)) == 1.0


def test_error_model_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        for name in ("f1", "f2", "f3"):
            kwargs = {"f1": 0.0, "f2": 0.0, "f3": 0.0, name: bad}
            with pytest.raises(ValueError, match="finite"):
                ErrorModel(**kwargs)


def test_config_loader_rejects_nan(tmp_path, fixtures_dir):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(f"codeA={fixtures_dir / 'steane.code'}\n"
                   f"codeB={fixtures_dir / 'steane.code'}\nf1=nan\n")
    with pytest.raises(ParseError, match="finite"):
        load_config(cfg)


def test_exact_mass_check_catches_nan(monkeypatch, pair7_a, pair7_b):
    monkeypatch.setattr(repeater, "_exact_breakdown",
                        lambda qa, qb, model: np.full((4, 4), np.nan))
    cfg = ProtocolConfig(qa=pair7_a, qb=pair7_b, model=ErrorModel(0.01, 0.0, 0.0))
    with pytest.raises(AssertionError, match="sum to nan"):
        run_local_swapping(cfg)


def _digit_tally(qa, qb):
    """Per residual class (za, xb): how many patterns have each digit count.

    Every pattern of enumerate_error_patterns is decoded with decode_css;
    a pattern with c1 Z_A, c2 X_B and c3 Z_A X_B digits has probability
    f0^(n-c1-c2-c3) f1^c1 f2^c2 f3^c3 under any model.
    """
    n = qa.n
    zero = np.zeros(n, dtype=np.uint8)
    class_a, class_b, tally = {}, {}, {}
    for e_z, e_x, _ in enumerate_error_patterns(n, ErrorModel(0.0, 0.0, 0.0)):
        key_z, key_x = e_z.tobytes(), e_x.tobytes()
        if key_z not in class_a:
            class_a[key_z] = gf2.vector_to_int(decode_css(qa, zero, e_z)[2].z)
        if key_x not in class_b:
            class_b[key_x] = gf2.vector_to_int(decode_css(qb, e_x, zero)[2].x)
        both = int((e_z & e_x).sum())
        digits = (int(e_z.sum()) - both, int(e_x.sum()) - both, both)
        per_class = tally.setdefault((class_a[key_z], class_b[key_x]), {})
        per_class[digits] = per_class.get(digits, 0) + 1
    return tally


def _enumerated_masses(tally, n, model):
    f0, f1, f2, f3 = model.weights
    masses = {}
    for cls, per_class in tally.items():
        masses[cls] = sum(count * f0 ** (n - c1 - c2 - c3) * f1**c1 * f2**c2 * f3**c3
                          for (c1, c2, c3), count in per_class.items())
    return masses


def test_exact_breakdown_matches_enumeration_on_random_pairs():
    """Propagation over the decoder image vs per-pattern decoding.

    The models have zero components, so some classes are unreachable:
    both routes must agree on which classes carry mass, not only on the
    masses.
    """
    rng = np.random.default_rng(20261017)
    sizes = [4] * 8 + [5] * 8 + [6] * 8 + [7] * 4 + [8] * 2
    for n in sizes:
        qa, qb = random_cnot_pair(rng, n)
        tally = _digit_tally(qa, qb)
        f1, f2 = (float(x) for x in rng.uniform(0.01, 0.3, size=2))
        models = [ErrorModel(f1, 0.0, 0.0), ErrorModel(0.0, f2, 0.0), ErrorModel(0.0, 0.0, f1),
                  ErrorModel(f1, f2, 0.0), ErrorModel(0.0, 0.0, 1.0), ErrorModel(0.0, 0.0, 0.0),
                  ErrorModel(f1 / 2, f2 / 2, 0.05)]
        for model in models:
            fast = repeater._exact_breakdown(qa, qb, model)
            slow = np.zeros_like(fast)
            for (za, xb), mass in _enumerated_masses(tally, n, model).items():
                slow[za, xb] = mass
            assert np.abs(fast - slow).max() <= 1e-12, (n, model)
            assert np.array_equal(fast > 0.0, slow > 0.0), (n, model)


def test_exact_mode_runs_past_pattern_limit():
    """n = 14 has 4^14 patterns, past MAX_EXACT_PATTERNS, but at most 2^(n+k) images."""
    qa, qb = random_cnot_pair(np.random.default_rng(14), 14)
    f = 0.02
    rep = run_local_swapping(ProtocolConfig(qa=qa, qb=qb, model=ErrorModel(0.0, 0.0, f)))
    assert sum(rep.class_breakdown.values()) == pytest.approx(1.0, abs=1e-9)
    # Correlated errors only: e_z = e_x, so summing over the 2^14 patterns
    # with each station's decoder tables gives the breakdown directly.
    _, class_a = repeater._station_decoder(qa, "z").tables()
    _, class_b = repeater._station_decoder(qb, "x").tables()
    weight = np.bitwise_count(np.arange(1 << 14)).astype(np.int64)
    prob = f**weight * (1 - f) ** (14 - weight)
    kb = 1 << qb.k
    expected = np.bincount(class_a * kb + class_b, weights=prob, minlength=kb * kb)
    got = np.zeros(kb * kb)
    for za in range(kb):
        for xb in range(kb):
            got[za * kb + xb] = rep.class_breakdown.get(repeater._class_key(qa.k, za, xb), 0.0)
    assert np.abs(got - expected).max() <= 1e-12


def test_exact_capacity_checked_before_allocation():
    # [[15,15]] with no stabilizers: 2^30 decoder images.
    full = make_css(make_classical(BitMatrix.identity(15)),
                    make_classical(BitMatrix.identity(15)))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2\\^30"):
            exact_logical_fidelity(full, full, ErrorModel(0.01, 0.0, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exact_working_set_within_byte_estimate():
    # [[9,9]] with no stabilizers: 2^18 images, three float64 vectors.
    full = make_css(make_classical(BitMatrix.identity(9)),
                    make_classical(BitMatrix.identity(9)))
    model = ErrorModel(0.01, 0.02, 0.005)
    exact_logical_fidelity(full, full, model)  # builds the decoders outside the trace
    tracemalloc.start()
    try:
        fid = exact_logical_fidelity(full, full, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fid == pytest.approx((1 - 0.035) ** 9, abs=1e-12)
    assert peak <= (repeater.EXACT_BYTES_PER_IMAGE << 18) + (1 << 20)


def test_montecarlo_chunks_match_one_shot_draw(monkeypatch, pair7_a, pair7_b):
    """Batched draws consume each seed stream exactly like one draw of all its pairs."""
    monkeypatch.setattr(repeater, "MC_BATCH_HITS", 1 << 11)  # several batches per stream
    model = ErrorModel(0.02, 0.01, 0.005)
    samples, seed, jobs = 2 * (1 << 15) + 7, 31337, 2
    counts = repeater._mc_breakdown(pair7_a, pair7_b, model, samples, seed, jobs)
    for w in range(jobs):
        block = samples // jobs + (1 if w < samples % jobs else 0)
        assert block * 7 * model.hit_rate > 2 * repeater.MC_BATCH_HITS
    assert np.array_equal(counts, stream_reference_counts(pair7_a, pair7_b, model, samples, seed, jobs))


def test_montecarlo_memory_bounded_in_samples(pair7_a, pair7_b):
    # One draw of 4e5 x 7 doubles would take 22 MB; chunks stay near 4 MB.
    cfg = ProtocolConfig(qa=pair7_a, qb=pair7_b, model=ErrorModel(0.01, 0.01, 0.0),
                         mode="montecarlo", samples=400_000, seed=3)
    run_local_swapping(cfg)  # builds the decoder tables outside the trace
    tracemalloc.start()
    try:
        run_local_swapping(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20


def stream_reference_counts(qa, qb, model, samples, seed, jobs):
    """Class counts from each stream's hit pairs, drawn in one call, via tables().

    Stream w reads its rows' (row, qubit) entries as one flat run and draws
    one (U, V) pair per hit: the gap to the hit is 1 + floor(log1p(-U) /
    log1p(-h)), its species Z on A when V h < f1 or V h >= f1 + f2, X on B
    when V h >= f1.  Every row is then decoded whole through the 2^n tables.
    No gap reaches MC_MAX_GAP at the rates the tests use.
    """
    n = qa.n
    _, class_a = repeater._station_decoder(qa, "z").tables()
    _, class_b = repeater._station_decoder(qb, "x").tables()
    f1, f2, h = model.f1, model.f2, model.hit_rate
    powers = 1 << np.arange(n - 1, -1, -1)
    streams = min(jobs, samples)
    expected = np.zeros((1 << qa.k, 1 << qb.k), dtype=np.int64)
    for w, child in enumerate(np.random.SeedSequence(seed).spawn(streams)):
        block = samples // streams + (1 if w < samples % streams else 0)
        z = np.zeros(block * n, dtype=bool)
        x = np.zeros(block * n, dtype=bool)
        if h:
            draws = int(block * n * h + 10 * np.sqrt(block * n * h)) + 100
            u, v = np.random.default_rng(child).random((draws, 2)).T
            with np.errstate(divide="ignore"):  # log1p(-1) = -inf: every gap is 1
                gaps = 1 + np.floor(np.log1p(-u) / np.log1p(-h))
            entry = np.cumsum(gaps).astype(np.int64) - 1
            assert entry[-1] >= block * n, "draw more pairs"
            inside = entry < block * n
            entry, kind = entry[inside], v[inside] * h
            z[entry[(kind < f1) | (kind >= f1 + f2)]] = True
            x[entry[kind >= f1]] = True
        rows_z, rows_x = z.reshape(block, n) @ powers, x.reshape(block, n) @ powers
        np.add.at(expected, (class_a[rows_z], class_b[rows_x]), 1)
    return expected


@pytest.mark.parametrize("f", [(0.0, 0.0, 0.0), (0.3, 0.3, 0.4), (0.05, 0.0, 0.01),
                               (0.0, 0.05, 0.01), (0.0, 0.0, 1.0)])
@pytest.mark.parametrize("pair", ["pair7", "random15"])
def test_montecarlo_sparse_fold_matches_dense_reference_at_edge_models(pair, f, pair7_a, pair7_b):
    # No hits; every entry a hit (f0 = 0); coinciding thresholds; certain correlated errors.
    qa, qb = (pair7_a, pair7_b) if pair == "pair7" else random_cnot_pair(np.random.default_rng(15), 15)
    model = ErrorModel(*f)
    samples, seed, jobs = (1 << 15) + 3, 4242, 3
    counts = repeater._mc_breakdown(qa, qb, model, samples, seed, jobs)
    assert np.array_equal(counts, stream_reference_counts(qa, qb, model, samples, seed, jobs))


def test_montecarlo_spawns_no_stream_past_samples(pair7_a, pair7_b):
    model = ErrorModel(0.1, 0.1, 0.05)
    repeater._mc_breakdown(pair7_a, pair7_b, model, 1, 0, 1)  # builds the decoders outside the trace
    tracemalloc.start()
    try:
        counts = repeater._mc_breakdown(pair7_a, pair7_b, model, 20, 77, 2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(counts, repeater._mc_breakdown(pair7_a, pair7_b, model, 20, 77, 20))
    assert peak < 1 << 20


def test_montecarlo_stream_seeds_do_not_grow_memory(pair7_a, pair7_b):
    # Spawning all 1000 child seeds up front held about 350 KiB.
    model = ErrorModel(0.1, 0.1, 0.05)
    repeater._mc_breakdown(pair7_a, pair7_b, model, 1, 0, 1)  # builds the decoders outside the trace
    tracemalloc.start()
    try:
        counts = repeater._mc_breakdown(pair7_a, pair7_b, model, 1000, 5, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(counts, stream_reference_counts(pair7_a, pair7_b, model, 1000, 5, 1000))
    assert peak < 128 << 10


def test_montecarlo_working_set_within_chunk_estimate():
    # f0 = 0: every entry is a hit, one batch of MC_BATCH_HITS pairs at a time.
    qa, qb = random_cnot_pair(np.random.default_rng(15), 15)
    model = ErrorModel(0.3, 0.3, 0.4)
    repeater._mc_breakdown(qa, qb, model, 1, 0, 1)  # builds the decoders outside the trace
    estimate = repeater.MC_BATCH_HITS * repeater.MC_BYTES_PER_HIT
    for samples in (1 << 15, 1 << 17):
        tracemalloc.start()
        try:
            counts = repeater._mc_breakdown(qa, qb, model, samples, 5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == samples
        assert peak <= estimate, samples


def test_montecarlo_working_set_within_batch_estimate_at_low_noise():
    # Nearly every hit starts its own row, so the row vectors are as long as the hit vectors.
    qa, qb = random_cnot_pair(np.random.default_rng(15), 15)
    model = ErrorModel(0.001, 0.001, 0.0001)
    repeater._mc_breakdown(qa, qb, model, 1, 0, 1)  # builds the decoders outside the trace
    estimate = repeater.MC_BATCH_HITS * repeater.MC_BYTES_PER_HIT
    samples = 1 << 22  # about twice MC_BATCH_HITS hits
    tracemalloc.start()
    try:
        counts = repeater._mc_breakdown(qa, qb, model, samples, 5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == samples
    assert peak <= estimate


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_montecarlo_counts_do_not_depend_on_worker_count(cores, monkeypatch, pair7_a, pair7_b):
    # Three workers on five streams: worker 0 draws streams 0 and 3, worker 2 stream 2 alone.
    monkeypatch.setattr(repeater, "_usable_cores", lambda: cores)
    model = ErrorModel(0.05, 0.03, 0.01)
    samples, seed, jobs = 5 * (2 * (1 << 15) + 1) + 3, 99, 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # many more thread switches than the default
    try:
        counts = repeater._mc_breakdown(pair7_a, pair7_b, model, samples, seed, jobs)
    finally:
        sys.setswitchinterval(interval)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, stream_reference_counts(pair7_a, pair7_b, model, samples, seed, jobs))


def test_montecarlo_threads_capped_by_streams_and_cores(monkeypatch, pair7_a, pair7_b):
    seen = []

    class SerialExecutor:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(repeater, "ThreadPoolExecutor", SerialExecutor)
    model = ErrorModel(0.1, 0.1, 0.05)
    reference = stream_reference_counts(pair7_a, pair7_b, model, 20, 77, 20)
    cores = repeater._usable_cores()
    assert np.array_equal(repeater._mc_breakdown(pair7_a, pair7_b, model, 20, 77, 2**16), reference)
    assert seen == [min(20, cores)]
    monkeypatch.setattr(repeater, "_usable_cores", lambda: 64)
    assert np.array_equal(repeater._mc_breakdown(pair7_a, pair7_b, model, 20, 77, 2**16), reference)
    assert seen[-1] == 20


def test_montecarlo_working_set_within_chunk_estimate_across_workers(monkeypatch):
    # Two workers, each drawing MC_BATCH_HITS // 2 pairs at a time, with every entry a hit.
    monkeypatch.setattr(repeater, "_usable_cores", lambda: 2)
    qa, qb = random_cnot_pair(np.random.default_rng(15), 15)
    model = ErrorModel(0.3, 0.3, 0.4)
    repeater._mc_breakdown(qa, qb, model, 1, 0, 1)  # builds the decoders outside the trace
    estimate = repeater.MC_BATCH_HITS * repeater.MC_BYTES_PER_HIT
    for samples in (1 << 15, 1 << 17):
        tracemalloc.start()  # traces the allocations of every thread
        try:
            counts = repeater._mc_breakdown(qa, qb, model, samples, 5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == samples
        assert peak <= estimate, samples


@pytest.mark.parametrize("cores", [1, 2])
def test_montecarlo_counts_do_not_depend_on_batch_size(cores, monkeypatch, pair7_a, pair7_b):
    # A batch of 1 or 7 pairs carries nearly every hit row over to the next batch.
    monkeypatch.setattr(repeater, "_usable_cores", lambda: cores)
    model = ErrorModel(0.1, 0.1, 0.05)
    samples, seed, jobs = 3000, 11, 2
    counts = {}
    for batch in (1, 7, repeater.MC_BATCH_HITS):
        monkeypatch.setattr(repeater, "MC_BATCH_HITS", batch)
        counts[batch] = repeater._mc_breakdown(pair7_a, pair7_b, model, samples, seed, jobs)
    reference = stream_reference_counts(pair7_a, pair7_b, model, samples, seed, jobs)
    assert all(np.array_equal(c, reference) for c in counts.values())


def test_montecarlo_without_hits_draws_nothing(monkeypatch, pair7_a, pair7_b):
    def no_generator(*args, **kwargs):
        raise AssertionError("h = 0 must construct no Generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    monkeypatch.setattr(np.random, "Generator", no_generator)
    counts = repeater._mc_breakdown(pair7_a, pair7_b, ErrorModel(0.0, 0.0, 0.0), 12345, 3, 4)
    expected = np.zeros((4, 4), dtype=np.int64)
    expected[0, 0] = 12345
    assert counts.dtype == np.int64
    assert np.array_equal(counts, expected)


def within(count, trials, p, sigmas=5.0):
    """Whether a Binomial(trials, p) count lies within `sigmas` standard deviations of its mean."""
    return abs(count - trials * p) <= sigmas * np.sqrt(trials * p * (1 - p))


def test_channel_hits_follow_the_channel_law():
    """Hit rate per qubit, species split and gap law of the drawn hits, each within 5 sigma.

    Read through `_channel_hits` only, against the channel's probabilities:
    an off-by-one gap or swapped species thresholds in the sampler, which
    the stream reference would copy, fail here.
    """
    model = ErrorModel(0.05, 0.03, 0.02)
    f1, f2, f3, h = model.f1, model.f2, model.f3, model.hit_rate
    n, entries = 7, 2_100_000
    pairs = np.random.default_rng(20261019).random((int(entries * h * 1.05), 2))
    gaps, z, x = repeater._channel_hits(pairs, model)
    entry = np.cumsum(gaps) - 1
    assert entry[-1] >= entries
    inside = entry < entries
    entry, z, x, gaps = entry[inside], z[inside], x[inside], gaps[inside]
    assert (z | x).all()
    per_qubit = np.bincount(entry % n, minlength=n)
    assert all(within(c, entries // n, h) for c in per_qubit), per_qubit
    hits = entry.size
    for count, p in ((np.sum(z & ~x), f1), (np.sum(x & ~z), f2), (np.sum(z & x), f3)):
        assert within(count, hits, p / h), (count, hits, p / h)
    histogram = np.bincount(gaps, minlength=41)
    assert histogram[0] == 0
    for g in range(1, 41):
        assert within(histogram[g], hits, (1 - h) ** (g - 1) * h), g
    assert within(histogram[41:].sum(), hits, (1 - h) ** 40)


@pytest.mark.parametrize("f", [(0.02, 0.005, 0.001), (0.05, 0.0, 0.0), (0.3, 0.3, 0.4)])
def test_montecarlo_cells_match_exact_breakdown(f, pair7_a, pair7_b):
    model = ErrorModel(*f)
    samples = 200_000
    counts = repeater._mc_breakdown(pair7_a, pair7_b, model, samples, 1919, 2)
    exact = repeater._exact_breakdown(pair7_a, pair7_b, model)
    for cell in np.ndindex(exact.shape):
        p = min(max(exact[cell], 0.0), 1.0)
        assert within(counts[cell], samples, p), (cell, counts[cell], samples * p)


# -- perfect codes: known answers from weight enumerators -------------------------

# Stabilizer weight enumerators and the radius t of the perfect classical
# code: the stabilizers are its even-weight dual, the simplex [15,4,8] code
# and the [23,11,8] even Golay subcode.
PERFECT = {
    "hamming15": ({0: 1, 8: 15}, 1),
    "golay23": ({0: 1, 8: 506, 12: 1288, 16: 253}, 3),
}


def standard_self_pair(name):
    n, exponents = STANDARD_SELF_PAIRS[name][:2]
    code = cyclic_code(n, exponents)
    return make_css(code, code)


@pytest.fixture(scope="module")
def golay():
    return standard_self_pair("golay23")


def perfect_code_fidelity(name, p):
    """Probability that a Bernoulli(p) error lies within distance t of a stabilizer word.

    The classical code is perfect with radius t, so each syndrome's
    minimum-weight leader is its only error of weight <= t, and decoding
    succeeds exactly on these balls.  They are disjoint (the stabilizer
    words lie in the code, at distance >= 2t + 1), so their masses add.
    """
    n = STANDARD_SELF_PAIRS[name][0]
    enumerator, t = PERFECT[name]
    total = 0.0
    for w, count in enumerator.items():
        for inside in range(min(w, t) + 1):
            for outside in range(t - inside + 1):
                weight = w - inside + outside
                total += (count * comb(w, inside) * comb(n - w, outside)
                          * p**weight * (1 - p) ** (n - weight))
    return total


@pytest.mark.parametrize("name", sorted(PERFECT))
def test_perfect_code_leaders_fill_the_radius_t_ball(name):
    q = standard_self_pair(name)
    t = PERFECT[name][1]
    for species in ("x", "z"):
        dec = repeater._station_decoder(q, species)
        by_weight = np.bincount(np.bitwise_count(dec.leaders))
        assert by_weight.tolist() == [comb(q.n, w) for w in range(t + 1)], species


@pytest.mark.parametrize("f", [0.01, 0.05])
@pytest.mark.parametrize("channel", ["f1", "f2", "f3"])
def test_hamming_exact_fidelity_matches_weight_enumerator(channel, f):
    q = standard_self_pair("hamming15")
    model = ErrorModel(**{"f1": 0.0, "f2": 0.0, "f3": 0.0, channel: f})
    assert exact_logical_fidelity(q, q, model) == pytest.approx(
        perfect_code_fidelity("hamming15", f), abs=1e-12)


def test_golay_exact_and_montecarlo_match_weight_enumerator(golay):
    model = ErrorModel(0.03, 0.0, 0.0)
    expected = perfect_code_fidelity("golay23", 0.03)
    assert exact_logical_fidelity(golay, golay, model) == pytest.approx(expected, abs=1e-12)
    cfg = ProtocolConfig(qa=golay, qb=golay, model=model, mode="montecarlo",
                         samples=200_000, seed=23)
    rep = run_local_swapping(cfg)
    assert abs(rep.logical_fidelity - expected) <= 5 * rep.standard_error


@pytest.mark.parametrize("channel", ["f1", "f2"])
def test_single_channel_exact_propagates_one_station(golay, channel):
    # The pair's joint image has m = 24 bits (400 MB); the reached station has 12.
    model = ErrorModel(**{"f1": 0.0, "f2": 0.0, "f3": 0.0, channel: 0.03})
    exact_logical_fidelity(golay, golay, ErrorModel(0.0, 0.0, 0.0))  # builds the decoders
    tracemalloc.start()
    try:
        fid = exact_logical_fidelity(golay, golay, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fid == pytest.approx(perfect_code_fidelity("golay23", 0.03), abs=1e-12)
    assert peak <= (repeater.EXACT_BYTES_PER_IMAGE << 12) + (1 << 20)


def test_golay_decodes_weight3_errors_to_themselves(golay):
    zero = np.zeros(golay.n, dtype=np.uint8)
    for support in combinations(range(golay.n), 3):
        e = zero.copy()
        e[list(support)] = 1
        corr_x, corr_z, cls = decode_css(golay, e, e)
        assert np.array_equal(corr_x, e) and np.array_equal(corr_z, e) and cls.trivial, support


# -- decoder capacity --------------------------------------------------------------

def test_decoder_capacity_checked_before_allocation():
    # 2^28 syndromes for the Z-error decoder.
    q = x_checked_code(29, 28)
    cfg = ProtocolConfig(qa=q, qb=q, model=ErrorModel(0.01, 0.0, 0.0), mode="montecarlo",
                         samples=1000, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2\\^28 syndromes"):
            run_local_swapping(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_decoder_refuses_blocks_wider_than_packed_ints():
    q = x_checked_code(63, 1)
    zero = np.zeros(63, dtype=np.uint8)
    with pytest.raises(CapacityError, match="n <= 62"):
        decode_css(q, zero, zero)
    # At n = 62 the 61 class bits still fit the packed int64 image.
    q = x_checked_code(62, 1)
    e_x, e_z = np.ones(62, dtype=np.uint8), zero[:62].copy()
    e_z[0] = 1  # X on every qubit goes unchecked; the one X check corrects this Z
    corr_x, corr_z, cls = decode_css(q, e_x, e_z)
    assert not corr_x.any() and np.array_equal(corr_z, e_z) and not any(cls.z)
    assert np.array_equal(cls.x, repeater.logical_z_representatives(q).a @ e_x % 2)


def test_decoder_working_set_within_byte_estimate():
    n, r = 20, 14
    q = x_checked_code(n, r)
    tracemalloc.start()
    try:
        dec = repeater._SyndromeDecoder(q.x_stab, q.enc_a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Unit checks on qubits 1..r: each syndrome's leader is the error on its set bits.
    assert np.array_equal(dec.leaders, np.arange(1 << r) << (n - r))
    estimate = (repeater.DECODER_BYTES_PER_SYNDROME + repeater.DECODER_BYTES_PER_STEP * n) << r
    assert peak <= estimate


@pytest.mark.parametrize("n,r,seed", [(15, 14, 0), (20, 14, 1)])
def test_decoder_working_set_per_step_on_wide_layers(n, r, seed):
    # Dense random checks: the widest layer holds a large share of the 2^r syndromes.
    rng = np.random.default_rng(seed)
    checks = rng.integers(0, 2, size=(r + 1, n), dtype=np.uint8)
    while gf2.rank(BitMatrix(checks)) < r + 1:
        checks = rng.integers(0, 2, size=(r + 1, n), dtype=np.uint8)
    tracemalloc.start()
    try:
        dec = repeater._SyndromeDecoder(BitMatrix(checks[:r]), BitMatrix(checks[r:]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layers = np.bincount([int(leader).bit_count() for leader in dec.leaders])
    assert layers.max() >= (1 << r) // 4
    # The search steps n times from each syndrome of a layer at once.
    steps = n * int(layers.max())
    assert peak <= (repeater.DECODER_BYTES_PER_SYNDROME << r) + repeater.DECODER_BYTES_PER_STEP * steps


@pytest.mark.parametrize("key, value", [("seed", 1), ("samples", 5), ("jobs", 2)])
def test_exact_config_refuses_montecarlo_settings(pair7_a, pair7_b, key, value):
    with pytest.raises(ValueError, match=f"{key} applies to montecarlo mode only"):
        ProtocolConfig(qa=pair7_a, qb=pair7_b, model=ErrorModel(0.01, 0.01, 0.0), **{key: value})
