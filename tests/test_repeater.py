"""Repeater link simulation: channel enumeration, decoding, fidelity."""

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
from csspair.sampling import random_cnot_pair

from conftest import HAMMING_ROWS


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
    for n in (4, 5, 6, 7, 8, 9, 10):
        qa, qb = random_cnot_pair(rng, n)
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


def test_montecarlo_chunks_match_one_shot_draw(pair7_a, pair7_b):
    """Chunked draws consume each seed stream exactly like one big draw."""
    model = ErrorModel(0.02, 0.01, 0.005)
    samples, seed, jobs = 2 * repeater.MC_CHUNK_ROWS + 7, 31337, 2
    counts = repeater._mc_breakdown(pair7_a, pair7_b, model, samples, seed, jobs)
    _, class_a = repeater._station_decoder(pair7_a, "z").tables()
    _, class_b = repeater._station_decoder(pair7_b, "x").tables()
    f0, f1, f2, _ = model.weights
    powers = 1 << np.arange(6, -1, -1)
    expected = np.zeros_like(counts)
    for w, child in enumerate(np.random.SeedSequence(seed).spawn(jobs)):
        block = samples // jobs + (1 if w < samples % jobs else 0)
        assert block > repeater.MC_CHUNK_ROWS
        u = np.random.default_rng(child).random((block, 7))
        z = (u >= f0) & ((u < f0 + f1) | (u >= f0 + f1 + f2))
        x = u >= f0 + f1
        np.add.at(expected, (class_a[z @ powers], class_b[x @ powers]), 1)
    assert np.array_equal(counts, expected)


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
