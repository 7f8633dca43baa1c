"""Repeater link simulation: channel enumeration, decoding, fidelity."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import ceil, comb, fsum

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
    load_config,
    make_classical,
    make_css,
    run_local_swapping,
)
from csspair import gf2, repeater
from csspair.errors import CapacityError, DimensionMismatchError, NonTransversalError, ParseError
from csspair.sampling import random_cnot_pair, random_css_code, random_repaired_mirrored_pair

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
    fast = run_local_swapping(ProtocolConfig(pair7_a, pair7_b, model)).logical_fidelity
    assert fast == pytest.approx(slow_ok, abs=1e-12)


@pytest.mark.parametrize("f", [(1e-4, 1e-4, 0.0), (1e-6, 1e-6, 1e-7), (1e-7, 1e-7, 0.0)])
def test_exact_error_rate_matches_rational_failing_mass(steane, f):
    """The reported error rate is the failing mass to 1e-12 relative, where
    1 - fidelity cancels: the Steane self-pair against exact rational sums
    over all 4^7 patterns, each failure decided by decode_css."""
    model = ErrorModel(*f)
    w = [Fraction(1) - sum(map(Fraction, f)), *map(Fraction, f)]
    fails = {}
    exact = Fraction(0)
    for e_z, e_x, _ in enumerate_error_patterns(7, model):
        key = (e_z.tobytes(), e_x.tobytes())
        if key not in fails:
            fails[key] = not decode_css(steane, e_x, e_z)[2].trivial
        if fails[key]:
            both = int((e_z & e_x).sum())
            z_only, x_only = int(e_z.sum()) - both, int(e_x.sum()) - both
            exact += (w[0] ** (7 - z_only - x_only - both)
                      * w[1] ** z_only * w[2] ** x_only * w[3] ** both)
    rate = run_local_swapping(ProtocolConfig(qa=steane, qb=steane, model=model)).logical_error_rate
    assert abs(Fraction(rate) - exact) <= exact * Fraction(1, 10**12)


def test_montecarlo_error_rate_counts_the_failing_samples(pair7_a, pair7_b):
    samples = 20_000
    cfg = ProtocolConfig(qa=pair7_a, qb=pair7_b, model=ErrorModel(0.01, 0.01, 0.002),
                         mode="montecarlo", samples=samples, seed=11)
    rep = run_local_swapping(cfg)
    # The failing cells, summed directly as in exact mode, not 1 - fidelity.
    failing = [p for key, p in rep.class_breakdown.items() if key != "zA=00,xB=00"]
    assert rep.logical_error_rate == pytest.approx(fsum(failing), rel=1e-12)
    assert rep.logical_error_rate == pytest.approx(1 - rep.logical_fidelity, abs=1e-12)


def test_decode_rejects_error_of_wrong_length(steane):
    with pytest.raises(DimensionMismatchError, match="X error has length 3, code has n=7"):
        decode_css(steane, np.zeros(3), np.zeros(7))
    with pytest.raises(DimensionMismatchError, match="Z error has length 9, code has n=7"):
        decode_css(steane, np.zeros(7), np.zeros(9))


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
    model = ErrorModel(0.0, p, 0.0)
    fid = run_local_swapping(ProtocolConfig(steane, steane, model)).logical_fidelity
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
    cfg_a = ProtocolConfig(steane, steane, ErrorModel(p, 0.0, 0.0))
    cfg_b = ProtocolConfig(steane, steane, ErrorModel(0.0, p, 0.0))
    err_a = 1.0 - run_local_swapping(cfg_a).logical_fidelity
    err_b = 1.0 - run_local_swapping(cfg_b).logical_fidelity
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
            cfg = ProtocolConfig(qa, qb, ErrorModel(**kwargs))
            fids.append(run_local_swapping(cfg).logical_fidelity)
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
    exact = run_local_swapping(ProtocolConfig(pair7_a, pair7_b, model)).logical_fidelity
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
    bad.write_text("codeA=steane.code\nJobs=1\nJOBS=2\n")
    with pytest.raises(ParseError, match="^line 3: duplicate config key 'JOBS'$"):
        load_config(bad)
    missing = tmp_path / "missing.cfg"
    missing.write_text("f1=0.01\n")
    with pytest.raises(ParseError, match="missing config key"):
        load_config(missing)
    missing.write_text("codeA=steane.code\nf1=0.01\n")
    with pytest.raises(ParseError, match="^missing config key codeB$"):
        load_config(missing)


def test_config_loader_reports_the_first_bad_line(tmp_path, fixtures_dir):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"codeA={fixtures_dir / 'steane.code'}\n"
                   f"codeB={fixtures_dir / 'steane.code'}\nseed=x\nf1=y\n")
    with pytest.raises(ParseError, match="^line 3: bad config value: .*'x'$"):
        load_config(cfg)


def test_protocol_requires_matching_k(pair7_a, pair7_counterexample):
    with pytest.raises(ValueError):
        ProtocolConfig(qa=pair7_a, qb=pair7_counterexample, model=ErrorModel(0, 0, 0))


def test_trivial_single_qubit_code_certain_error():
    # [[1,1]] code with no stabilizers: nothing is correctable, so a
    # certain Z error is a certain logical error.
    full = make_css(make_classical(BitMatrix.identity(1)),
                    make_classical(BitMatrix.identity(1)))
    certain = ProtocolConfig(full, full, ErrorModel(1.0, 0.0, 0.0))
    noiseless = ProtocolConfig(full, full, ErrorModel(0.0, 0.0, 0.0))
    assert run_local_swapping(certain).logical_fidelity == 0.0
    assert run_local_swapping(noiseless).logical_fidelity == 1.0


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
            repeater._exact_breakdown(full, full, ErrorModel(0.01, 0.0, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exact_working_set_within_byte_estimate():
    # [[9,9]] with no stabilizers: 2^18 images, three float64 vectors.
    full = make_css(make_classical(BitMatrix.identity(9)),
                    make_classical(BitMatrix.identity(9)))
    model = ErrorModel(0.01, 0.02, 0.005)
    repeater._exact_breakdown(full, full, model)  # builds the decoders outside the trace
    tracemalloc.start()
    try:
        fid = repeater._exact_breakdown(full, full, model)[0, 0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fid == pytest.approx((1 - 0.035) ** 9, abs=1e-12)
    assert peak <= (repeater.EXACT_BYTES_PER_IMAGE << 18) + (1 << 20)


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


def test_montecarlo_report_within_class_byte_estimate():
    # 2^24 class pairs at 17 bytes each, as the byte check counts them: the int64 counts,
    # the report's float64 copy and that copy's nonzero mask.  All three alive at once,
    # with anything else, would not fit.
    q = random_css_code(np.random.default_rng(5), 16, 12)
    cfg = ProtocolConfig(q, q, ErrorModel(0.01, 0.01, 0.0), mode="montecarlo", samples=2000, seed=1)
    run_local_swapping(replace(cfg, samples=1))  # builds the decoders outside the trace
    tracemalloc.start()
    try:
        report = run_local_swapping(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.per_pair_marginals) == 12
    assert peak <= 17 << 24


def hit_count_law(n, model):
    """The Binomial(n, h) pmf of a row's hit count, h clamped at 1, and its tail P(J >= 3)."""
    hit = min(model.hit_rate, 1.0)
    pmf = np.array([comb(n, j) * hit**j * (1 - hit) ** (n - j) for j in range(n + 1)])
    return pmf, pmf[3:].sum()


def sampled_rows(n, model, samples):
    """R: the rows Monte Carlo draws from the J >= 3 stratum, in proportion to its probability."""
    return min(samples, ceil(samples * hit_count_law(n, model)[1]))


def block_reference_counts(qa, qb, model, samples, seed):
    """Class counts of the sampled rows, drawn as `_mc_breakdown` reads its streams, via tables().

    The R rows with three or more hits are split over j = 3..n hits by one
    multinomial from SeedSequence(seed) over the pmf given J >= 3, its
    categories in ascending order of probability, and go by descending j in
    blocks of MC_CHUNK_ROWS rows, block b drawn from the b-th child of
    SeedSequence(seed).  Floyd's algorithm places a block's hits: step i
    reads the U of every row with more than i hits, then their V; the hit
    lands on qubit floor(U (t + 1)) with t = n - j + i, or on t when that
    qubit is already hit, and V h picks Z on A below f1, X on B from f1 to
    f1 + f2, and both above.  Every row is then an (e_z, e_x) pair of error
    ints decoded whole through the 2^n tables.
    """
    n = qa.n
    _, class_a = repeater._station_decoder(qa, "z").tables()
    _, class_b = repeater._station_decoder(qb, "x").tables()
    f1, f2, h = model.f1, model.f2, model.hit_rate
    bit = 1 << np.arange(n - 1, -1, -1)  # qubit q's bit in an error int
    pmf, tail = hit_count_law(n, model)
    rows, chunk = sampled_rows(n, model, samples), repeater.MC_CHUNK_ROWS
    expected = np.zeros((1 << qa.k, 1 << qb.k), dtype=np.int64)
    if not rows:
        return expected
    cond = pmf[3:] / tail
    order = np.argsort(cond, kind="stable")
    per_j = np.zeros(n - 2, dtype=np.int64)
    per_j[order] = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).multinomial(
        rows, cond[order])
    assert not per_j[cond == 0].any()
    every = np.repeat(np.arange(n, 2, -1), per_j[::-1])
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(-(-rows // chunk))):
        rng = np.random.default_rng(child)
        hits = every[b * chunk:(b + 1) * chunk]
        row = np.arange(hits.size)
        taken = np.zeros((hits.size, n), dtype=bool)
        e_z = np.zeros(hits.size, dtype=np.int64)
        e_x = np.zeros(hits.size, dtype=np.int64)
        for i in range(hits.max()):
            a = np.count_nonzero(hits > i)
            u, v = rng.random((2, a))
            t = n - hits[:a] + i
            pos = np.floor(u * (t + 1)).astype(np.int64)
            pos = np.where(taken[row[:a], pos], t, pos)
            taken[row[:a], pos] = True
            kind = v * h
            e_z[:a] |= np.where((kind < f1) | (kind >= f1 + f2), bit[pos], 0)
            e_x[:a] |= np.where(kind >= f1, bit[pos], 0)
        assert np.array_equal(taken.sum(axis=1), hits)
        np.add.at(expected, (class_a[e_z], class_b[e_x]), 1)
    return expected


def same_parts(one, other):
    """Whether two `_mc_breakdown` results hold the same bytes, part by part."""
    return all(np.asarray(a).dtype == np.asarray(b).dtype
               and np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(one, other))


@pytest.mark.parametrize("f", [(0.0, 0.0, 0.0), (0.3, 0.3, 0.4), (0.05, 0.0, 0.01),
                               (0.0, 0.05, 0.01), (0.0, 0.0, 1.0), (0.3, 0.3, 0.4 + 5e-13),
                               (0.0, 0.0, 1.0 + 5e-13)])
@pytest.mark.parametrize("pair", ["pair7", "random15"])
def test_montecarlo_sparse_fold_matches_dense_reference_at_edge_models(pair, f, pair7_a, pair7_b):
    # No hits; every entry a hit (f0 = 0); coinciding thresholds; certain correlated errors;
    # noise sums just above 1, which ErrorModel admits: 1 - h is clamped at 0.
    qa, qb = (pair7_a, pair7_b) if pair == "pair7" else random_cnot_pair(np.random.default_rng(15), 15)
    model = ErrorModel(*f)
    samples, seed, jobs = (1 << 15) + 3, 4242, 3
    _, p, counts, tail = repeater._mc_breakdown(qa, qb, model, samples, seed, jobs)
    assert np.array_equal(counts, block_reference_counts(qa, qb, model, samples, seed))
    assert counts.sum() == sampled_rows(qa.n, model, samples)
    assert p.sum() + tail == pytest.approx(1.0, abs=1e-11)


def low_weight_masses(qa, qb, model):
    """{flat joint class: exact mass} of every pattern with at most two hits, by brute force.

    Each pattern's probability is the product law's, f0^(n - j) times the
    rates of its j hits, in rationals; its (e_z, e_x) error ints are decoded
    whole through the 2^n tables.
    """
    n = qa.n
    _, class_a = repeater._station_decoder(qa, "z").tables()
    _, class_b = repeater._station_decoder(qb, "x").tables()
    rates = [Fraction(f) for f in (model.f1, model.f2, model.f3)]
    f0 = 1 - sum(rates)
    species = [(rates[0], 1, 0), (rates[1], 0, 1), (rates[2], 1, 1)]  # (rate, on A, on B)
    masses = {}
    for j in range(3):
        for support in combinations(range(n), j):
            for kinds in product(species, repeat=j):
                p = f0 ** (n - j)
                e_z = e_x = 0
                for q, (rate, on_a, on_b) in zip(support, kinds):
                    p *= rate
                    e_z |= on_a << (n - 1 - q)
                    e_x |= on_b << (n - 1 - q)
                cell = int(class_a[e_z]) << qb.k | int(class_b[e_x])
                masses[cell] = masses.get(cell, 0) + p
    return masses


@pytest.mark.parametrize("f", [(0.02, 0.005, 0.001), (0.3, 0.0, 0.05)])
@pytest.mark.parametrize("pair", ["pair7", "random15"])
def test_montecarlo_low_weight_strata_match_rational_sum(pair, f, pair7_a, pair7_b):
    """The exact strata, J <= 2, against a rational sum over every pattern of weight <= 2."""
    qa, qb = (pair7_a, pair7_b) if pair == "pair7" else random_cnot_pair(np.random.default_rng(15), 15)
    model = ErrorModel(*f)
    classes, p, _, tail = repeater._mc_breakdown(qa, qb, model, 1, 0, 1)
    expected = low_weight_masses(qa, qb, model)
    live = sum(rate > 0 for rate in f)
    assert p.size == 1 + live * qa.n + live**2 * comb(qa.n, 2)  # each pattern once
    masses = {}
    for cell, mass in zip(classes.tolist(), p.tolist()):
        masses[cell] = masses.get(cell, 0) + Fraction(mass)
    assert {c for c, m in expected.items() if m} == {c for c, m in masses.items() if m}
    for cell, mass in masses.items():
        assert abs(mass - expected[cell]) <= expected[cell] * Fraction(1, 10**12), cell
    assert abs(Fraction(tail) - (1 - sum(expected.values()))) <= Fraction(1, 10**15)


def test_montecarlo_reports_the_envelope_when_every_sampled_row_fails():
    # On the Hamming [[15,7,3]] self-pair every weight-2 or weight-3 error at a station is a
    # logical error, so a row with three hits always fails; q = 0 and the standard error is 0.
    q = standard_self_pair("hamming15")
    model, samples, seed = ErrorModel(0.01, 0.01, 0.002), 100_000, 3
    cfg = ProtocolConfig(q, q, model, mode="montecarlo", samples=samples, seed=seed)
    report = run_local_swapping(cfg)
    classes, p, counts, tail = repeater._mc_breakdown(q, q, model, samples, seed, 1)
    rows, low = int(counts.sum()), float(p[classes == 0].sum())
    assert rows == sampled_rows(q.n, model, samples) > 0 and counts[0, 0] == 0
    assert report.standard_error == 0.0
    assert report.logical_fidelity == pytest.approx(low, rel=1e-15)
    assert report.notes == [f"all {rows} sampled rows with three or more hits failed, so "
                            f"standard_error is 0; the fidelity lies in [{low!r}, {low + tail!r}]"]
    exact = run_local_swapping(replace(cfg, mode="exact", samples=0, seed=None)).logical_fidelity
    assert low <= exact <= low + tail
    # With 0 < q < 1 the report adds no note.
    golay = standard_self_pair("golay23")
    assert run_local_swapping(replace(cfg, qa=golay, qb=golay)).notes == []


def test_montecarlo_spawns_no_stream_past_samples(pair7_a, pair7_b):
    # jobs caps the threads: 2^16 of them draw the one block of 20 samples as jobs = 20 does.
    model = ErrorModel(0.1, 0.1, 0.05)
    repeater._mc_breakdown(pair7_a, pair7_b, model, 1, 0, 1)  # builds the decoders outside the trace
    tracemalloc.start()
    try:
        parts = repeater._mc_breakdown(pair7_a, pair7_b, model, 20, 77, 2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_parts(parts, repeater._mc_breakdown(pair7_a, pair7_b, model, 20, 77, 20))
    assert peak < 1 << 20


def test_montecarlo_stream_seeds_do_not_grow_memory(monkeypatch, pair7_a, pair7_b):
    # One-row blocks: about 245 of them, each seeded where it is drawn.  Spawning 1000 child
    # seeds up front held about 350 KiB.
    monkeypatch.setattr(repeater, "MC_CHUNK_ROWS", 1)
    model = ErrorModel(0.1, 0.1, 0.05)
    repeater._mc_breakdown(pair7_a, pair7_b, model, 1, 0, 1)  # builds the decoders outside the trace
    tracemalloc.start()
    try:
        counts = repeater._mc_breakdown(pair7_a, pair7_b, model, 1000, 5, 1)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() > 200
    assert np.array_equal(counts, block_reference_counts(pair7_a, pair7_b, model, 1000, 5))
    assert peak < 128 << 10


def chunk_estimate(workers):
    """Monte Carlo's working set: one chunk per worker thread."""
    return workers * repeater.MC_CHUNK_ROWS * repeater.MC_BYTES_PER_ROW


def test_montecarlo_working_set_within_chunk_estimate():
    # f0 = 0: every row has n = 15 hits, one full block at a time.
    qa, qb = random_cnot_pair(np.random.default_rng(15), 15)
    model = ErrorModel(0.3, 0.3, 0.4)
    repeater._mc_breakdown(qa, qb, model, 1, 0, 1)  # builds the decoders outside the trace
    for samples in (1 << 15, 1 << 17):
        tracemalloc.start()
        try:
            counts = repeater._mc_breakdown(qa, qb, model, samples, 5, 1)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == samples
        assert peak <= chunk_estimate(1), samples


def test_montecarlo_working_set_within_batch_estimate_at_low_noise():
    # 2^22 samples, of which 18 are drawn: the rows with three or more hits, one partial block.
    qa, qb = random_cnot_pair(np.random.default_rng(15), 15)
    model = ErrorModel(0.001, 0.001, 0.0001)
    repeater._mc_breakdown(qa, qb, model, 1, 0, 1)  # builds the decoders outside the trace
    samples = 1 << 22
    tracemalloc.start()
    try:
        counts = repeater._mc_breakdown(qa, qb, model, samples, 5, 1)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == sampled_rows(15, model, samples) > 0
    assert peak <= chunk_estimate(1)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of each thread pool Monte Carlo starts, in order."""
    started = []

    class SpyExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(repeater, "ThreadPoolExecutor", SpyExecutor)
    return started


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_montecarlo_counts_do_not_depend_on_worker_count(cores, monkeypatch, pools, pair7_a, pair7_b):
    # jobs only caps the threads.  At high noise the [[14,7]] self-pair spreads each block over
    # most of its 2^14 class cells, so concurrent blocks add into the same cells and a lost
    # update would show; seven threads on ten blocks give thread 0 blocks 0 and 7.
    monkeypatch.setattr(repeater, "_usable_cores", lambda: cores)
    wide = random_css_code(np.random.default_rng(4), 14, 7)
    samples, seed = 5 * (2 * (1 << 15) + 1) + 3, 99
    for qa, qb, model in ((pair7_a, pair7_b, ErrorModel(0.05, 0.03, 0.01)),
                          (wide, wide, ErrorModel(0.2, 0.2, 0.1))):
        runs = []
        for jobs in (1, 2, 7):
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # many more thread switches than the default
            try:
                runs.append(repeater._mc_breakdown(qa, qb, model, samples, seed, jobs))
            finally:
                sys.setswitchinterval(interval)
        assert runs[0][2].dtype == np.int64
        assert all(same_parts(run, runs[0]) for run in runs[1:])
        assert np.array_equal(runs[0][2], block_reference_counts(qa, qb, model, samples, seed))
    # The pair7 draw samples about 7,400 rows, under one block, so it runs on the calling
    # thread; nearly all of the wide draw's rows have three or more hits, ten blocks.
    assert pools == [min(jobs, cores) for jobs in (2, 7) if min(jobs, cores) > 1]


def test_montecarlo_starts_threads_only_for_whole_chunks_of_many_hit_rows(monkeypatch, pools,
                                                                           pair7_a, pair7_b):
    monkeypatch.setattr(repeater, "_usable_cores", lambda: 2)
    # A simulate-sized draw: 10^6 samples on n = 15 sample about 4,000 rows, one block.
    qa, qb = random_cnot_pair(np.random.default_rng(15), 15)
    counts = repeater._mc_breakdown(qa, qb, ErrorModel(0.01, 0.01, 0.002), 10**6, 1, 2)[2]
    assert 0 < counts.sum() < repeater.MC_CHUNK_ROWS
    assert pools == []
    # f0 = 0: every row is sampled, in four blocks, the last of five rows.
    model = ErrorModel(0.3, 0.3, 0.4)
    samples = 3 * repeater.MC_CHUNK_ROWS + 5
    reference = block_reference_counts(pair7_a, pair7_b, model, samples, 8)
    for jobs, cores in ((3, 2), (8, 3), (8, 64)):
        monkeypatch.setattr(repeater, "_usable_cores", lambda cores=cores: cores)
        counts = repeater._mc_breakdown(pair7_a, pair7_b, model, samples, 8, jobs)[2]
        assert np.array_equal(counts, reference), (jobs, cores)
    assert pools == [2, 3, 4]  # min(jobs, cores, blocks)


def test_montecarlo_threads_capped_by_streams_and_cores(monkeypatch, pools, pair7_a, pair7_b):
    # One-row blocks: each of the 20 sampled rows is a block of its own.
    monkeypatch.setattr(repeater, "MC_CHUNK_ROWS", 1)
    model = ErrorModel(0.3, 0.3, 0.4)
    reference = block_reference_counts(pair7_a, pair7_b, model, 20, 77)
    cores = repeater._usable_cores()
    assert np.array_equal(repeater._mc_breakdown(pair7_a, pair7_b, model, 20, 77, 2**16)[2],
                          reference)
    assert pools == ([min(20, cores)] if cores >= 2 else [])
    monkeypatch.setattr(repeater, "_usable_cores", lambda: 64)
    assert np.array_equal(repeater._mc_breakdown(pair7_a, pair7_b, model, 20, 77, 2**16)[2],
                          reference)
    assert pools[-1] == 20


def test_montecarlo_decodes_only_the_tables_and_rows_with_three_or_more_hits(monkeypatch):
    """A simulate-sized draw passes through each decoder's `residual` its sampled rows, all
    with three or more hits, and the one table of patterns with at most two hits: the empty
    one, 3n one-hit cells and 9 C(n, 2) two-hit cells, and no other row."""
    qa, qb = random_cnot_pair(np.random.default_rng(15), 15)
    model, samples, seed, jobs = ErrorModel(0.01, 0.01, 0.002), 10**6, 1, 2
    decoded = {}
    residual = repeater._SyndromeDecoder.residual

    def counting(self, images):
        decoded[id(self)] = decoded.get(id(self), 0) + np.size(images)
        return residual(self, images)

    monkeypatch.setattr(repeater._SyndromeDecoder, "residual", counting)
    many = sampled_rows(qa.n, model, samples)
    assert repeater._mc_breakdown(qa, qb, model, samples, seed, jobs)[2].sum() == many
    tables = 3 * qa.n + 9 * comb(qa.n, 2)
    assert len(decoded) == 2
    assert all(rows <= many + tables + 1 for rows in decoded.values()), (decoded, many, tables)


def test_montecarlo_working_set_within_chunk_estimate_across_workers(monkeypatch):
    # Rows with n = 15 hits: 2^15 of them fill one block, drawn on the calling thread, and
    # 2^17 start two threads, each holding one full block.
    monkeypatch.setattr(repeater, "_usable_cores", lambda: 2)
    qa, qb = random_cnot_pair(np.random.default_rng(15), 15)
    model = ErrorModel(0.3, 0.3, 0.4)
    repeater._mc_breakdown(qa, qb, model, 1, 0, 1)  # builds the decoders outside the trace
    for samples in (1 << 15, 1 << 17):
        tracemalloc.start()  # traces the allocations of every thread
        try:
            counts = repeater._mc_breakdown(qa, qb, model, samples, 5, 2)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == samples
        assert peak <= chunk_estimate(2), samples


@pytest.mark.parametrize("cores", [1, 2])
def test_montecarlo_chunk_boundaries_match_reference(cores, monkeypatch, pair7_a, pair7_b):
    # Blocks of 1 or 7 rows: about 730 or 105 blocks, each with its own seed and hit-count split.
    monkeypatch.setattr(repeater, "_usable_cores", lambda: cores)
    model = ErrorModel(0.1, 0.1, 0.05)
    samples, seed, jobs = 3000, 11, 2
    for chunk in (1, 7):  # the reference reads MC_CHUNK_ROWS too
        monkeypatch.setattr(repeater, "MC_CHUNK_ROWS", chunk)
        assert sampled_rows(7, model, samples) > 100 * chunk
        counts = repeater._mc_breakdown(pair7_a, pair7_b, model, samples, seed, jobs)[2]
        reference = block_reference_counts(pair7_a, pair7_b, model, samples, seed)
        assert np.array_equal(counts, reference), chunk


def test_montecarlo_default_chunks_match_reference(pair7_a, pair7_b):
    """At the default block size the sampled rows span three blocks, the last one partial."""
    model = ErrorModel(0.25, 0.15, 0.05)
    samples, seed, jobs = 2 * (1 << 16) + 7, 11, 2
    assert 2 * repeater.MC_CHUNK_ROWS < sampled_rows(7, model, samples) < 3 * repeater.MC_CHUNK_ROWS
    counts = repeater._mc_breakdown(pair7_a, pair7_b, model, samples, seed, jobs)[2]
    assert np.array_equal(counts, block_reference_counts(pair7_a, pair7_b, model, samples, seed))


def test_montecarlo_without_hits_draws_nothing(monkeypatch, pair7_a, pair7_b):
    def no_generator(*args, **kwargs):
        raise AssertionError("h = 0 must construct no Generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    monkeypatch.setattr(np.random, "Generator", no_generator)
    classes, p, counts, tail = repeater._mc_breakdown(pair7_a, pair7_b, ErrorModel(0.0, 0.0, 0.0),
                                                      12345, 3, 4)
    assert classes.tolist() == [0] and p.tolist() == [1.0] and tail == 0.0
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.zeros((4, 4), dtype=np.int64))


def within(count, trials, p, sigmas=5.0):
    """Whether a Binomial(trials, p) count lies within `sigmas` standard deviations of its mean."""
    return abs(count - trials * p) <= sigmas * np.sqrt(trials * p * (1 - p))


@pytest.mark.parametrize("n, f", [(4, (0.2, 0.15, 0.1)), (5, (0.3, 0.0, 0.25)),
                                  (5, (0.04, 0.03, 0.02)), (3, (0.0, 0.0, 1.0)),
                                  (6, (0.05, 0.04, 0.03)), (4, (0.3, 0.3, 1e-200))])
def test_montecarlo_rows_follow_the_channel_law(n, f):
    """Sampled row patterns against the product law given J >= 3: a chi-square test at a fixed seed.

    On the [[n,n]] code with no checks, both decoders are the identity: a
    row's class pair (zA, xB) is its error pattern, Z on A and X on B.  So
    the counts are the sampler's pattern counts with no decoding between,
    against P(pattern) = prod over qubits of (f0, f1, f2, f3)[digit], given
    that three or more qubits are hit.  An off-by-one position, a biased
    subset draw, a wrong hit-count split or swapped species thresholds,
    which the block reference would copy, fail here.  At f3 = 1e-200 a
    pattern with two correlated hits has probability 0 (it underflows), so
    it must never be drawn.
    """
    full = make_css(make_classical(BitMatrix.identity(n)), make_classical(BitMatrix.identity(n)))
    model = ErrorModel(*f)
    counts = repeater._mc_breakdown(full, full, model, 2_000_000, 20261021, 3)[2].ravel()
    rows = counts.sum()
    za, xb = np.divmod(np.arange(counts.size), 1 << n)
    prob = np.ones(counts.size)
    for q in range(n):
        digit = (za >> q & 1) + 2 * (xb >> q & 1)
        prob *= np.array(model.weights)[digit]
    prob[np.bitwise_count(za | xb) < 3] = 0.0
    prob /= prob.sum()
    assert rows > 10_000 and counts[prob == 0].sum() == 0
    expected = rows * prob
    big = expected >= 5  # the rest are pooled into one bin
    observed = np.append(counts[big], counts[~big].sum())
    expected = np.append(expected[big], expected[~big].sum())
    observed, expected = observed[expected > 0], expected[expected > 0]
    chi2 = ((observed - expected) ** 2 / expected).sum()
    dof = observed.size - 1
    # Wilson-Hilferty: the chi-square quantile at 1 - 1e-6 (4.75 normal sigma).
    limit = dof * (1 - 2 / (9 * dof) + 4.75 * np.sqrt(2 / (9 * dof))) ** 3 if dof else 0.0
    assert chi2 <= limit, (chi2, dof, limit)


@pytest.mark.parametrize("f", [(0.3, 0.3, 1e-200), (0.0, 0.0, 1.0), (0.05, 0.0, 0.01)])
def test_montecarlo_multinomial_remainders_go_to_possible_categories(f, monkeypatch):
    """numpy's multinomial hands its last category whatever rows the others leave, so in
    every multinomial the sampler draws that category must have nonzero probability.  The
    chi-square test above cannot see a slip: rounding leaves such a remainder about once
    in 10^16 rows."""
    last = []
    make = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = make(seed)

        def multinomial(self, n, pvals):
            last.append(pvals[-1])
            return self.rng.multinomial(n, pvals)

        def random(self, size):
            return self.rng.random(size)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    full = make_css(make_classical(BitMatrix.identity(4)), make_classical(BitMatrix.identity(4)))
    model = ErrorModel(*f)
    counts = repeater._mc_breakdown(full, full, model, 10_000, 5, 2)[2]
    assert counts.sum() == sampled_rows(4, model, 10_000)
    assert last and min(last) > 0


@pytest.mark.parametrize("f", [(0.02, 0.005, 0.001), (0.05, 0.0, 0.0), (0.3, 0.3, 0.4)])
def test_montecarlo_cells_match_exact_breakdown(f, pair7_a, pair7_b):
    # Exact mode's mass of a cell, less its exact J <= 2 part, over P(J >= 3) is the chance
    # that a sampled row lands there.
    model = ErrorModel(*f)
    classes, p, counts, tail = repeater._mc_breakdown(pair7_a, pair7_b, model, 200_000, 1919, 2)
    exact = repeater._exact_breakdown(pair7_a, pair7_b, model).ravel()
    low = np.bincount(classes, p, exact.size)
    rows = counts.sum()
    assert rows == sampled_rows(7, model, 200_000)
    for cell, count in enumerate(counts.ravel().tolist()):
        p = min(max((exact[cell] - low[cell]) / tail, 0.0), 1.0)
        assert within(count, rows, p), (cell, count, rows * p)


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
    assert run_local_swapping(ProtocolConfig(q, q, model)).logical_fidelity == pytest.approx(
        perfect_code_fidelity("hamming15", f), abs=1e-12)


def test_golay_exact_and_montecarlo_match_weight_enumerator(golay):
    model = ErrorModel(0.03, 0.0, 0.0)
    expected = perfect_code_fidelity("golay23", 0.03)
    fid = run_local_swapping(ProtocolConfig(golay, golay, model)).logical_fidelity
    assert fid == pytest.approx(expected, abs=1e-12)
    cfg = ProtocolConfig(qa=golay, qb=golay, model=model, mode="montecarlo",
                         samples=200_000, seed=23)
    rep = run_local_swapping(cfg)
    assert abs(rep.logical_fidelity - expected) <= 5 * rep.standard_error


@pytest.mark.parametrize("channel", ["f1", "f2"])
def test_single_channel_exact_propagates_one_station(golay, channel):
    # The pair's joint image has m = 24 bits (400 MB); the reached station has 12.
    model = ErrorModel(**{"f1": 0.0, "f2": 0.0, "f3": 0.0, channel: 0.03})
    repeater._exact_breakdown(golay, golay, ErrorModel(0.0, 0.0, 0.0))  # builds the decoders
    tracemalloc.start()
    try:
        fid = repeater._exact_breakdown(golay, golay, model)[0, 0]
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
