"""
Simulating a repeater link with biased noise
============================================

After two stations teleport a pairwise CNOT through shared Bell pairs,
the leftover noise per qubit pair is a biased Pauli mixture: Z errors
on station A (probability f1), X errors on station B (f2), and the
correlated pair (f3).  Each station decodes its own code; the reported
fidelity is the probability the residual error acts trivially on every
logical Bell pair.

Because the channel is Pauli and the protocol is Clifford, the
simulation is exact classical syndrome bookkeeping: each station's
decoder sees an error only through its syndrome and logical class, so
exact mode tracks the distribution of those joint images (2^8 of them
for the [[7,2]] pair) rather than all 4^n error patterns.  Monte Carlo
mode samples patterns instead.
"""

from csspair import ErrorModel, ProtocolConfig, exact_logical_fidelity, load_config, run_local_swapping

# Config files bundle the code pair, channel and mode.
cfg = load_config("fixtures/sim_pair7.cfg")
report = run_local_swapping(cfg)
print("exact run on the bundled [[7,2]] pair:")
print("  fidelity:", report.logical_fidelity)
print("  error rate:", report.logical_error_rate)
print("  per-pair marginals:", report.per_pair_marginals)
print("  largest residual classes:")
for key, mass in sorted(report.class_breakdown.items(), key=lambda kv: -kv[1])[:4]:
    print(f"    {key}: {mass:.5f}")

# Monte Carlo agrees with the exact computation within a few standard
# errors, and a fixed seed makes runs bit-identical.
mc = run_local_swapping(load_config("fixtures/sim_pair7_mc.cfg"))
print(f"\nMonte Carlo: {mc.logical_fidelity:.5f} +- {mc.standard_error:.5f} "
      f"(seed {mc.seed}, {mc.samples} samples)")

# Matching codes to the bias direction matters.  A code that corrects
# Z errors belongs on the Z-noisy station; swapping the assignment
# costs fidelity.
from csspair import BitMatrix, make_classical, make_css

HAMMING = ["1000011", "0100101", "0010110", "0001111"]
z_strong = make_css(make_classical(BitMatrix.identity(7)),
                    make_classical(BitMatrix.from_strings(HAMMING)))
x_strong = make_css(make_classical(BitMatrix.from_strings(HAMMING)),
                    make_classical(BitMatrix.identity(7)))
biased = ErrorModel(f1=0.02, f2=0.001, f3=0.0)
matched = run_local_swapping(ProtocolConfig(
    qa=z_strong, qb=x_strong, model=biased, allow_nontransversal=True))
swapped = run_local_swapping(ProtocolConfig(
    qa=x_strong, qb=z_strong, model=biased, allow_nontransversal=True))
print("\nbias matching (f1=0.02 >> f2=0.001):")
print("  Z-strong code at station A:", f"{matched.logical_fidelity:.5f}")
print("  swapped assignment:        ", f"{swapped.logical_fidelity:.5f}")

# Sweep a parameter to see the trend (the CLI does the same with
# `csspair simulate --sweep f1=0:0.02:0.005`).
print("\nf1 sweep on the bundled pair (f2=0.01 fixed):")
for f1 in (0.0, 0.005, 0.01, 0.02):
    fid = exact_logical_fidelity(cfg.qa, cfg.qb, ErrorModel(f1, 0.01, 0.0))
    print(f"  f1={f1:.3f}: fidelity {fid:.5f}")
