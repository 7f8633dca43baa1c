"""
CZ transversality and mirrored code pairs
=========================================

For pairwise CZ the conditions are phase conditions: the two X-check
groups must be mutually orthogonal, each code's representatives must
commute with the other's X checks, and the logical pairing A @ B^T
must be the identity.  A clean way to satisfy the stabilizer
conditions is the mirrored construction, where the second code swaps
the first one's X and Z checks.  The pairing is then always
invertible, so a change of basis repairs the encodings.
"""

from csspair import (
    audit_mirror_claims,
    check_cz_sufficient,
    check_cz_transversal,
    load_matrix,
    make_mirrored_pair,
    oracle_cz,
    repair_mirrored_encodings,
)

z_checks = load_matrix("fixtures/mirror7_z_checks.mat")
x_checks = load_matrix("fixtures/mirror7_x_checks.mat")
q1, q2 = make_mirrored_pair(z_checks, x_checks)
print("mirrored pair:", q1, q2)
print("default pairing A @ B^T:", (q1.enc_a @ q2.enc_a.T).row_strings())

q1r, q2r = repair_mirrored_encodings(q1, q2)
print("repaired pairing:", (q1r.enc_a @ q2r.enc_a.T).row_strings())
print("CZ verdict:", check_cz_transversal(q1r, q2r).verdict)
print("oracle (includes sign checks):", oracle_cz(q1r, q2r).ok)
suff = check_cz_sufficient(q1r, q2r)
print("sufficient-condition branches:",
      suff.conditions["sufficient_branch_1"], suff.conditions["sufficient_branch_2"])

# Hand-written matrices are easy to get wrong.  The audit cross-checks
# a claimed second code against the mirrored structure instead of
# trusting it.
claimed_x = load_matrix("fixtures/mirror7_claimed_x_checks.mat")
claimed_b = load_matrix("fixtures/mirror7_claimed_b.mat")
print("\nauditing a hand-written variant of the second code:")
for finding in audit_mirror_claims(z_checks, x_checks, claimed_x, claimed_b):
    print("  -", finding)
