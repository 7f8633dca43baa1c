"""
Building CSS codes from classical codes
=======================================

A CSS code needs two classical codes C1, C2 with dual(C2) inside C1.
Its X checks generate dual(C2), its Z checks generate dual(C1), and a
coset-representative matrix A fixes how k = k1 + k2 - n logical qubits
embed into n physical ones.  The encoding matrix is part of the code:
two codes with the same spaces but different A behave differently
under non-local gates.
"""

from csspair import (
    BitMatrix,
    load_css,
    logical_z_representatives,
    make_classical,
    make_css,
    min_distance,
)

# The [7,4] Hamming code contains its dual, so CSS(Hamming, Hamming)
# works: the classic [[7,1,3]] code.
HAMMING = ["1000011", "0100101", "0010110", "0001111"]
ham = make_classical(BitMatrix.from_strings(HAMMING))
print("classical Hamming code: n", ham.n, "k", ham.k, "d", min_distance(ham))

steane = make_css(ham, make_classical(BitMatrix.from_strings(HAMMING)))
# Its construction distance is the smaller of the two classical distances.
print("CSS(Hamming, Hamming):", steane, "distance",
      min(min_distance(steane.c1), min_distance(steane.c2)))
# Each X-check row is a pure-X stabilizer generator, each Z-check row a
# pure-Z one; row i of A is the support of logical X on qubit i.
print("X checks:", steane.x_stab.row_strings())
print("Z checks:", steane.z_stab.row_strings())
print("logical X support:", steane.enc_a.row_strings())
print("logical Z support:", logical_z_representatives(steane).row_strings())

# The bundled [[7,2]] pair ships as code files; the loader validates
# the containment and the supplied encoding.
qa = load_css("fixtures/pair7_station_a.code")
print("\nloaded:", qa)
print("X checks:", qa.x_stab.row_strings())
print("Z checks:", qa.z_stab.row_strings())
print("representatives:", qa.enc_a.row_strings())
