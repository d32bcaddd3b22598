"""Step through the measurement branches of the two-way protocol by hand.

One maximally entangled pair of Schmidt rank |G| is shared up front. Alice
entangles her qudit with her half via M, measures in the group basis, and
announces h; Bob applies the diagonal correction Z(h), measures his half in
the conjugate basis, announces g; Alice undoes U(g) with the published
correction. Every branch must end in the same state U|psi>.
"""
import numpy as np

from nlgc import BipartiteUnitary, compile_unitary, simulate_protocol
from nlgc.protocol import fourier_basis

np.set_printoptions(precision=4, suppress=True, linewidth=120)

cnot = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
exp = compile_unitary(BipartiteUnitary(cnot, 2, 2))

# M = sum_f R(f) (x) W(f) is built once, on first read, and shared by
# every simulation of this expansion
print("M is", exp.m.shape[0], "x", exp.m.shape[1], " unitary:", exp.m_unitary,
      f"(deviation {exp.m_deviation:.1e})")

f = fourier_basis(exp.group.order)
print("measurement basis F (mutually unbiased with the group basis):")
print(f)
print()

plus_zero = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
trace = simulate_protocol(exp, plus_zero)

target = cnot @ plus_zero
print("input  |+0>  ->  target state U|psi>:", target)
print()
print("branch outcomes (h from Alice, g from Bob):")
for (h, g), p, fid in zip(trace.branch_outcomes,
                          trace.branch_probabilities,
                          trace.branch_fidelities):
    print(f"  h={h} g={g}   p={p:.4f}   fidelity={fid:.12f}")
print()
print("all", len(trace.branch_outcomes), "branches agree:",
      trace.deterministic)
print("resources: ", trace.ebits, "ebits,", trace.cbits, "classical bits")
print("a teleportation based circuit would spend 2 ebits and 4 bits here")
