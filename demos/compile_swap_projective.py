"""SWAP needs a projective representation: the phases cannot be gauged away."""
import numpy as np

from nlgc import BipartiteUnitary, compile_unitary
from nlgc.groups import pauli_sixteen
from nlgc.representations import irreps_of

swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
exp = compile_unitary(BipartiteUnitary(swap, 2, 2))

print("group:  ", exp.group.name, "order", exp.group.order)
print("route:  ", exp.route)
print("factor system trivial?", exp.factor.is_trivial)
print("cost:   ", exp.cost_ebits, "ebits (baseline", exp.baseline_ebits, ")")
print()

print("cocycle phase table mu(f, g):")
print(np.round(exp.factor.phases, 3))
print()

# the projective irrep lives inside an ordinary irrep of a central
# extension; for the qubit shift/clock pair that extension has order 16
ext = pauli_sixteen()
print("central extension:", ext.name, "order", ext.order)
for rep in irreps_of(ext):
    if rep.dim == 2:
        chars = [c for c in np.einsum("fii->f", rep.matrices) if abs(c) > 1e-9]
        print("  2-dim irrep nonzero characters:",
              [complex(round(c.real, 6), round(c.imag, 6)) for c in chars])

print()
print("classification:", exp.classification)
print("SWAP saves nothing over teleportation, but the protocol is tight:")
print("  ", exp.cost_ebits, "ebits is optimal for a gate of Schmidt rank",
      len(exp.schmidt))
