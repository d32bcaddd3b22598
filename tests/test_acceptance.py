"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single PASS line on success; pytest -v shows one
pass/fail line per criterion either way. Time budgets are asserted, not
just measured.
"""
import time

import numpy as np
from conftest import operator_basis_expansion, orthogonality_defect

from nlgc.expansion import compile_unitary, construct_V, synthesize_group_gate
from nlgc.groups import builtin_catalog, pauli_sixteen
from nlgc.protocol import random_states, simulate_protocol
from nlgc.representations import irreps_of
from nlgc.sbd import BlockStructure, finest_sbd
from nlgc.schmidt import BipartiteUnitary, schmidt_decompose

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def random_unitary(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_1_cnot_one_ebit():
    # oracle first: the two-term expansion the compiler must rediscover
    hand = np.kron(I2, (I2 + X) / 2) + np.kron(Z, (I2 - X) / 2)
    np.testing.assert_allclose(hand, CNOT, atol=1e-15)

    t0 = time.perf_counter()
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    trace = simulate_protocol(exp, random_states(4, 1, seed=0)[0])
    elapsed = time.perf_counter() - t0

    assert exp.group.order == 2
    assert exp.cost_ebits == 1.0
    assert exp.baseline_ebits == 2.0
    assert exp.savings_ebits == 1.0
    assert exp.residual <= 1e-8
    assert len(trace.branch_outcomes) == 4
    assert np.max(np.abs(np.array(trace.branch_probabilities) - 0.25)) <= 1e-9
    assert min(trace.branch_fidelities) >= 1 - 1e-9
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 1: CNOT -> order 2, 1.0 ebit, 4 uniform branches "
          f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_swap_projective_order_four():
    t0 = time.perf_counter()
    exp = compile_unitary(BipartiteUnitary(SWAP, 2, 2))
    elapsed = time.perf_counter() - t0

    assert exp.group.order == 4
    assert exp.route == "projective"
    assert not exp.factor.is_trivial
    assert sorted(exp.group.element_orders.tolist()) == [1, 2, 2, 2]  # C2 x C2
    assert exp.cost_ebits == 2.0 == exp.baseline_ebits
    assert exp.residual <= 1e-8

    # the order-16 extension behind the qubit shift/clock pair carries a
    # two dimensional irrep whose nonzero characters are 2, 2i, -2, -2i
    ext = pauli_sixteen()
    targets = {(2, 0), (-2, 0), (0, 2), (0, -2)}
    found = False
    for rep in irreps_of(ext):
        if rep.dim != 2:
            continue
        chars = np.einsum("fii->f", rep.matrices)
        nonzero = {(round(c.real, 6), round(c.imag, 6))
                   for c in chars if abs(c) > 1e-9}
        if nonzero == targets:
            found = True
    assert found, "no 2-dim irrep with characters {2, 2i, -2, -2i}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 2: SWAP -> projective C2xC2, extension irrep "
          f"characters certified ({elapsed * 1000:.0f} ms)")


def test_criterion_3_qutrit_controlled_phase_beats_teleportation():
    w = np.exp(2j * np.pi / 3)
    gate = np.diag([1, 1, 1, 1, w, w ** 2, 1, w ** 2, w]).astype(complex)
    exp = compile_unitary(BipartiteUnitary(gate, 3, 3))
    assert exp.group.order == 3
    assert abs(exp.cost_ebits - np.log2(3)) <= 1e-9
    assert abs(exp.baseline_ebits - 2 * np.log2(3)) <= 1e-9
    assert exp.savings_ebits > 1.58
    assert exp.residual <= 1e-8
    trace = simulate_protocol(exp, random_states(9, 1, seed=1)[0])
    assert trace.deterministic
    print(f"PASS criterion 3: qutrit controlled phase -> C3 at "
          f"{exp.cost_ebits:.4f} ebits vs baseline {exp.baseline_ebits:.4f}")


def test_criterion_4_synthesis_round_trip_under_two_minutes():
    t0 = time.perf_counter()
    groups = [g for g in builtin_catalog(12) if g.order <= 12]
    assert len(groups) >= 20
    for g in groups:
        gate = synthesize_group_gate(g, seed=3)
        exp = compile_unitary(gate, seed=3)
        assert exp.group.order <= g.order, (g.name, exp.group.order)
        assert exp.residual <= 1e-8, (g.name, exp.residual)
        for psi in random_states(gate.dim, 10, seed=5):
            trace = simulate_protocol(exp, psi)
            assert trace.deterministic, g.name
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"PASS criterion 4: {len(groups)} synthesis round trips with "
          f"10-state simulations in {elapsed:.1f}s")


def test_criterion_5_irrep_machinery_exact_on_the_catalog():
    for g in builtin_catalog(16):
        irreps = irreps_of(g)
        assert sum(r.dim ** 2 for r in irreps) == g.order, g.name
        assert orthogonality_defect(irreps) <= 1e-9, g.name
    print("PASS criterion 5: dimension sum rule and orthogonality "
          "for all catalog groups up to order 16")


def test_criterion_6_v_construction_block_diagonalizes():
    rng = np.random.default_rng(12)
    worst = 0.0
    for trial in range(100):
        n_blocks = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 3)) for _ in range(n_blocks)]
        total = sum(sizes)
        s = random_unitary(total, rng)
        v_true = random_unitary(total, rng)
        classes = [([i], {i: np.eye(d, dtype=complex)}) for i, d in enumerate(sizes)]
        bs = BlockStructure(s, sizes, classes)
        a_ops = []
        for _ in range(int(rng.integers(2, 5))):
            blocks = np.zeros((total, total), dtype=complex)
            at = 0
            for d in sizes:
                blocks[at:at + d, at:at + d] = (rng.normal(size=(d, d))
                                                + 1j * rng.normal(size=(d, d)))
                at += d
            a_ops.append(v_true @ s @ blocks @ s.conj().T)
        v = construct_V(a_ops, bs)
        for a in a_ops:
            off = bs.outside_blocks(bs.transformed((v.conj().T @ a)[None]))
            worst = max(worst, off)
    assert worst <= 1e-8, worst
    print(f"PASS criterion 6: 100 random structured families, worst "
          f"off-block mass {worst:.2e}")


def test_criterion_7_block_structure_invariant_under_starting_expansion():
    rng = np.random.default_rng(23)
    checked = 0
    for trial in range(20):
        d_a = 2 + trial % 2
        d_b = 2 if trial % 3 else 3
        if trial % 2:
            u = random_unitary(d_a * d_b, rng)
        else:
            # controlled structure makes the block pattern nontrivial
            m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
            for i in range(d_a):
                m[i * d_b:(i + 1) * d_b, i * d_b:(i + 1) * d_b] = \
                    random_unitary(d_b, rng)
            u = m
        bu = BipartiteUnitary(u, d_a, d_b)
        dec = schmidt_decompose(bu)
        grams_s = [a.conj().T @ b for a in dec.a_ops for b in dec.a_ops]
        a_pauli, _ = operator_basis_expansion(bu, side="b")
        grams_p = [a.conj().T @ b for a in a_pauli for b in a_pauli]
        bs_s = finest_sbd(grams_s, seed=trial)
        bs_p = finest_sbd(grams_p, seed=trial + 100)
        assert sorted(bs_s.block_sizes) == sorted(bs_p.block_sizes), trial
        checked += 1
    assert checked == 20
    print("PASS criterion 7: Schmidt and shift/clock expansions induce "
          "identical block size multisets on 20 gates")


def test_criterion_8_generic_gates_never_undercut_teleportation():
    rng = np.random.default_rng(31)
    for trial in range(10):
        bu = BipartiteUnitary(random_unitary(4, rng), 2, 2)
        exp = compile_unitary(bu, seed=trial)
        assert exp.cost_ebits >= 2.0 - 1e-12, exp.cost_ebits
        assert exp.residual <= 1e-8
    # force the generalized shift/clock fallback and certify its protocol
    bu = BipartiteUnitary(random_unitary(4, rng), 2, 2)
    exp = compile_unitary(bu, allow_projective=False)
    assert exp.fallback
    assert exp.cost_ebits == 2.0
    assert exp.residual <= 1e-9
    for psi in random_states(4, 5, seed=7):
        trace = simulate_protocol(exp, psi)
        assert trace.deterministic
    print("PASS criterion 8: generic two-qubit gates cost exactly 2.0 ebits "
          "and the fallback protocol is deterministic")
