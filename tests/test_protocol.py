"""Branch-by-branch protocol simulation and its building blocks."""
import numpy as np
import pytest

import nlgc.protocol
from nlgc.errors import ValidationError
from nlgc.expansion import compile_unitary
from nlgc.groups import cyclic, direct_product
from nlgc.protocol import (build_M, check_M_unitary, fourier_basis,
                           measurement_phase_correction, random_states,
                           simulate_protocol, validate_unbiased)
from nlgc.representations import pauli_projective_rep, regular_representation
from nlgc.schmidt import BipartiteUnitary

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def test_shift_representation_of_c2_is_identity_and_flip():
    shifts = regular_representation(cyclic(2)).matrices
    np.testing.assert_allclose(shifts[0], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(shifts[1], np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_shift_representation_satisfies_the_twisted_product_rule():
    group, fs, _ = pauli_projective_rep(2)
    shifts = regular_representation(group, fs).matrices
    n = group.order
    for f in range(n):
        for g in range(n):
            lhs = shifts[f] @ shifts[g]
            rhs = fs.phases[f, g] * shifts[group.table[f, g]]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_shift_representation_is_unitary_for_any_factor():
    group, fs, _ = pauli_projective_rep(3)
    for s in regular_representation(group, fs).matrices:
        np.testing.assert_allclose(s.conj().T @ s, np.eye(9), atol=1e-10)


def test_fourier_basis_is_unbiased_and_rejects_biased_matrices():
    for n in (2, 3, 5):
        validate_unbiased(fourier_basis(n))
    with pytest.raises(ValidationError):
        validate_unbiased(np.eye(3, dtype=complex))


def test_measurement_phase_correction_oracle_for_two_elements():
    f = fourier_basis(2)
    z0 = measurement_phase_correction(0, f)
    z1 = measurement_phase_correction(1, f)
    np.testing.assert_allclose(z0, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(z1, np.diag([1.0, -1.0]), atol=1e-12)


def test_build_M_blocks_and_unitarity_for_cnot():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    m = build_M(exp.group, exp.factor, exp.w_ops)
    assert m.shape == (4, 4)
    ok, dev = check_M_unitary(m)
    assert ok and dev < 1e-9
    # block (g, f) holds mu(g, g^-1 f) W(g^-1 f); trivial factor here
    t, inv = exp.group.table, exp.group.inverses
    for g in range(2):
        for f in range(2):
            blk = m[g * 2:(g + 1) * 2, f * 2:(f + 1) * 2]
            np.testing.assert_allclose(blk, exp.w_ops[t[inv[g], f]], atol=1e-10)


def test_all_zero_w_set_gives_a_singular_M():
    group = cyclic(3)
    w = np.zeros((3, 2, 2), dtype=complex)
    m = build_M(group, None, w)
    ok, dev = check_M_unitary(m)
    assert not ok
    assert dev > 1.0


def test_cnot_protocol_on_plus_zero_has_four_uniform_branches():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    psi = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    trace = simulate_protocol(exp, psi)
    assert trace.deterministic
    assert len(trace.branch_outcomes) == 4
    np.testing.assert_allclose(trace.branch_probabilities, 0.25, atol=1e-10)
    np.testing.assert_allclose(trace.branch_fidelities, 1.0, atol=1e-10)
    assert trace.ebits == exp.cost_ebits
    assert trace.cbits == 2 * exp.cost_ebits


def test_branch_measurement_marginal_is_uniform_over_the_group():
    # P(h) = 1/|G| for every h no matter the input state
    w = np.exp(2j * np.pi / 3)
    m = np.diag([1, 1, 1, 1, w, w ** 2, 1, w ** 2, w]).astype(complex)
    exp = compile_unitary(BipartiteUnitary(m, 3, 3))
    n = exp.group.order
    rng = np.random.default_rng(0)
    for trial in range(3):
        psi = random_states(9, 1, seed=trial)[0]
        trace = simulate_protocol(exp, psi)
        marg = np.zeros(n)
        for (h, g), p in zip(trace.branch_outcomes, trace.branch_probabilities):
            marg[h] += p
        np.testing.assert_allclose(marg, 1.0 / n, atol=1e-9)


def test_joint_branch_distribution_uniform_when_M_unitary():
    exp = compile_unitary(BipartiteUnitary(SWAP, 2, 2))
    assert exp.m_unitary
    psi = random_states(4, 1, seed=5)[0]
    trace = simulate_protocol(exp, psi)
    assert len(trace.branch_outcomes) == 16
    np.testing.assert_allclose(trace.branch_probabilities, 1.0 / 16, atol=1e-9)
    np.testing.assert_allclose(trace.branch_fidelities, 1.0, atol=1e-9)


def test_custom_unbiased_basis_still_works():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    rng = np.random.default_rng(1)
    phases = np.exp(2j * np.pi * rng.random(2))
    f = np.diag(phases) @ fourier_basis(2)
    psi = random_states(4, 1, seed=2)[0]
    trace = simulate_protocol(exp, psi, f_matrix=f)
    assert trace.deterministic
    np.testing.assert_allclose(trace.branch_fidelities, 1.0, atol=1e-9)


def test_biased_measurement_basis_is_rejected():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    psi = random_states(4, 1, seed=3)[0]
    with pytest.raises(ValidationError):
        simulate_protocol(exp, psi, f_matrix=np.eye(2, dtype=complex))


def test_a_simulation_validates_its_measurement_basis_once(monkeypatch):
    calls = []

    def counting(f_matrix):
        calls.append(f_matrix)
        validate_unbiased(f_matrix)
    monkeypatch.setattr(nlgc.protocol, "validate_unbiased", counting)
    exp = compile_unitary(BipartiteUnitary(SWAP, 2, 2))
    trace = simulate_protocol(exp, random_states(4, 1, seed=4)[0])
    assert exp.group.order == 4 and trace.deterministic
    assert len(calls) == 1


def test_protocol_covers_every_compiled_gate_class():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(x)
    gates = [BipartiteUnitary(CNOT, 2, 2), BipartiteUnitary(SWAP, 2, 2),
             BipartiteUnitary(q, 2, 2)]
    for bu in gates:
        exp = compile_unitary(bu)
        for psi in random_states(4, 3, seed=11):
            trace = simulate_protocol(exp, psi)
            assert trace.deterministic
            assert abs(sum(trace.branch_probabilities) - 1.0) < 1e-9


def test_unnormalized_states_are_rejected():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    with pytest.raises(ValidationError):
        simulate_protocol(exp, np.ones(4, dtype=complex))


def test_nan_state_is_rejected():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    psi = np.array([np.nan, 1, 0, 0], dtype=complex)
    with pytest.raises(ValidationError, match="not normalized"):
        simulate_protocol(exp, psi)


def test_nan_measurement_basis_is_rejected():
    f = fourier_basis(3)
    f[1, 2] = np.nan
    with pytest.raises(ValidationError):
        validate_unbiased(f)


def test_measurement_basis_of_the_wrong_size_is_rejected():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    assert exp.group.order == 2
    psi = random_states(4, 1, seed=0)[0]
    with pytest.raises(ValidationError, match="must be 2x2"):
        simulate_protocol(exp, psi, f_matrix=fourier_basis(3))


def test_nan_w_operator_makes_M_inconsistent():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    w = exp.w_ops.copy()
    w[1, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="inconsistent"):
        build_M(exp.group, exp.factor, w)


def _reference_M(group, factor, w_ops):
    """M and build_M's translation-block check, written block by block."""
    n, d = group.order, w_ops.shape[1]
    m = np.einsum("fgh,fjk->gjhk", regular_representation(group, factor).matrices,
                  w_ops).reshape(n * d, n * d)
    ok = True
    for g in range(n):
        for f in range(n):
            k = group.table[group.inverses[g], f]
            block = m[g * d:(g + 1) * d, f * d:(f + 1) * d]
            ok &= bool(np.linalg.norm(block - factor.phases[g, k] * w_ops[k])
                       <= 1e-10 * max(1.0, np.linalg.norm(w_ops[k])))
    return m, ok


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [None, np.nan, np.inf], ids=["finite", "nan", "inf"])
def test_build_M_checks_every_projective_translation_block(bad):
    group, fs, _ = pauli_projective_rep(3)
    rng = np.random.default_rng(2)
    w = rng.normal(size=(9, 2, 2)) + 1j * rng.normal(size=(9, 2, 2))
    if bad is not None:
        w[4, 1, 0] = bad
    m, ok = _reference_M(group, fs, w)
    assert ok == (bad is None)
    if ok:
        np.testing.assert_array_equal(build_M(group, fs, w), m)
    else:
        with pytest.raises(ValidationError, match="translation blocks of M are inconsistent"):
            build_M(group, fs, w)


def test_fallback_expansion_protocol_is_deterministic():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(x)
    exp = compile_unitary(BipartiteUnitary(q, 2, 2), allow_projective=False)
    assert exp.fallback
    psi = random_states(4, 1, seed=4)[0]
    trace = simulate_protocol(exp, psi)
    assert trace.deterministic
    assert trace.ebits == 2.0
