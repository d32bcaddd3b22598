"""Branch-by-branch protocol simulation and its building blocks."""
import json
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from conftest import counting_build_M, dense_regular, uncertified_s4_expansion

from nlgc._linalg import unitarity_deviation
from nlgc.errors import ValidationError
from nlgc.expansion import compile_unitary, synthesize_group_gate
from nlgc.groups import FactorSystem, alternating, cyclic
from nlgc.protocol import (M_UNITARY_TOL, ProtocolTrace, build_M, fourier_basis,
                           random_states, simulate_protocol)
from nlgc.report import build_report, canonical_json, expansion_from_report
from nlgc.representations import pauli_projective_rep
from nlgc.schmidt import BipartiteUnitary

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def test_shift_representation_of_c2_is_identity_and_flip():
    shifts = dense_regular(cyclic(2))
    np.testing.assert_allclose(shifts[0], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(shifts[1], np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_shift_representation_satisfies_the_twisted_product_rule():
    rep = pauli_projective_rep(2)
    group, fs = rep.group, rep.factor
    shifts = dense_regular(group, fs)
    n = group.order
    for f in range(n):
        for g in range(n):
            lhs = shifts[f] @ shifts[g]
            rhs = fs.phases[f, g] * shifts[group.table[f, g]]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_shift_representation_is_unitary_for_any_factor():
    rep = pauli_projective_rep(3)
    for s in dense_regular(rep.group, rep.factor):
        np.testing.assert_allclose(s.conj().T @ s, np.eye(9), atol=1e-10)


def _unbiased(f):
    """F is unitary and every |F[h, g]| is 1/sqrt(n): a basis unbiased to the standard one."""
    n = len(f)
    return bool(np.linalg.norm(f @ f.conj().T - np.eye(n)) <= 1e-9
                and np.max(np.abs(np.abs(f) - n ** -0.5)) <= 1e-12)


def test_fourier_basis_is_unbiased_and_rejects_biased_matrices():
    for n in (2, 3, 5):
        assert _unbiased(fourier_basis(n))
    assert not _unbiased(np.eye(3, dtype=complex))


def test_build_M_blocks_and_unitarity_for_cnot():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    m = build_M(exp.group, exp.factor, exp.w_ops)
    assert m.shape == (4, 4)
    np.testing.assert_array_equal(exp.m, m)
    assert exp.m_unitary and exp.m_deviation == unitarity_deviation(m) < 1e-9
    # block (g, f) holds mu(g, g^-1 f) W(g^-1 f); trivial factor here
    t, inv = exp.group.table, exp.group.inverses
    for g in range(2):
        for f in range(2):
            blk = m[g * 2:(g + 1) * 2, f * 2:(f + 1) * 2]
            np.testing.assert_allclose(blk, exp.w_ops[t[inv[g], f]], atol=1e-10)


def test_all_zero_w_set_gives_a_singular_M():
    group = cyclic(3)
    w = np.zeros((3, 2, 2), dtype=complex)
    m = build_M(group, FactorSystem.trivial(3), w)
    dev = unitarity_deviation(m)
    assert not dev <= M_UNITARY_TOL
    assert dev > 1.0


def test_compile_simulate_and_report_build_M_once(monkeypatch):
    calls = counting_build_M(monkeypatch)
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    for psi in random_states(4, 4, seed=1):
        assert simulate_protocol(exp, psi).deterministic
    report = json.loads(canonical_json(build_report(exp)))
    assert calls == [2]
    # a report-loaded expansion builds its own M and never reads the stored status
    report["mStatus"] = {"unitary": False, "deviation": 5.0}
    loaded = expansion_from_report(report)
    assert loaded.m_unitary and loaded.m_deviation < 1e-9 and calls == [2, 2]
    np.testing.assert_allclose(loaded.m, exp.m, atol=1e-9)


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
    # the protocol is deterministic in any basis unbiased to the standard one,
    # not only the Fourier basis simulate_protocol measures in
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    rng = np.random.default_rng(1)
    phases = np.exp(2j * np.pi * rng.random(2))
    f = np.diag(phases) @ fourier_basis(2)
    assert _unbiased(f)
    psi = random_states(4, 1, seed=2)[0]
    probs, fids = _branch_loop(exp, psi, f)
    np.testing.assert_allclose(probs, 1.0 / 4, atol=1e-9)
    np.testing.assert_allclose(fids, 1.0, atol=1e-9)


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


def test_nan_w_operator_makes_M_inconsistent():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    w = exp.w_ops.copy()
    w[1, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="inconsistent"):
        build_M(exp.group, exp.factor, w)


def _reference_M(group, factor, w_ops):
    """M through the dense regular representation, and whether each of its
    blocks equals mu(g, g^-1 f) W(g^-1 f), checked block by block."""
    n, d = group.order, w_ops.shape[1]
    m = np.einsum("fgh,fjk->gjhk", dense_regular(group, factor), w_ops).reshape(n * d, n * d)
    ok = True
    for g in range(n):
        for f in range(n):
            k = group.table[group.inverses[g], f]
            block = m[g * d:(g + 1) * d, f * d:(f + 1) * d]
            ok &= bool(np.linalg.norm(block - factor.phases[g, k] * w_ops[k])
                       <= 1e-10 * max(1.0, np.linalg.norm(w_ops[k])))
    return m, ok


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("ordinary, bad", [
    (False, None), (False, np.nan), (False, np.inf),
    (True, None), (True, np.nan), (True, np.inf)],
    ids=["finite", "nan", "inf", "ordinary-finite", "ordinary-nan", "ordinary-inf"])
def test_build_M_checks_every_projective_translation_block(ordinary, bad):
    # the ordinary case is A4 with the trivial factor, as synthesize_group_gate builds it
    if ordinary:
        group, fs = alternating(4), FactorSystem.trivial(12)
    else:
        rep = pauli_projective_rep(3)
        group, fs = rep.group, rep.factor
    n = group.order
    rng = np.random.default_rng(2)
    w = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
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


def _haar(dim, seed):
    x = np.random.default_rng(seed).normal(size=(dim, dim, 2)) @ [1, 1j]
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _branch_loop(exp, psi, f_matrix):
    """Probabilities and fidelities of every (h, g) branch, one h at a time:
    the loop simulate_protocol ran before its branch pass was batched."""
    n = exp.group.order
    d_a, d_b = exp.unitary.dim_a, exp.unitary.dim_b
    target = exp.unitary.matrix @ psi
    m = build_M(exp.group, exp.factor, exp.w_ops)
    u_mats = exp.u_rep.matrices
    corrections = exp.v @ u_mats.conj().transpose(0, 2, 1)
    controlled = u_mats @ psi.reshape(d_a, d_b)
    probs, fids = np.zeros(n * n), np.zeros(n * n)
    for h in range(n):
        z = 1.0 / (np.sqrt(n) * np.conj(f_matrix[h]))
        amp = np.conj(f_matrix[h])[:, None, None] * controlled / np.sqrt(n)
        amp = z[:, None, None] * amp
        stacked = amp.transpose(0, 2, 1).reshape(n * d_b, d_a)
        evolved = (m @ stacked).reshape(n, d_b, d_a)
        for g in range(n):
            branch = evolved[g]
            p = float(np.vdot(branch, branch).real)
            probs[h * n + g] = p
            if p > 1e-24:
                final = (corrections[g] @ branch.T) / np.sqrt(p)
                fids[h * n + g] = abs(np.vdot(target, final.reshape(d_a * d_b)))
    return probs, fids


W3 = np.exp(2j * np.pi / 3)
BRANCH_GATES = {
    "cnot": (lambda: BipartiteUnitary(CNOT, 2, 2), "C2"),
    "swap": (lambda: BipartiteUnitary(SWAP, 2, 2), "C2xC2"),
    "qutrit-cp": (lambda: BipartiteUnitary(
        np.diag([W3 ** (i * j) for i in range(3) for j in range(3)]), 3, 3), "C3"),
    "haar3x3": (lambda: BipartiteUnitary(_haar(9, 6), 3, 3), "C3xC3"),
    "haar4x4": (lambda: BipartiteUnitary(_haar(16, 4), 4, 4), "C4xC4"),
    "synth-A4": (lambda: synthesize_group_gate(alternating(4), seed=1), "A4"),
    "custom-basis": (lambda: BipartiteUnitary(_haar(9, 6), 3, 3), "C3xC3"),
}


@pytest.mark.parametrize("name", list(BRANCH_GATES))
def test_batched_branch_pass_equals_the_per_h_loop_bitwise(name):
    make, group_name = BRANCH_GATES[name]
    exp = compile_unitary(make())
    n = exp.group.order
    assert exp.group.name == group_name
    states = random_states(exp.unitary.dim_a * exp.unitary.dim_b, 4, seed=5)
    if name == "custom-basis":
        # unbiased but not Fourier: random phases on rows and columns; only the
        # reference loop measures in it, and every branch still gives the gate
        rng = np.random.default_rng(8)
        f = (np.exp(2j * np.pi * rng.random(n))[:, None] * fourier_basis(n)
             * np.exp(2j * np.pi * rng.random(n)))
        assert _unbiased(f)
        for psi in states:
            probs, fids = _branch_loop(exp, psi, f)
            np.testing.assert_allclose(probs, 1.0 / n ** 2, atol=1e-9)
            np.testing.assert_allclose(fids, 1.0, atol=1e-9)
        return
    for psi in states:
        trace = simulate_protocol(exp, psi)
        probs, fids = _branch_loop(exp, psi, fourier_basis(n))
        assert trace.branch_outcomes == tuple((h, g) for h in range(n) for g in range(n))
        assert trace.branch_probabilities.tobytes() == probs.tobytes()
        assert trace.branch_fidelities.tobytes() == fids.tobytes()
        assert trace.deterministic


@pytest.mark.parametrize("name", ["cnot", "swap", "synth-A4"])
def test_cached_branch_operators_equal_the_per_h_loop_bitwise(name):
    # every state of an expansion, compiled or read back from its report,
    # runs on the read-only arrays it built on first use, with the per-h loop's bits
    exp = compile_unitary(BRANCH_GATES[name][0]())
    loaded = expansion_from_report(json.loads(canonical_json(build_report(exp))))
    n = exp.group.order
    for e in (exp, loaded):
        ops = e.branch_operators
        assert not any(a.flags.writeable for a in ops)
        for psi in random_states(e.unitary.dim, 4, seed=11):
            trace = simulate_protocol(e, psi)
            probs, fids = _branch_loop(e, psi, fourier_basis(n))
            assert trace.branch_probabilities.tobytes() == probs.tobytes()
            assert trace.branch_fidelities.tobytes() == fids.tobytes()
            assert e.branch_operators is ops


def test_a_trace_rejects_writes_and_keeps_its_summary():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    trace = simulate_protocol(exp, random_states(4, 1, seed=0)[0])
    summary = trace.summary()
    with pytest.raises(ValueError, match="read-only"):
        trace.branch_probabilities[0] = 7
    with pytest.raises(ValueError, match="read-only"):
        trace.branch_fidelities[0] = 7
    with pytest.raises(FrozenInstanceError):
        trace.deterministic = False
    assert isinstance(trace.branch_outcomes, tuple) and isinstance(trace.warnings, tuple)
    assert trace.summary() == summary and summary["probabilitySum"] == pytest.approx(1.0)
    # a trace built from lists seals them as read-only arrays
    probs, fids = [0.25] * 4, [1.0] * 4
    built = type(trace)(exp, probs, fids)
    for sealed, given in ((built.branch_probabilities, probs), (built.branch_fidelities, fids)):
        assert isinstance(sealed, np.ndarray) and not sealed.flags.writeable
        assert sealed.tolist() == given
    assert built.summary() == {"branches": 4, "deterministic": True, "minFidelity": 1.0,
                               "probabilitySum": 1.0, "ebits": 1.0, "cbits": 2.0}


def _product_gate():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return BipartiteUnitary(np.kron(hadamard, np.array([[0, 1], [1, 0]])), 2, 2)


TRACE_EXPANSIONS = {
    "cnot": lambda: compile_unitary(BipartiteUnitary(CNOT, 2, 2)),
    "product": lambda: compile_unitary(_product_gate()),
    "uncertified S4": lambda: uncertified_s4_expansion()[1],
}


def test_a_trace_stores_its_branch_table_and_derives_the_rest():
    assert [f.name for f in fields(ProtocolTrace)] == [
        "expansion", "branch_probabilities", "branch_fidelities"]
    for name in ("branch_outcomes", "min_fidelity", "deterministic", "ebits", "cbits",
                 "warnings"):
        assert isinstance(getattr(ProtocolTrace, name), property), name


@pytest.mark.parametrize("name", TRACE_EXPANSIONS)
def test_a_trace_agrees_with_its_expansion(name):
    exp = TRACE_EXPANSIONS[name]()
    n = exp.group.order
    trace = simulate_protocol(exp, random_states(exp.unitary.dim, 1, seed=2)[0])
    assert trace.expansion is exp
    assert type(trace.ebits) is float and trace.ebits == exp.cost_ebits
    assert type(trace.cbits) is float and trace.cbits == 2 * trace.ebits
    assert trace.branch_outcomes == tuple((h, g) for h in range(n) for g in range(n))
    assert isinstance(trace.warnings, tuple) and bool(trace.warnings) == (not exp.m_unitary)
    assert trace.summary()["branches"] == n * n
    if name == "product":
        assert (n, trace.cbits, trace.branch_outcomes) == (1, 0.0, ((0, 0),))
    if name == "uncertified S4":
        assert exp.group.name == "S4" and not trace.deterministic
        assert "%.3e" % exp.m_deviation in trace.warnings[0]
    else:
        assert trace.deterministic and trace.warnings == ()
