"""Compilation pipeline: V construction, W extraction, classification."""
import json
import sys
import threading
from dataclasses import FrozenInstanceError, is_dataclass
from functools import partial
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest
from conftest import dense_regular, haar_block_gate, uncertified_s4_expansion

import nlgc.expansion
import nlgc.search
from nlgc._linalg import dagger
from nlgc.errors import InconsistencyError, SingularInputError
from nlgc.expansion import (CONTROLLED, DOUBLE, NUM_TOL, GroupExpansion, _finest_structure,
                            _side_stream, classify, compile_unitary, compute_W, construct_V,
                            synthesize_group_gate)
from nlgc.groups import (FiniteGroup, alternating, catalog_recipe, cyclic, dihedral,
                         direct_product, symmetric)
from nlgc.protocol import build_M
from nlgc.report import build_report, canonical_json, expansion_from_report, verify_report
from nlgc.representations import irreps_of
from nlgc.schmidt import BipartiteUnitary
from nlgc.search import CatalogIndex, search_group, trivial_structure

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def random_unitary(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def controlled_gate(targets):
    d_b = targets[0].shape[0]
    m = np.zeros((len(targets) * d_b, len(targets) * d_b), dtype=complex)
    for i, t in enumerate(targets):
        m[i * d_b:(i + 1) * d_b, i * d_b:(i + 1) * d_b] = t
    return BipartiteUnitary(m, len(targets), d_b)


def test_construct_v_on_projector_pair_is_identity():
    a_ops = [np.sqrt(2) * np.diag([1.0, 0.0]).astype(complex),
             np.sqrt(2) * np.diag([0.0, 1.0]).astype(complex)]
    v = construct_V(a_ops, trivial_structure([1, 1]))
    np.testing.assert_allclose(v, np.eye(2), atol=1e-12)


def test_construct_v_recovers_a_hidden_local_unitary():
    rng = np.random.default_rng(2)
    v_true = random_unitary(2, rng)
    u_ops = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    a_ops = [v_true @ u for u in u_ops]
    bs = trivial_structure([1, 1])
    v = construct_V(a_ops, bs)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-10)
    # V undoes the dressing up to a phase per block
    for a in a_ops:
        residue = v.conj().T @ a
        assert abs(residue[0, 1]) < 1e-10 and abs(residue[1, 0]) < 1e-10
    overlap = np.abs(v.conj().T @ v_true)
    np.testing.assert_allclose(overlap, np.eye(2), atol=1e-9)


def test_construct_v_rejects_rank_deficient_blocks():
    a_ops = [np.sqrt(2) * np.diag([1.0, 0.0]).astype(complex)]
    with pytest.raises(SingularInputError):
        construct_V(a_ops, trivial_structure([1, 1]))


def test_construct_v_fails_closed_on_a_nan(monkeypatch):
    # gram_schmidt drops a NaN column and the polar SVD raises on one, so
    # no argument carries a NaN to the unitarity check: a patched helper does
    monkeypatch.setattr(nlgc.expansion, "gram_schmidt",
                        lambda cols, expected_rank: np.full((len(cols), expected_rank), np.nan))
    a_ops = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    with pytest.raises(SingularInputError, match="overlap"):
        construct_V(a_ops, trivial_structure([1, 1]))


# X_0 = diag(1, 0), X_1 = diag(1, 1) on two 1x1 classes of C2
C2_A_OPS = np.array([np.diag([1.0, 0.0]), np.eye(2)], dtype=complex)


def test_compute_w_rebuilds_every_block_of_a_consistent_assignment():
    irreps = irreps_of(cyclic(2))
    coeffs = compute_W(np.eye(2, dtype=complex), C2_A_OPS, trivial_structure([1, 1]),
                       irreps, [0, 1])
    rebuilt = [np.einsum("jg,g->j", coeffs, irreps[k].matrices[:, 0, 0]) for k in (0, 1)]
    np.testing.assert_allclose(np.array(rebuilt).T, [[1, 0], [1, 1]], atol=1e-12)


def test_compute_w_fails_closed_on_a_nan_in_v():
    v = np.eye(2, dtype=complex)
    v[1, 0] = np.nan
    with pytest.raises(InconsistencyError, match="class 0 for operator 0"):
        compute_W(v, C2_A_OPS, trivial_structure([1, 1]), irreps_of(cyclic(2)), [0, 1])


def test_compute_w_names_the_first_failure_class_by_class():
    # one irrep for both classes rebuilds X_j[0] + X_j[1] on each block: class
    # 0 fails for operator 1 only, class 1 for both; the class comes first
    with pytest.raises(InconsistencyError, match="class 0 for operator 1$"):
        compute_W(np.eye(2, dtype=complex), C2_A_OPS, trivial_structure([1, 1]),
                  irreps_of(cyclic(2)), [0, 0])


def test_cnot_expansion_in_full():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    assert exp.group.name == "C2"
    assert exp.cost_ebits == 1.0
    assert exp.baseline_ebits == 2.0
    assert exp.savings_ebits == 1.0
    assert exp.residual < 1e-10
    assert exp.m_unitary
    assert not exp.fallback
    np.testing.assert_allclose(exp.v, np.eye(2), atol=1e-9)
    # the nontrivial group element acts as the phase flip on the control
    eig = sorted(np.linalg.eigvals(exp.u_rep.matrices[1]).real)
    np.testing.assert_allclose(eig, [-1.0, 1.0], atol=1e-9)
    # W pair resolves the identity/flip mixture of the target side; which
    # combination lands on I versus X depends on the projector labeling
    w_e = exp.w_ops[exp.group.identity]
    w_g = exp.w_ops[1 - exp.group.identity]
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    plus, minus = w_e + w_g, w_e - w_g
    straight = np.linalg.norm(plus - np.eye(2)) + np.linalg.norm(minus - x)
    crossed = np.linalg.norm(plus - x) + np.linalg.norm(minus - np.eye(2))
    assert min(straight, crossed) < 1e-9


def test_cnot_classified_as_controlled_with_projector_targets():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    assert exp.classification == "controlled-unitary"
    projs = exp.details["projectors"]
    targs = exp.details["targets"]
    total = sum(np.kron(exp.v @ q, t) for q, t in zip(projs, targs))
    np.testing.assert_allclose(total, CNOT, atol=1e-8)
    for q in projs:
        np.testing.assert_allclose(q @ q, q, atol=1e-8)


def test_swap_needs_the_order_four_projective_group():
    exp = compile_unitary(BipartiteUnitary(SWAP, 2, 2))
    assert exp.group.order == 4
    assert exp.route == "projective"
    assert not exp.factor.is_trivial
    assert exp.cost_ebits == 2.0
    assert exp.savings_ebits == 0.0
    assert exp.residual < 1e-10
    assert exp.classification == "double-unitary"
    # B side mirrors the A side: W(f) is proportional to (V U(f))^dag
    for f in range(4):
        vu = exp.v @ exp.u_rep.matrices[f]
        np.testing.assert_allclose(exp.w_ops[f], vu.conj().T / 2, atol=1e-9)


def test_dressed_swap_stays_double_unitary():
    rng = np.random.default_rng(8)
    locals_ = [random_unitary(2, rng) for _ in range(4)]
    m = np.kron(locals_[0], locals_[1]) @ SWAP @ np.kron(locals_[2], locals_[3])
    exp = compile_unitary(BipartiteUnitary(m, 2, 2))
    assert exp.group.order == 4
    assert exp.classification == "double-unitary"
    assert exp.residual < 1e-8


def test_qutrit_controlled_phase_saves_against_teleportation():
    w = np.exp(2j * np.pi / 3)
    m = np.diag([1, 1, 1, 1, w, w ** 2, 1, w ** 2, w]).astype(complex)
    exp = compile_unitary(BipartiteUnitary(m, 3, 3))
    assert exp.group.name == "C3"
    assert abs(exp.cost_ebits - np.log2(3)) < 1e-12
    assert abs(exp.baseline_ebits - 2 * np.log2(3)) < 1e-12
    assert exp.classification == "controlled-unitary"
    assert exp.residual < 1e-10


def test_random_controlled_gates_classify_controlled():
    rng = np.random.default_rng(20)
    for trial in range(20):
        d_a = int(rng.integers(2, 5))
        d_b = int(rng.integers(2, 4))
        targets = [random_unitary(d_b, rng) for _ in range(d_a)]
        bu = controlled_gate(targets)
        exp = compile_unitary(bu, seed=trial)
        assert exp.classification == "controlled-unitary", (trial, d_a, d_b)
        assert exp.residual < 1e-8
        projs, targs = exp.details["projectors"], exp.details["targets"]
        total = sum(np.kron(exp.v @ q, t) for q, t in zip(projs, targs))
        np.testing.assert_allclose(total, bu.matrix, atol=1e-7)


def test_product_gate_compiles_to_the_trivial_group():
    rng = np.random.default_rng(4)
    bu = BipartiteUnitary(np.kron(random_unitary(2, rng), random_unitary(3, rng)), 2, 3)
    exp = compile_unitary(bu)
    assert exp.group.order == 1
    assert exp.cost_ebits == 0.0
    assert exp.residual < 1e-10


def test_generic_gate_compiles_general_at_teleportation_cost():
    rng = np.random.default_rng(42)
    bu = BipartiteUnitary(random_unitary(4, rng), 2, 2)
    exp = compile_unitary(bu)
    assert exp.group.order == 4
    assert exp.cost_ebits == 2.0
    assert exp.classification == "general"
    assert not exp.fallback
    assert exp.residual < 1e-8


def test_side_selection_prefers_cheaper_then_a():
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2), side="both")
    assert exp.side == "A"
    forced = compile_unitary(BipartiteUnitary(CNOT, 2, 2), side="B")
    assert forced.side == "B"
    assert forced.cost_ebits == 1.0
    assert forced.residual < 1e-10
    # B side expansion reconstructs the swapped gate
    np.testing.assert_allclose(forced.reconstruct(),
                               BipartiteUnitary(CNOT, 2, 2).swapped().matrix,
                               atol=1e-9)


def test_asymmetric_dimensions_choose_the_cheap_side():
    # qutrit control, qubit target: on the A side this needs C3, but the
    # diagonal algebra of the qubit target is only two dimensional, so the
    # B side gets away with C2 at one ebit and must win the tie
    w = np.exp(2j * np.pi / 3)
    targets = [np.eye(2), np.diag([1, w]), np.diag([1, w ** 2])]
    bu = controlled_gate([t.astype(complex) for t in targets])
    exp = compile_unitary(bu)
    assert exp.side == "B"
    assert exp.group.order == 2
    assert exp.cost_ebits == 1.0
    assert exp.residual < 1e-8
    forced_a = compile_unitary(bu, side="A")
    assert forced_a.group.order == 3
    assert abs(forced_a.cost_ebits - np.log2(3)) < 1e-12


def test_restricted_catalog_falls_back_with_warnings():
    rng = np.random.default_rng(11)
    bu = BipartiteUnitary(random_unitary(4, rng), 2, 2)
    exp = compile_unitary(bu, catalog=[cyclic(n) for n in (1, 2, 4)])
    assert exp.fallback
    assert exp.route == "fallback"
    assert exp.cost_ebits == 2.0
    assert exp.residual < 1e-9
    assert any("fell back" in w for w in exp.warnings)
    assert any("no group of order 8" in w for w in exp.warnings)


def test_one_sided_compile_reports_the_blocks_of_both_sides():
    bu = BipartiteUnitary(np.diag([1, 1, 1, -1, 1, -1]).astype(complex), 3, 2)
    both = compile_unitary(bu)
    assert set(both.blocks) == {"A", "B"}
    assert compile_unitary(bu, side="A").blocks == both.blocks


def test_fallback_keeps_v_at_the_identity():
    rng = np.random.default_rng(17)
    bu = BipartiteUnitary(random_unitary(4, rng), 2, 2)
    exp = compile_unitary(bu, allow_projective=False)
    np.testing.assert_array_equal(exp.v, np.eye(2))
    assert exp.route == "fallback"
    assert exp.fallback


def test_no_projective_option_forces_fallback_on_generic_gates():
    rng = np.random.default_rng(13)
    bu = BipartiteUnitary(random_unitary(4, rng), 2, 2)
    exp = compile_unitary(bu, allow_projective=False)
    assert exp.fallback
    assert exp.m_unitary


def test_synthesized_gates_recompile_to_their_group():
    for group in [symmetric(3), cyclic(5)]:
        bu = synthesize_group_gate(group, seed=1)
        exp = compile_unitary(bu, seed=1)
        assert exp.group.order <= group.order
        assert exp.residual < 1e-8
        assert exp.m_unitary


def test_synthesize_group_gate_fails_closed_on_a_nan(monkeypatch):
    # build_M rejects a NaN W(f), so the NaN sits outside the identity block
    # row that W is read from; no seed draws one, so a patched helper does
    monkeypatch.setattr(nlgc.expansion, "polar_unitary",
                        lambda m: np.vstack([m[:-1], np.full((1, len(m)), np.nan)]))
    with pytest.raises(InconsistencyError, match="translation algebra"):
        synthesize_group_gate(cyclic(3), seed=1)


def test_classify_runs_on_rebuilt_expansions():
    exp = compile_unitary(BipartiteUnitary(SWAP, 2, 2))
    label, details = classify(exp)
    assert label == exp.classification
    assert "wFactorPhases" in details


@pytest.fixture
def group_builds(monkeypatch):
    """Orders of the FiniteGroup objects built while the test runs."""
    built = []
    validate = FiniteGroup.__post_init__

    def counting(self):
        validate(self)
        built.append(self.order)
    monkeypatch.setattr(FiniteGroup, "__post_init__", counting)
    return built


def test_a_compile_builds_only_the_catalog_orders_it_reaches(fresh_builtin_index, group_builds):
    assert compile_unitary(BipartiteUnitary(CNOT, 2, 2)).group.order == 2
    assert group_builds and max(group_builds) == 2
    group_builds.clear()
    assert compile_unitary(BipartiteUnitary(SWAP, 2, 2)).group.order == 4
    # the projective C2xC2 comes from the first extension order over 4, 8,
    # so the search stops before it fills from order 16
    assert set(group_builds) == {4, 8}


@pytest.fixture
def irreps_calls(monkeypatch):
    """Orders of the groups whose irreps the search computes while the test runs."""
    calls = []
    irreps = nlgc.search.irreps_of

    def counting(group, seed):
        calls.append(group.order)
        return irreps(group, seed=seed)
    monkeypatch.setattr(nlgc.search, "irreps_of", counting)
    return calls


def test_a_repeat_compile_builds_no_group_and_no_irreps(fresh_builtin_index, group_builds,
                                                       irreps_calls):
    # CNOT, SWAP (projective) and a Haar 4x4 gate, which takes the fallback
    gates = [BipartiteUnitary(CNOT, 2, 2), BipartiteUnitary(SWAP, 2, 2),
             BipartiteUnitary(random_unitary(16, np.random.default_rng(4)), 4, 4)]
    first = [compile_unitary(bu) for bu in gates]
    assert group_builds and irreps_calls and first[-1].fallback
    group_builds.clear()
    irreps_calls.clear()
    again = [compile_unitary(bu) for bu in gates]
    assert group_builds == [] and irreps_calls == []
    assert [e.group for e in again] == [e.group for e in first]
    # a compile at another seed replaces the one slot; an explicit catalog
    # builds its own index and leaves the slot alone
    compile_unitary(gates[0], seed=5)
    assert group_builds and nlgc.search._builtin.seed == 5
    group_builds.clear()
    compile_unitary(gates[0], catalog=catalog_recipe(4))
    assert group_builds
    assert nlgc.search._builtin.seed == 5


def test_compiles_in_threads_share_the_index_and_keep_their_reports(fresh_builtin_index):
    w = np.exp(2j * np.pi / 3)
    gates = [BipartiteUnitary(CNOT, 2, 2), BipartiteUnitary(SWAP, 2, 2),
             BipartiteUnitary(np.diag([w ** (i * j) for i in range(3) for j in range(3)]), 3, 3),
             BipartiteUnitary(random_unitary(9, np.random.default_rng(6)), 3, 3)]
    # each reference compile builds an index of its own
    serial = [canonical_json(build_report(compile_unitary(bu, catalog=catalog_recipe())))
              for bu in gates]
    index = nlgc.search.builtin_index(0)     # empty, filled by all threads at once
    results = [[None] * len(gates) for _ in range(6)]

    def work(k):
        for i in np.roll(np.arange(len(gates)), k):
            results[k][i] = compile_unitary(gates[i])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert nlgc.search._builtin is index
    for i, reference in enumerate(serial):
        assert {canonical_json(build_report(r[i])) for r in results} == {reference}
        # every thread reads the entry stored first, whichever thread built it
        assert len({id(r[i].group) for r in results}) == 1


def test_a_result_cannot_rename_or_write_what_a_later_compile_reads(fresh_builtin_index):
    swap = BipartiteUnitary(SWAP, 2, 2)
    exp = compile_unitary(swap)
    before = canonical_json(build_report(exp))
    with pytest.raises(FrozenInstanceError):
        exp.group.name = "Renamed"
    with pytest.raises(FrozenInstanceError):
        exp.u_rep.matrices = np.zeros_like(exp.u_rep.matrices)
    with pytest.raises(FrozenInstanceError):
        exp.factor.phases = np.ones_like(exp.factor.phases)
    for array in (exp.u_rep.matrices, exp.factor.phases):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    _, bs = _finest_structure(swap, 10 * NUM_TOL, seed=0)
    cand = next(c for c in search_group(bs, nlgc.search.builtin_index(0))
                if c.group.name == exp.group.name)
    assert cand.group is exp.group and cand.factor is exp.factor
    with pytest.raises(FrozenInstanceError):
        cand.group.name = "Renamed"
    with pytest.raises(ValueError, match="read-only"):
        cand.irreps[0].matrices[0] = 0
    with pytest.raises(TypeError):
        cand.irreps[0] = cand.irreps[-1]
    with pytest.raises(FrozenInstanceError):
        cand.irreps = ()
    fallback = compile_unitary(BipartiteUnitary(random_unitary(16, np.random.default_rng(4)),
                                                4, 4))
    with pytest.raises(FrozenInstanceError):
        fallback.group.name = "Renamed"
    with pytest.raises(ValueError, match="read-only"):
        fallback.u_rep.matrices[1] = 0
    assert canonical_json(build_report(compile_unitary(swap))) == before


def test_a_cheaper_fallback_beats_a_costlier_group():
    # side B's blocks [2, 3] fit S4 (order 24); side A's fallback has order 16
    bu = haar_block_gate(4, [2, 3], seed=7)
    cands, _ = uncertified_s4_expansion()
    assert [c.group.name for c in cands] == ["S4"]
    exp = compile_unitary(bu)
    assert (exp.fallback, exp.side, exp.group.name) == (True, "A", "C4xC4")
    assert exp.cost_ebits == exp.baseline_ebits == 4.0
    assert exp.residual < 1e-9
    assert exp.warnings[-1].endswith("at the teleportation cost")


def test_a_side_stream_ends_with_its_fallback_candidate():
    # the start marker, the search's candidates, then the fallback the stream
    # builds after the marker of its own key
    _, bs = _finest_structure(BipartiteUnitary(CNOT, 2, 2), 10 * NUM_TOL, seed=0)
    (key, marker), *searched, (key2, marker2), (last, fallback) = _side_stream(
        "A", bs, CatalogIndex(), True, [])
    assert (key, marker) == ((2, False, "A"), None)
    assert searched and all(k == (c.order, False, "A") and c.route != "fallback"
                            for k, c in searched)
    assert (key2, marker2) == ((4, True, "A"), None) and last == (4, True, "A")
    assert (fallback.route, fallback.group.name, fallback.assignment) == ("fallback", "C2xC2", (0,))
    assert fallback.structure.block_sizes == (2,)


def test_a_candidate_whose_M_is_not_unitary_is_rejected():
    # side B's only search candidate, S4, reproduces the 4x5 gate W2 + W3 but
    # its M is not unitary; side B alone falls back to C5xC5, which is certified
    _, s4 = uncertified_s4_expansion()
    assert s4.group.name == "S4" and s4.residual < 1e-9 and not s4.m_unitary
    exp = compile_unitary(haar_block_gate(4, [2, 3], seed=7), side="B")
    assert (exp.fallback, exp.side, exp.group.name) == (True, "B", "C5xC5")
    assert exp.m_unitary and exp.residual < 1e-9
    assert exp.cost_ebits == np.log2(25)
    assert ("order-24 candidate S4 rejected: M is not unitary (deviation %.3e)"
            % s4.m_deviation) in exp.warnings
    # a one-sided fallback above the teleportation cost says what it costs
    assert exp.warnings[-1].endswith(
        "expansion at 4.644 ebits, above the teleportation cost of 4.000")


def test_a_side_that_cannot_beat_the_result_is_never_searched(monkeypatch, group_builds):
    # side A wins at order 2 (CNOT) or 4 (Haar 2x3), below side B's floor
    # (2 for CNOT, where side A's C2 ranks first; 9 for Haar 2x3, whose first
    # search step would fill Heis3, of order 27)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return search_group(*args, **kwargs)
    monkeypatch.setattr(nlgc.expansion, "search_group", counting)
    haar = random_unitary(6, np.random.default_rng(23))
    for bu, order in [(BipartiteUnitary(CNOT, 2, 2), 2), (BipartiteUnitary(haar, 2, 3), 4)]:
        calls.clear()
        exp = compile_unitary(bu, side="both")
        assert (exp.side, exp.group.order) == ("A", order)
        assert len(calls) == 1
    assert 27 not in group_builds


def test_a_fallback_carries_the_first_search_step_of_an_unsearched_side():
    # Haar 4x5 and 5x4 fall back on the d = 4 side at order 16 before the
    # stream reaches the other side's floor, 25; that side's first search step
    # still contributes its catalog-gap warnings
    gaps = {16: ["catalog has no group of order %d for central extensions over order 16" % o
                 for o in (64, 128, 256)],
            25: ["catalog has no group of order %d for central extensions over order 25" % o
                 for o in (125, 625)]}
    fell_back = ("no admissible group found within the search bound; fell back to the "
                 "generalized shift-and-phase expansion at the teleportation cost")
    rng = np.random.default_rng(1)
    for d_a, d_b, side, first, second in [(4, 5, "A", 16, 25), (5, 4, "B", 25, 16)]:
        exp = compile_unitary(BipartiteUnitary(random_unitary(d_a * d_b, rng), d_a, d_b))
        assert (exp.fallback, exp.side, exp.group.name) == (True, side, "C4xC4")
        assert exp.warnings == (*gaps[first], *gaps[second], fell_back)


MIXED_DIMENSIONS = {
    **{f"haar {d_a}x{d_b}": (lambda d_a=d_a, d_b=d_b: BipartiteUnitary(
        random_unitary(d_a * d_b, np.random.default_rng(10 * d_a + d_b)), d_a, d_b))
       for d_a, d_b in [(2, 3), (3, 2), (3, 4), (4, 3), (2, 5), (3, 5)]},
    "W2+W3 4x5": lambda: haar_block_gate(4, [2, 3], seed=7),
    "W1+W2 3x3": lambda: haar_block_gate(3, [1, 2], seed=3),
}


@pytest.mark.parametrize("make", MIXED_DIMENSIONS.values(), ids=MIXED_DIMENSIONS.keys())
def test_cost_never_exceeds_the_teleportation_cost(make):
    exp = compile_unitary(make())
    assert exp.cost_ebits <= exp.baseline_ebits + 1e-12
    assert exp.residual < 1e-8


def test_cnot_assembles_exactly_one_candidate(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return construct_V(*args, **kwargs)
    monkeypatch.setattr(nlgc.expansion, "construct_V", counting)
    assert compile_unitary(BipartiteUnitary(CNOT, 2, 2), side="both").group.name == "C2"
    assert len(calls) == 1


def test_compile_raises_when_not_even_the_fallback_reproduces_the_gate(monkeypatch):
    monkeypatch.setattr(GroupExpansion, "residual", 1.0)
    with pytest.raises(InconsistencyError, match="not even the fallback"):
        compile_unitary(BipartiteUnitary(CNOT, 2, 2))


def _without_claims(exp):
    return GroupExpansion(schmidt=exp.schmidt, structure=exp.structure, v=exp.v,
                          u_rep=exp.u_rep, w_coeffs=exp.w_coeffs, w_ops=exp.w_ops,
                          side=exp.side, route=exp.route)


@pytest.mark.parametrize("name", ["w_ops", "residual", "blocks"])
def test_a_compiled_expansion_is_frozen(name):
    # its residual and M are derived once from its data, so the data cannot change
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    residual, m = exp.residual, exp.m
    with pytest.raises(FrozenInstanceError):
        setattr(exp, name, np.zeros_like(exp.w_ops))
    assert exp.residual == residual and exp.m is m
    np.testing.assert_array_equal(m, build_M(exp.group, exp.factor, exp.w_ops))


@pytest.mark.parametrize("gate", ["cnot", "swap"])
def test_a_compiled_expansion_rejects_writes_to_its_arrays(gate):
    # CNOT is controlled (projectors, targets), SWAP double-unitary (wFactorPhases, wNorms)
    exp = compile_unitary(BipartiteUnitary(CNOT if gate == "cnot" else SWAP, 2, 2))
    assert exp.m_unitary and exp.residual < 1e-12
    members, inter = exp.structure.classes[0]
    arrays = {"v": exp.v, "w_coeffs": exp.w_coeffs, "w_ops": exp.w_ops,
              "u_rep.matrices": exp.u_rep.matrices,
              "structure.basis_change": exp.structure.basis_change,
              "intertwiner": inter[members[0]], **exp.details}
    assert len(exp.details) == 2
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
            pytest.fail(f"{name} accepted a write")
    assert exp.m_unitary and exp.residual < 1e-12
    np.testing.assert_array_equal(exp.m, build_M(exp.group, exp.factor, exp.w_ops))


def _assert_sealed(value, path, seen):
    """Every array reachable from value is read-only, no attribute of a
    dataclass it reaches can be assigned, and it reaches no list, dict or set."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        with pytest.raises(ValueError, match="read-only"):
            value[...] = value
            pytest.fail(f"{path} accepted a write")
    elif is_dataclass(value):
        for name, child in [*vars(value).items(), ("unset", None)]:
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, child)
            _assert_sealed(child, f"{path}.{name}", seen)
    elif isinstance(value, MappingProxyType):
        for key, child in value.items():
            _assert_sealed(child, f"{path}[{key!r}]", seen)
    elif isinstance(value, tuple):
        for i, child in enumerate(value):
            _assert_sealed(child, f"{path}[{i}]", seen)
    else:
        assert isinstance(value, (str, int, float, np.generic, type(None))), (path, type(value))


@pytest.mark.parametrize("gate", ["cnot", "swap", "haar 4x4"])
def test_nothing_reachable_from_an_expansion_can_be_written(gate):
    # the gate, its Schmidt terms, the structure, the group table and its
    # cached invariants, u_rep, the factor system, details, blocks, warnings
    # and the cached residual and M, of a compile and of its report read back
    matrix = {"cnot": CNOT, "swap": SWAP,
              "haar 4x4": random_unitary(16, np.random.default_rng(4))}[gate]
    exp = compile_unitary(BipartiteUnitary(matrix, *(2, 2) if len(matrix) == 4 else (4, 4)))
    loaded = expansion_from_report(json.loads(canonical_json(build_report(exp))))
    assert exp.warnings if gate == "haar 4x4" else exp.details
    for name, e in (("compiled", exp), ("loaded", loaded)):
        assert e.residual < 1e-9 and e.m_unitary and e.group.signature
        _assert_sealed(e, name, set())


def test_nothing_reachable_from_a_search_candidate_can_be_written():
    _, bs = _finest_structure(BipartiteUnitary(SWAP, 2, 2), 10 * NUM_TOL, seed=0)
    cands = [c for _, c in _side_stream("A", bs, CatalogIndex(), True, []) if c is not None]
    assert {c.route for c in cands} == {"projective", "fallback"}
    for i, cand in enumerate(cands):
        _assert_sealed(cand, f"candidate {i}", set())


def test_an_expansion_without_claims_still_has_its_costs():
    # the costs are read off the group and the dimensions, never stored
    bare = _without_claims(compile_unitary(BipartiteUnitary(CNOT, 2, 2)))
    report = json.loads(canonical_json(build_report(bare)))
    assert report["costs"] == {"costEbits": 1.0, "baselineEbits": 2.0, "savingsEbits": 1.0}
    assert verify_report(report)[1]["costs"]


# reconstruct and classify work on stacks with the arithmetic of the loops
# they replaced; each test keeps that loop as its reference and compares bytes

@pytest.mark.parametrize("d_a", [2, 3, 8, 12])
def test_reconstruct_equals_the_kron_sum_bytewise(d_a):
    rng = np.random.default_rng(120 + d_a)
    n, d_b = 6, 3
    mats = rng.normal(size=(n, d_a, d_a)) + 1j * rng.normal(size=(n, d_a, d_a))
    exp = SimpleNamespace(
        v=random_unitary(d_a, rng), group=SimpleNamespace(order=n),
        u_rep=SimpleNamespace(matrices=mats),
        w_ops=rng.normal(size=(n, d_b, d_b)) + 1j * rng.normal(size=(n, d_b, d_b)))
    expected = sum(np.kron(exp.v @ mats[f], exp.w_ops[f]) for f in range(n))
    assert GroupExpansion.reconstruct(exp).tobytes() == expected.tobytes()


def _w_rep(group, dim):
    return next(r.matrices for r in irreps_of(group) if r.dim == dim)


@pytest.mark.parametrize("group, w_mats", [
    (symmetric(3), lambda g: _w_rep(g, 2)),
    (alternating(4), lambda g: _w_rep(g, 3)),
    (dihedral(4), dense_regular),
    (alternating(4), dense_regular)],
    ids=["d=2", "d=3", "d=8", "d=12"])
def test_w_factor_phases_equal_the_pairwise_loop_bytewise(group, w_mats):
    # W(f) = c_f e^{i theta_f} X R(f) over a unitary rep R of a non-abelian
    # group: a double-unitary expansion whose factor phases are e^{i(...)}
    rng = np.random.default_rng(130 + group.order)
    n = group.order
    r = w_mats(group)
    d_b = r.shape[1]
    w = (rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.random(n)))[:, None, None] \
        * (random_unitary(d_b, rng) @ r)
    exp = SimpleNamespace(group=group, w_ops=w,
                          u_rep=SimpleNamespace(matrices=dense_regular(group)))
    kind, details = classify(exp)
    assert kind == DOUBLE
    grams = np.einsum("fba,fbc->fac", np.conj(w), w)
    wt = w / np.sqrt(np.einsum("faa->f", grams).real / d_b)[:, None, None]
    anchored = np.einsum("ba,fbc->fac", np.conj(wt[group.identity]), wt)
    expected = np.zeros((n, n), dtype=complex)
    for f in range(n):
        for g in range(n):
            target = anchored[group.table[f, g]]
            expected[f, g] = np.trace(target.conj().T @ (anchored[f] @ anchored[g])) / d_b
    assert details["wFactorPhases"].tobytes() == expected.tobytes()


def _greedy_controlled_witnesses(exp):
    """classify's controlled-unitary witnesses as its former greedy loop built
    them: each column joins the first class whose leading column's characters
    agree with its own within 1e-6."""
    u_mats = exp.u_rep.matrices
    d_a = u_mats.shape[1]
    s = exp.structure.basis_change
    chars = np.einsum("fii->if", exp.structure.transformed(u_mats))
    groups, reps = [], []
    for col in range(d_a):
        for gi, r in enumerate(reps):
            if np.max(np.abs(chars[col] - r)) <= 1e-6:
                groups[gi].append(col)
                break
        else:
            groups.append([col])
            reps.append(chars[col])
    pis = np.zeros((len(groups), d_a, d_a), dtype=complex)
    for k, cols in enumerate(groups):
        pis[k, cols, cols] = 1.0
    return s @ pis @ dagger(s), np.einsum("kf,fab->kab", np.array(reps), exp.w_ops)


_W3 = np.exp(2j * np.pi / 3)
CONTROLLED_GATES = {
    "cnot": lambda: BipartiteUnitary(CNOT, 2, 2),
    "cz": lambda: BipartiteUnitary(np.diag([1, 1, 1, -1]), 2, 2),
    "qutrit-cp": lambda: BipartiteUnitary(
        np.diag([_W3 ** (i * j) for i in range(3) for j in range(3)]), 3, 3),
    "ctrl-z-3x2": lambda: BipartiteUnitary(np.diag([1, 1, 1, -1, 1, -1]), 3, 2),
    **{f"synth-{g.name}": partial(synthesize_group_gate, g, seed=3)
       for g in (cyclic(2), cyclic(3), cyclic(4), cyclic(6), cyclic(8),
                 direct_product(cyclic(2), cyclic(4)), direct_product(cyclic(3), cyclic(3)),
                 cyclic(11))},
}


@pytest.mark.parametrize("make", CONTROLLED_GATES.values(), ids=CONTROLLED_GATES.keys())
def test_controlled_witnesses_equal_the_greedy_loop_bytewise(make):
    exp = compile_unitary(make())
    assert exp.classification == CONTROLLED
    projectors, targets = _greedy_controlled_witnesses(exp)
    assert exp.details["projectors"].tobytes() == projectors.tobytes()
    assert exp.details["targets"].tobytes() == targets.tobytes()
