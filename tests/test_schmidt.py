"""Operator Schmidt decomposition checks against hand-computed expansions."""
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from nlgc import schmidt
from nlgc._linalg import leading_phase
from nlgc.errors import DimensionError, ValidationError
from nlgc.expansion import synthesize_group_gate
from nlgc.groups import FactorSystem, alternating, builtin_catalog
from nlgc.protocol import build_M
from nlgc.schmidt import BipartiteUnitary, schmidt_decompose

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def random_unitary(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def realigned_by_hand(m, da, db):
    # row (i, i'), column (j, j') holds <i j| m |i' j'>
    out = np.zeros((da * da, db * db), dtype=complex)
    m4 = m.reshape(da, db, da, db)
    for i in range(da):
        for ip in range(da):
            for j in range(db):
                for jp in range(db):
                    out[i * da + ip, j * db + jp] = m4[i, j, ip, jp]
    return out


def test_cnot_has_rank_two_with_equal_weights():
    # CNOT = |0><0| x I + |1><1| x X, both terms orthogonal with norm sqrt2
    dec = schmidt_decompose(BipartiteUnitary(CNOT, 2, 2))
    assert len(dec) == 2
    np.testing.assert_allclose(dec.coefficients, [np.sqrt(2), np.sqrt(2)])


def test_cnot_terms_are_the_projector_pair():
    dec = schmidt_decompose(BipartiteUnitary(CNOT, 2, 2))
    total = sum(np.kron(a, b) for a, b in zip(dec.a_ops, dec.b_ops))
    np.testing.assert_allclose(total, CNOT, atol=1e-12)
    # the A side spans {|0><0|, |1><1|} exactly
    span = np.array([a.reshape(-1) for a in dec.a_ops])
    for target in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        coeffs = np.linalg.lstsq(span.T, target.reshape(-1), rcond=None)[0]
        np.testing.assert_allclose(span.T @ coeffs, target.reshape(-1), atol=1e-10)


def test_swap_is_full_rank_with_unit_weights():
    dec = schmidt_decompose(BipartiteUnitary(SWAP, 2, 2))
    assert len(dec) == 4
    np.testing.assert_allclose(dec.coefficients, np.ones(4), atol=1e-12)


def test_coefficients_match_realignment_singular_values():
    rng = np.random.default_rng(7)
    for da, db in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        u = random_unitary(da * db, rng)
        bu = BipartiteUnitary(u, da, db)
        dec = schmidt_decompose(bu)
        sv = np.linalg.svd(realigned_by_hand(u, da, db), compute_uv=False)
        sv = sv[sv > 1e-10 * sv[0]]
        np.testing.assert_allclose(dec.coefficients, sv, atol=1e-9)


def test_reconstruction_and_normalization_invariants():
    rng = np.random.default_rng(11)
    for trial in range(8):
        da, db = rng.choice([2, 3, 4]), rng.choice([2, 3])
        u = random_unitary(da * db, rng)
        dec = schmidt_decompose(BipartiteUnitary(u, da, db))
        np.testing.assert_allclose(dec.reconstruct(), u, atol=1e-10)
        # sum of squared coefficients equals dA*dB for any unitary
        assert abs(np.sum(dec.coefficients ** 2) - da * db) < 1e-8
        # B operators orthonormal, coefficients folded into the A side
        gram_b = np.array([[np.trace(b1.conj().T @ b2) for b2 in dec.b_ops]
                           for b1 in dec.b_ops])
        np.testing.assert_allclose(gram_b, np.eye(len(dec)), atol=1e-10)
        # completeness of the A side: sum_j A_j^dag A_j = dB * I
        acc = sum(a.conj().T @ a for a in dec.a_ops)
        np.testing.assert_allclose(acc, db * np.eye(da), atol=1e-8)


def test_product_gate_has_rank_one():
    rng = np.random.default_rng(3)
    ua, ub = random_unitary(3, rng), random_unitary(2, rng)
    dec = schmidt_decompose(BipartiteUnitary(np.kron(ua, ub), 3, 2))
    assert len(dec) == 1
    assert abs(dec.coefficients[0] - np.sqrt(6)) < 1e-10


def test_decomposition_is_deterministic_under_degeneracy():
    one = schmidt_decompose(BipartiteUnitary(SWAP, 2, 2))
    two = schmidt_decompose(BipartiteUnitary(SWAP, 2, 2))
    for a1, a2 in zip(one.a_ops, two.a_ops):
        np.testing.assert_array_equal(a1, a2)


def _per_entry_lex_key(b):
    """The tie key of the reference sort: each B entry rounded on its own, as
    schmidt_decompose's one lexsort over the rounded entries must order them."""
    flat = b.reshape(-1)
    return tuple(x for entry in flat for x in (round(entry.real, 9), round(entry.imag, 9)))


def controlled_group_gate(group, rng):
    """sum_f R(f) (x) |f><f| over the regular representation R, dressed by a
    local unitary on each side: all |G| Schmidt coefficients are tied."""
    n = group.order
    m = build_M(group, FactorSystem.trivial(n),
                np.array([np.diag(e) for e in np.eye(n)], dtype=complex))
    return BipartiteUnitary(np.kron(random_unitary(n, rng), random_unitary(n, rng)) @ m, n, n)


@pytest.mark.parametrize("name", ["Q8", "S3", "C3xC3"])
def test_tied_terms_keep_the_order_of_the_per_entry_key(name):
    group = next(g for g in builtin_catalog(12) if g.name == name)
    rng = np.random.default_rng(5)
    for bu in (controlled_group_gate(group, rng), controlled_group_gate(group, rng).swapped()):
        dec = schmidt_decompose(bu)
        assert np.ptp(dec.coefficients) <= 1e-12 * dec.coefficients[0]
        coefficients, a_ops, b_ops = _per_term_decompose(bu)
        np.testing.assert_array_equal(dec.coefficients, coefficients)
        np.testing.assert_array_equal(dec.b_ops, b_ops)
        np.testing.assert_array_equal(dec.a_ops, a_ops)


def _phase_fix(a, b):
    """Rotate the pair so the first significant entry of b is positive real."""
    phase = leading_phase(b.reshape(1, -1))[0]
    return a * phase, b / phase


def _per_term_decompose(u):
    """schmidt_decompose as it ran before the terms were stacked: one pair at a
    time, phase-fixed on its own, then sorted by tie runs of coefficients and,
    within a run, by the per-entry key."""
    da, db = u.dim_a, u.dim_b
    left, vals, right = np.linalg.svd(schmidt._realign(u.matrix, da, db), full_matrices=False)
    keep = vals > schmidt.RANK_CUTOFF * vals[0]
    vals, left, right = vals[keep], left[:, keep], right[keep, :]
    terms = []
    for j, s in enumerate(vals):
        a, b = _phase_fix(s * left[:, j].reshape(da, da), right[j, :].reshape(db, db))
        terms.append((float(s), a, b))
    groups = []
    for i in range(len(terms)):
        if groups and abs(terms[groups[-1][0]][0] - terms[i][0]) <= 1e-12 * max(terms[0][0], 1.0):
            groups[-1].append(i)
        else:
            groups.append([i])
    final = [i for g in groups for i in sorted(g, key=lambda i: _per_entry_lex_key(terms[i][2]))]
    return [np.array([terms[i][k] for i in final]) for k in range(3)]


STACK_CASES = {
    "cnot": lambda: BipartiteUnitary(CNOT, 2, 2),
    "swap": lambda: BipartiteUnitary(SWAP, 2, 2),
    "qutrit-cp": lambda: BipartiteUnitary(
        np.diag([np.exp(2j * np.pi * i * j / 3) for i in range(3) for j in range(3)]), 3, 3),
    "haar3x3": lambda: BipartiteUnitary(random_unitary(9, np.random.default_rng(6)), 3, 3),
    "haar2x3": lambda: BipartiteUnitary(random_unitary(6, np.random.default_rng(2)), 2, 3),
    "synth-A4": lambda: synthesize_group_gate(alternating(4), seed=0),
}


@pytest.mark.parametrize("case", STACK_CASES.values(), ids=STACK_CASES.keys())
def test_stacked_decomposition_equals_the_per_term_loop_bitwise(case):
    bu = case()
    dec = schmidt_decompose(bu)
    coefficients, a_ops, b_ops = _per_term_decompose(bu)
    assert dec.a_ops.shape == (len(dec), bu.dim_a, bu.dim_a)
    assert dec.b_ops.shape == (len(dec), bu.dim_b, bu.dim_b)
    assert dec.coefficients.tobytes() == coefficients.tobytes()
    assert dec.a_ops.tobytes() == a_ops.tobytes()
    assert dec.b_ops.tobytes() == b_ops.tobytes()


def test_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        BipartiteUnitary(CNOT, 3, 2)
    with pytest.raises(ValidationError):
        BipartiteUnitary(np.ones((4, 4), dtype=complex), 2, 2)


def test_the_gate_is_frozen_but_the_callers_array_is_not():
    mine = CNOT.copy()
    bu = BipartiteUnitary(mine, 2, 2)
    dec = schmidt_decompose(bu)
    for array in (bu.matrix, dec.coefficients, dec.a_ops, dec.b_ops):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    for obj, name in ((bu, "matrix"), (bu, "dim_a"), (dec, "unitary"), (dec, "a_ops")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, None)
    mine[0, 0] = 5
    assert mine.flags.writeable and bu.matrix[0, 0] == 1


def test_swapped_exchanges_tensor_factors():
    rng = np.random.default_rng(19)
    ua, ub = random_unitary(2, rng), random_unitary(3, rng)
    bu = BipartiteUnitary(np.kron(ua, ub), 2, 3)
    np.testing.assert_allclose(bu.swapped().matrix, np.kron(ub, ua), atol=1e-12)
