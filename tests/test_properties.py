"""Invariances the paper implies: a gate's cost and route depend on its
nonlocal content only, not on local unitaries around it or a global phase;
its cost depends neither on the compile seed nor on which side is which.
A report carries enough to rerun the protocol it describes. Group expansions
compose: side A's floor of U1 (x) U2 is the product of the factors' floors."""
import itertools
import json

import numpy as np
import pytest
from conftest import haar_block_gate
from hypothesis import given, settings, strategies as st

from nlgc.expansion import compile_unitary
from nlgc.groups import are_isomorphic, catalog_recipe, direct_product
from nlgc.protocol import simulate_protocol
from nlgc.report import build_report, canonical_json, expansion_from_report
from nlgc.sbd import finest_sbd, gram_set
from nlgc.schmidt import BipartiteUnitary, schmidt_decompose
from nlgc.search import search_floor

OMEGA = np.exp(2j * np.pi / 3)
GATES = {
    "cnot": (np.eye(4, dtype=complex)[[0, 1, 3, 2]], 2, 2),
    "swap": (np.eye(4, dtype=complex)[[0, 2, 1, 3]], 2, 2),
    "qutrit-cp": (np.diag([OMEGA ** (i * j) for i in range(3) for j in range(3)]), 3, 3),
}
FEW = settings(max_examples=5, deadline=None, derandomize=True, database=None)


def haar(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def cost_and_route(matrix, da, db):
    exp = compile_unitary(BipartiteUnitary(matrix, da, db))
    return exp.cost_ebits, exp.route


@pytest.mark.parametrize("name", GATES)
@FEW
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_local_dressing_keeps_cost_and_route(name, seed):
    g, da, db = GATES[name]
    rng = np.random.default_rng(seed)
    a, b, c, d = (haar(n, rng) for n in (da, db, da, db))
    dressed = np.kron(a, b) @ g @ np.kron(c, d)
    assert cost_and_route(dressed, da, db) == cost_and_route(g, da, db)


@pytest.mark.parametrize("name", GATES)
@FEW
@given(angle=st.floats(0, 2 * np.pi))
def test_global_phase_keeps_cost_and_route(name, angle):
    g, da, db = GATES[name]
    assert cost_and_route(np.exp(1j * angle) * g, da, db) == cost_and_route(g, da, db)


def mirrored(matrix, da, db):
    """The same gate with its two tensor factors exchanged."""
    return matrix.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)


COST_GATES = {
    "cnot": GATES["cnot"],
    "qutrit-cp": GATES["qutrit-cp"],
    "haar-2x3": (haar(6, np.random.default_rng(23)), 2, 3),
}


def cost(matrix, da, db, seed=0):
    return compile_unitary(BipartiteUnitary(matrix, da, db), seed=seed).cost_ebits


@pytest.mark.parametrize("name", COST_GATES)
@FEW
@given(seed=st.sampled_from((0, 1, 7)))
def test_cost_does_not_depend_on_the_seed(name, seed):
    g, da, db = COST_GATES[name]
    assert cost(g, da, db, seed) == cost(g, da, db)


@pytest.mark.parametrize("name", COST_GATES)
@FEW
@given(seed=st.sampled_from((0, 1, 7)))
def test_side_swap_keeps_cost(name, seed):
    g, da, db = COST_GATES[name]
    assert cost(mirrored(g, da, db), db, da, seed) == cost(g, da, db, seed)


@pytest.mark.parametrize("name", GATES)
@FEW
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_report_round_trip_reproduces_the_simulation(name, seed):
    g, da, db = GATES[name]
    rng = np.random.default_rng(seed)
    a, b, c, d = (haar(n, rng) for n in (da, db, da, db))
    exp = compile_unitary(BipartiteUnitary(np.kron(a, b) @ g @ np.kron(c, d), da, db))
    back = expansion_from_report(json.loads(canonical_json(build_report(exp))))
    psi = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    psi /= np.linalg.norm(psi)
    before, after = simulate_protocol(exp, psi), simulate_protocol(back, psi)
    assert after.branch_outcomes == before.branch_outcomes
    np.testing.assert_allclose(after.branch_probabilities, before.branch_probabilities,
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(after.branch_fidelities, before.branch_fidelities,
                               rtol=0, atol=1e-9)


FLOOR_GATES = {
    **GATES,
    "cp-2x3": (np.diag([1, 1, 1, 1, -1, -1]).astype(complex), 2, 3),
    "blocks-112": (haar_block_gate(2, [1, 1, 2], 3).matrix, 2, 4),
}


def floor(bu):
    """Side A's floor: the search_floor of its finest structure."""
    return search_floor(finest_sbd(gram_set(schmidt_decompose(bu))))


def dressed(name, rng):
    g, da, db = FLOOR_GATES[name]
    a, b, c, d = (haar(n, rng) for n in (da, db, da, db))
    return BipartiteUnitary(np.kron(a, b) @ g @ np.kron(c, d), da, db)


def tensor(u1, u2):
    """U1 (x) U2 with A = A1 A2 and B = B1 B2."""
    a1, b1, a2, b2 = u1.dim_a, u1.dim_b, u2.dim_a, u2.dim_b
    t = np.kron(u1.matrix, u2.matrix).reshape(a1, b1, a2, b2, a1, b1, a2, b2)
    m = t.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(u1.dim * u2.dim, -1)
    return BipartiteUnitary(m, a1 * a2, b1 * b2)


@pytest.mark.parametrize("pair", itertools.combinations_with_replacement(FLOOR_GATES, 2),
                         ids="*".join)
def test_the_floor_of_a_tensor_product_is_the_product_of_the_floors(pair):
    # the Gram algebra of U1 (x) U2 is the tensor product of the two algebras
    rng = np.random.default_rng(5)
    u1, u2 = dressed(pair[0], rng), dressed(pair[1], rng)
    assert floor(tensor(u1, u2)) == floor(u1) * floor(u2)


# G1 x G2 is C2^4 on these pairs, a group the catalog does not hold
NO_CATALOG_PRODUCT = {("swap", "swap"), ("swap", "blocks-112"), ("blocks-112", "blocks-112")}


@pytest.mark.parametrize("pair", itertools.combinations_with_replacement(FLOOR_GATES, 2),
                         ids="*".join)
def test_the_cost_of_a_tensor_product_is_at_most_the_sum_of_the_costs(pair):
    # on a shared side A, G1 x G2 expands U1 (x) U2, so when the catalog holds
    # it the search finds a group of at most that order: |G| <= |G1| |G2|
    rng = np.random.default_rng(5)
    u1, u2 = dressed(pair[0], rng), dressed(pair[1], rng)
    g1, g2, g = (compile_unitary(u, side="A").group for u in (u1, u2, tensor(u1, u2)))
    product = direct_product(g1, g2)
    in_catalog = any(are_isomorphic(product, make())
                     for order, make in catalog_recipe() if order == product.order)
    assert in_catalog == (pair not in NO_CATALOG_PRODUCT)
    if in_catalog:
        assert g.order <= product.order
