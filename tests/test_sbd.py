"""Simultaneous block diagonalization: fineness, Schur counting, classes."""
import numpy as np
import pytest

from nlgc import sbd
from nlgc._linalg import connected_components
from nlgc.errors import DimensionError
from nlgc.expansion import synthesize_group_gate
from nlgc.groups import alternating
from nlgc.sbd import (BLOCK_TOL, BlockStructure, classify_equivalence, commutant_basis,
                      finest_sbd, gram_set, merge_blocks)
from nlgc.schmidt import BipartiteUnitary, schmidt_decompose
from nlgc.search import search_floor


def random_unitary(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def off_block_mass(bs, mats):
    """Largest magnitude outside the blocks of bs, over a list or stack of matrices."""
    return bs.outside_blocks(bs.transformed(mats))


def commutant_dim_brute(mats):
    # vectorized commutation constraints for the family and its adjoints
    d = mats[0].shape[0]
    rows = []
    for m in list(mats) + [m.conj().T for m in mats]:
        rows.append(np.kron(np.eye(d), m) - np.kron(m.T, np.eye(d)))
    k = np.vstack(rows)
    return d * d - np.linalg.matrix_rank(k, tol=1e-9)


def scrambled_family(block_specs, rng, count=3):
    """Random matrices with a hidden common block structure.

    block_specs is a list of (size, copies) pairs; blocks with the same spec
    entry repeat the same content so they land in one equivalence class.
    """
    total = sum(size * copies for size, copies in block_specs)
    s = random_unitary(total, rng)
    fam = []
    for _ in range(count):
        diag = []
        for size, copies in block_specs:
            content = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            diag.extend([content] * copies)
        m = np.zeros((total, total), dtype=complex)
        at = 0
        for b in diag:
            m[at:at + b.shape[0], at:at + b.shape[0]] = b
            at += b.shape[0]
        fam.append(s @ m @ s.conj().T)
    return fam, s


def test_recovers_hidden_block_sizes():
    rng = np.random.default_rng(0)
    fam, _ = scrambled_family([(1, 1), (2, 1)], rng)
    bs = finest_sbd(fam, seed=4)
    assert sorted(bs.block_sizes) == [1, 2]
    assert off_block_mass(bs, fam) < 1e-9


def test_repeated_content_found_equivalent():
    rng = np.random.default_rng(1)
    fam, _ = scrambled_family([(2, 2), (1, 1)], rng)
    bs = finest_sbd(fam, seed=2)
    assert sorted(bs.class_dims()) == [1, 2]
    sizes = sorted(len(members) for members, _ in bs.classes)
    assert sizes == [1, 2]


def test_finest_sbd_returns_the_classified_structure():
    rng = np.random.default_rng(3)
    fam, _ = scrambled_family([(1, 2), (2, 1), (3, 2)], rng)
    bs = finest_sbd(fam, seed=0)
    assert [members for members, _ in bs.classes] == [(0, 1), (2,), (3, 4)]
    assert search_floor(bs) == sum(d * d for d in bs.class_dims()) == 1 + 4 + 9


def test_classify_equivalence_leaves_its_argument_unchanged():
    # the hidden basis of the family, blocks in the order it was built
    fam, s = scrambled_family([(2, 2), (1, 1)], np.random.default_rng(1))
    bs = BlockStructure(s, [2, 2, 1])
    before = bs.basis_change.tobytes()
    classified = classify_equivalence(bs, fam)
    assert bs.basis_change.tobytes() == before == s.tobytes()
    assert not np.shares_memory(bs.basis_change, s) and not bs.basis_change.flags.writeable
    assert bs.block_sizes == (2, 2, 1) and bs.classes == ()
    assert classified.block_sizes == (1, 2, 2)
    assert [members for members, _ in classified.classes] == [(0,), (1, 2)]


def test_intertwiners_map_representative_onto_members():
    rng = np.random.default_rng(5)
    fam, _ = scrambled_family([(2, 3)], rng)
    bs = finest_sbd(fam, seed=0)
    members, inter = bs.classes[0]
    rep = members[0]
    sl = bs.block_slices()
    for m in fam:
        t = bs.transformed(m)
        for member in members:
            tw = inter[member]
            np.testing.assert_allclose(
                t[sl[member], sl[member]],
                tw @ t[sl[rep], sl[rep]] @ tw.conj().T, atol=1e-8)


def test_commutant_dimension_matches_schur_count():
    # multiplicities (2, 1) on inequivalent blocks: dim of commutant is 2^2 + 1
    rng = np.random.default_rng(9)
    fam, _ = scrambled_family([(2, 2), (3, 1)], rng)
    basis = commutant_basis(fam)
    assert len(basis) == 5
    assert commutant_dim_brute(fam) == 5
    for x in basis:
        for m in fam:
            np.testing.assert_allclose(x @ m, m @ x, atol=1e-8)


def test_commutant_includes_the_adjoints():
    # N = |0><1| alone commutes with I and N; with N† only the scalars remain
    nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
    basis = commutant_basis([nilpotent])
    assert len(basis) == 1 == commutant_dim_brute([nilpotent])
    np.testing.assert_allclose(basis[0] / basis[0][0, 0], np.eye(2), atol=1e-12)


def test_class_lists_do_not_depend_on_the_seed():
    # equivalent blocks come out adjacent, larger classes first within a
    # size, whatever order the seeded split put them in
    rng = np.random.default_rng(29)
    fam, _ = scrambled_family([(1, 1), (1, 2), (2, 1), (2, 2)], rng)
    for seed in range(6):
        bs = finest_sbd(fam, seed=seed)
        assert bs.block_sizes == (1, 1, 1, 2, 2, 2)
        assert [members for members, _ in bs.classes] == [(0, 1), (2,), (3, 4), (5,)]
        assert off_block_mass(bs, fam) < 1e-9


def test_finest_structure_is_idempotent():
    rng = np.random.default_rng(13)
    fam, _ = scrambled_family([(1, 2), (2, 1)], rng)
    bs = finest_sbd(fam, seed=1)
    inner = [bs.transformed(m) for m in fam]
    again = finest_sbd(inner, seed=8)
    assert sorted(again.block_sizes) == sorted(bs.block_sizes)


def test_fineness_maximal_against_commutant():
    # number of blocks equals the dimension of a maximal torus of the
    # commutant algebra: sum of multiplicities over classes
    rng = np.random.default_rng(17)
    for specs, expected_blocks in [([(1, 1), (1, 1)], 2), ([(2, 2)], 2),
                                   ([(1, 3)], 3), ([(2, 1), (1, 2)], 3)]:
        fam, _ = scrambled_family(specs, rng)
        bs = finest_sbd(fam, seed=3)
        assert len(bs.block_sizes) == expected_blocks


def test_gram_set_of_unitary_schmidt_terms():
    rng = np.random.default_rng(21)
    u = random_unitary(6, rng)
    dec = schmidt_decompose(BipartiteUnitary(u, 2, 3))
    grams = gram_set(dec)
    assert len(grams) == len(dec) ** 2
    # the diagonal entries sum to dB * I by completeness
    j = len(dec)
    acc = sum(grams[k * j + k] for k in range(j))
    np.testing.assert_allclose(acc, 3 * np.eye(2), atol=1e-8)


def test_merge_blocks_fuses_and_reorders():
    rng = np.random.default_rng(25)
    fam, _ = scrambled_family([(1, 1), (1, 1), (2, 1)], rng)
    bs = finest_sbd(fam, seed=6)
    order = np.argsort([sl.start for sl in bs.block_slices()])
    merged = merge_blocks(bs, [[int(order[0]), int(order[1])], [int(order[2])]])
    assert sorted(merged.block_sizes) == [2, 2]
    assert off_block_mass(merged, fam) < 1e-9


def test_zero_family_splits_into_singletons():
    # span{G, G†} is empty, so every matrix commutes and nothing couples
    fam = [np.zeros((3, 3), dtype=complex)]
    assert len(commutant_basis(fam)) == 9
    assert finest_sbd(fam, seed=0).block_sizes == (1, 1, 1)


def test_identity_family_stays_whole():
    fam = [np.eye(3, dtype=complex) * 2.0]
    bs = finest_sbd(fam, seed=0)
    assert sorted(bs.block_sizes) == [1, 1, 1]


def kron_stack_commutant(mats):
    # null space of the stacked np.kron system over the set and its adjoints
    d = mats[0].shape[0]
    eye = np.eye(d)
    system = np.vstack([np.kron(m, eye) - np.kron(eye, m.T)
                        for m in list(mats) + [m.conj().T for m in mats]])
    # 2·len(mats)·d² rows: past LAPACK's QR crossover, so the SVD of R has
    # the stack's own singular values and vh, bit for bit, without its U
    _, s, vh = np.linalg.svd(np.linalg.qr(system, mode="r"), full_matrices=False)
    return vh[int(np.sum(s > 1e-9 * max(1.0, s[0]))):].conj().T


def projector(columns):
    return columns @ columns.conj().T


def schmidt_grams(name):
    if name == "cnot":
        bu = BipartiteUnitary(np.eye(4, dtype=complex)[[0, 1, 3, 2]], 2, 2)
    elif name == "haar3x3":
        bu = BipartiteUnitary(random_unitary(9, np.random.default_rng(6)), 3, 3)
    else:
        bu = synthesize_group_gate(alternating(4), seed=3)
    return gram_set(schmidt_decompose(bu))


HIDDEN_BLOCKS = {1: [(1, 1)], 2: [(1, 2)], 3: [(1, 1), (2, 1)], 4: [(2, 2)],
                 5: [(1, 2), (3, 1)], 6: [(2, 1), (1, 2), (2, 1)]}


@pytest.mark.parametrize("case", [f"d={d}" for d in HIDDEN_BLOCKS]
                         + ["cnot", "haar3x3", "synth-A4"])
def test_span_basis_commutant_equals_the_kron_stack_commutant(case):
    # commutation is linear, so solving over a basis of span{G, G†} gives
    # the same subspace as the 2·len(G)·d² rows of the kron stack
    if case.startswith("d="):
        d = int(case[2:])
        mats, _ = scrambled_family(HIDDEN_BLOCKS[d], np.random.default_rng(40 + d))
    else:
        mats = schmidt_grams(case.replace("synth-", ""))
    new = np.stack([k.reshape(-1) for k in commutant_basis(mats)], axis=1)
    old = kron_stack_commutant(mats)
    assert new.shape == old.shape
    assert np.max(np.abs(projector(new) - projector(old))) <= 1e-10


def test_finest_sbd_classifies_the_split_bitwise():
    grams = schmidt_grams("A4")
    split = sbd._finest_split(grams)
    assert split.classes == ()
    ref = finest_sbd(grams)
    bs = classify_equivalence(split, grams)
    assert bs.basis_change.tobytes() == ref.basis_change.tobytes()
    assert bs.block_sizes == ref.block_sizes
    assert [members for members, _ in bs.classes] == [members for members, _ in ref.classes]
    for (_, inter), (_, inter_ref) in zip(bs.classes, ref.classes):
        assert inter.keys() == inter_ref.keys()
        for m, t in inter.items():
            assert t.tobytes() == inter_ref[m].tobytes()


@pytest.mark.parametrize("name", ["cnot", "haar3x3", "A4"])
def test_finest_sbd_does_not_depend_on_the_commutant_basis(name):
    # the gauge: the split element is the projection of a seeded Hermitian
    # onto the commutant, whatever orthonormal basis of it is passed. The
    # projection is rounded differently in each basis, so the basis change
    # agrees to rounding, not bit for bit.
    grams = schmidt_grams(name)
    basis = np.stack(commutant_basis(grams))
    ref = classify_equivalence(sbd._finest_split(grams, seed=2, commutant=list(basis)), grams)
    rng = np.random.default_rng(7)
    for _ in range(3):
        mix = random_unitary(len(basis), rng)
        mixed = list(np.einsum("ij,jab->iab", mix, basis))
        bs = classify_equivalence(sbd._finest_split(grams, seed=2, commutant=mixed), grams)
        assert bs.block_sizes == ref.block_sizes
        assert [members for members, _ in bs.classes] == [members for members, _ in ref.classes]
        assert np.max(np.abs(bs.basis_change - ref.basis_change)) <= 1e-12
        for (members, inter), (_, inter_ref) in zip(bs.classes, ref.classes):
            for m in members:
                assert np.max(np.abs(inter[m] - inter_ref[m])) <= 1e-12


@pytest.mark.parametrize("n", range(1, 5))
def test_intertwiner_rows_equal_the_kron_stack_bytewise(n):
    # _intertwiner solves T R - M T = 0 over the shared broadcast rows,
    # whose rows are the old per-block np.kron stack byte for byte
    rng = np.random.default_rng(60 + n)
    reps, mems = (rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
                  for _ in range(2))
    eye = np.eye(n)
    expected = np.vstack([np.kron(eye, rb.T) - np.kron(mb, eye)
                          for rb, mb in zip(reps, mems)])
    rows = sbd._sylvester_rows(mems, reps)
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()


# The stacked forms below keep the arithmetic of the per-matrix loops they
# replaced; each test keeps that loop as its reference and compares bytes.
STACK_DIMS = [2, 3, 8, 12]


def two_block_family(d, rng):
    """Three matrices with hidden blocks of sizes 1 (d // 2 copies) and d - d // 2."""
    return scrambled_family([(1, d // 2), (d - d // 2, 1)], rng)[0]


@pytest.mark.parametrize("d", STACK_DIMS)
def test_gram_set_equals_the_per_pair_products_bytewise(d):
    dec = schmidt_decompose(BipartiteUnitary(random_unitary(2 * d, np.random.default_rng(70 + d)),
                                             d, 2))
    expected = np.stack([aj.conj().T @ ak for aj in dec.a_ops for ak in dec.a_ops])
    grams = gram_set(dec)
    assert grams.shape == (len(dec) ** 2, d, d)
    assert grams.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", STACK_DIMS)
def test_off_block_mass_equals_the_per_matrix_maximum_bytewise(d):
    rng = np.random.default_rng(80 + d)
    s = random_unitary(d, rng)
    mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(4)]
    bs = BlockStructure(s, [d // 2, d - d // 2])
    mask = np.ones((d, d), dtype=bool)
    for sl in bs.block_slices():
        mask[sl, sl] = False
    expected = 0.0
    for m in mats:
        expected = max(expected, float(np.max(np.abs((s.conj().T @ m @ s)[mask]))))
    assert bs.outside_blocks(bs.transformed(np.stack(mats))).hex() == expected.hex()
    whole = BlockStructure(s, [d])
    assert whole.outside_blocks(whole.transformed(np.stack(mats))) == 0.0


@pytest.mark.parametrize("d", STACK_DIMS)
def test_component_adjacency_equals_the_per_matrix_loop_bytewise(d, monkeypatch):
    rng = np.random.default_rng(90 + d)
    mats = np.stack(two_block_family(d, rng))
    k = np.stack(commutant_basis(mats))
    x = np.einsum("k,kij->ij", rng.normal(size=len(k)), k)
    _, basis = np.linalg.eigh(x + x.conj().T)
    seen = []
    monkeypatch.setattr(sbd, "connected_components",
                        lambda adj: seen.append(adj.copy()) or connected_components(adj))
    for tol in (BLOCK_TOL, float(np.median(np.abs(basis.conj().T @ mats[0] @ basis)))):
        expected = np.zeros((d, d), dtype=bool)
        for m in mats:
            t = np.abs(basis.conj().T @ m @ basis)
            expected |= t > tol
            expected |= t.T > tol
        np.fill_diagonal(expected, True)
        seen.clear()
        out, _ = sbd._component_structure(mats, x, tol)
        assert out.tobytes() == basis.tobytes()
        assert seen[0].tobytes() == expected.tobytes()


def test_sbd_takes_a_list_or_a_stack():
    fam, _ = scrambled_family([(1, 2), (2, 2)], np.random.default_rng(110))
    stack = np.stack(fam)
    assert (np.stack(commutant_basis(fam)).tobytes()
            == np.stack(commutant_basis(stack)).tobytes())
    from_list = finest_sbd(fam, seed=1)
    from_stack = finest_sbd(stack, seed=1)
    assert from_list.basis_change.tobytes() == from_stack.basis_change.tobytes()
    assert from_list.block_sizes == from_stack.block_sizes == (1, 1, 2, 2)
    assert ([members for members, _ in from_list.classes]
            == [members for members, _ in from_stack.classes] == [(0, 1), (2, 3)])
    for (members, inter), (_, inter_stack) in zip(from_list.classes, from_stack.classes):
        for m in members:
            assert inter[m].tobytes() == inter_stack[m].tobytes()
    assert off_block_mass(from_list, fam) == off_block_mass(from_list, stack)


@pytest.mark.parametrize("mats", [[np.eye(2), np.eye(3)], [np.eye(2), np.ones((2, 3))],
                                  np.zeros((2, 2, 3)), np.eye(2), []],
                         ids=["ragged", "ragged-rows", "non-square", "one-matrix", "empty"])
def test_a_ragged_list_or_a_non_square_stack_is_rejected(mats):
    bs = BlockStructure(np.eye(2, dtype=complex), [1, 1])
    for call in (finest_sbd, commutant_basis, lambda m: classify_equivalence(bs, m)):
        with pytest.raises(DimensionError, match="^all matrices must be square of equal size$"):
            call(mats)


@pytest.mark.parametrize("sizes", [[1] * 8, [1] * 11, [2, 2, 2, 1, 1, 3], [1, 2, 1, 2]],
                         ids=["C8", "C11", "mixed", "interleaved"])
def test_inequivalent_decides_as_the_pairwise_intertwiner_loop(sizes):
    # the batched trace test only skips pairs that _intertwiner rejects on
    # their traces: with and without a hidden equivalent pair, and with a
    # pair whose traces agree but which is not equivalent, it decides as
    # the loop over every same-size pair does
    rng = np.random.default_rng(len(sizes) + sum(sizes))

    def hermitian(n):
        x = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        return x + x.conj().transpose(0, 2, 1)

    reps = [hermitian(n) for n in sizes]
    pair = [i for i, n in enumerate(sizes) if n == sizes[0]][:2]
    u = random_unitary(sizes[0], rng)
    twin = u @ reps[pair[0]] @ u.conj().T
    same_traces = reps[pair[0]] + np.diag(np.arange(sizes[0]) - (sizes[0] - 1) / 2) * 1e-3
    for variant in (reps, [*reps[:pair[1]], twin, *reps[pair[1] + 1:]],
                    [*reps[:pair[1]], same_traces, *reps[pair[1] + 1:]]):
        loop = all(sbd._intertwiner(a, b, BLOCK_TOL) is None
                   for i, a in enumerate(variant) for b in variant[i + 1:] if a.shape == b.shape)
        assert sbd.inequivalent(variant, BLOCK_TOL) == loop
    assert sbd.inequivalent(reps, BLOCK_TOL)
    twins = [*reps[:pair[1]], twin, *reps[pair[1] + 1:]]
    assert not sbd.inequivalent(twins, BLOCK_TOL)
