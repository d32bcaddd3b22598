"""Simultaneous block diagonalization: fineness, Schur counting, classes."""
import numpy as np
import pytest

from nlgc import sbd
from nlgc.sbd import (BlockStructure, classify_equivalence, commutant_basis,
                      finest_sbd, gram_set, merge_blocks)
from nlgc.schmidt import BipartiteUnitary, schmidt_decompose


def random_unitary(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
    assert bs.off_block_mass(fam) < 1e-9


def test_repeated_content_found_equivalent():
    rng = np.random.default_rng(1)
    fam, _ = scrambled_family([(2, 2), (1, 1)], rng)
    bs = finest_sbd(fam, seed=2)
    bs = classify_equivalence(bs, fam)
    assert sorted(bs.class_dims()) == [1, 2]
    sizes = sorted(len(c.members) for c in bs.classes)
    assert sizes == [1, 2]


def test_intertwiners_map_representative_onto_members():
    rng = np.random.default_rng(5)
    fam, _ = scrambled_family([(2, 3)], rng)
    bs = classify_equivalence(finest_sbd(fam, seed=0), fam)
    cls = bs.classes[0]
    rep = cls.representative
    sl = bs.block_slices()
    for m in fam:
        t = bs.transformed(m)
        for member in cls.members:
            tw = cls.intertwiners[member]
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
    bs = classify_equivalence(bs, fam)
    order = np.argsort([sl.start for sl in bs.block_slices()])
    merged = merge_blocks(bs, [[int(order[0]), int(order[1])], [int(order[2])]])
    assert sorted(merged.block_sizes) == [2, 2]
    assert merged.off_block_mass(fam) < 1e-9


def test_identity_family_stays_whole():
    fam = [np.eye(3, dtype=complex) * 2.0]
    bs = finest_sbd(fam, seed=0)
    assert sorted(bs.block_sizes) == [1, 1, 1]


@pytest.mark.parametrize("d", range(1, 7))
def test_commutant_system_equals_the_kron_stack_bytewise(d, monkeypatch):
    # the system handed to the SVD is the np.kron stack byte for byte, so
    # the commutant basis, and every report built on it, is unchanged
    rng = np.random.default_rng(40 + d)
    mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            for _ in range((1, 4, 9)[d % 3])]
    eye = np.eye(d)
    expected = np.vstack([np.kron(m, eye) - np.kron(eye, m.T)
                          for m in mats + [m.conj().T for m in mats]])
    solved = []
    null_space = sbd.null_space
    monkeypatch.setattr(sbd, "null_space", lambda a: solved.append(a) or null_space(a))
    commutant_basis(mats)
    assert solved[0].shape == expected.shape
    assert solved[0].tobytes() == expected.tobytes()
