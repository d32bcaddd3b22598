"""svd_rank and null_space against a direct np.linalg.svd, bit for bit.

Above zgesdd's crossover (m >= ⌊17n/9⌋) svd_rank takes the SVD of the R of
a = QR, which is what LAPACK does inside the direct call; below it, the
direct call bidiagonalizes a itself, so svd_rank must not go QR-first there.
The shapes sit on both sides of the crossover, 272 and 264 rows for 144
columns, 68 and 67 for 36, and 30 and 29 for 16, which have fewer than the
1024 entries from which svd_rank goes QR-first.

gram_schmidt is compared bit for bit with the column loop it replaced, which
conjugated each basis vector once per projection and copied every column twice.

connected_components, which reads the components off the graph's reachability
matrix, is compared with a breadth-first search over the adjacency lists.
"""
from collections import deque

import numpy as np
import pytest

from nlgc._linalg import connected_components, gram_schmidt, null_space, svd_rank
from nlgc.errors import SingularInputError, ValidationError
from nlgc.expansion import synthesize_group_gate
from nlgc.groups import alternating
from nlgc.sbd import _sylvester_rows, gram_set
from nlgc.schmidt import schmidt_decompose


def direct_svd_rank(a, full=False):
    # the bitwise reference: one direct SVD with svd_rank's rank rule
    _, s, vh = np.linalg.svd(a, full_matrices=full)
    return int(np.sum(s > 1e-9 * max(1.0, s[0] if s.size else 0.0))), vh


def direct_null_space(a):
    rank, vh = direct_svd_rank(a, full=a.shape[0] < a.shape[1])
    return vh[rank:].conj().T


def drawn(m, n, rank, dtype, seed):
    """An (m, n) matrix of the given rank, complex or real."""
    rng = np.random.default_rng(seed)

    def normal(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    return normal((m, rank)) @ normal((rank, n))


SHAPES = [(272, 144), (264, 144), (68, 36), (67, 36), (30, 16), (29, 16), (16, 30)]


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex", "real"])
@pytest.mark.parametrize("deficient", [False, True], ids=["full-rank", "rank-deficient"])
@pytest.mark.parametrize("shape", SHAPES, ids=[f"{m}x{n}" for m, n in SHAPES])
def test_svd_rank_and_null_space_equal_the_direct_svd_bitwise(shape, deficient, dtype):
    m, n = shape
    rank = min(m, n) // 3 if deficient else min(m, n)
    a = drawn(m, n, rank, dtype, seed=m * n)
    got, vh = svd_rank(a)
    want, vh_ref = direct_svd_rank(a)
    assert got == want == rank
    assert np.array_equal(vh, vh_ref)
    assert np.array_equal(null_space(a), direct_null_space(a))


def a4_systems():
    """The Gram span stack and the Sylvester rows that commutant_basis solves
    for the Gram set of the gate synthesized from A4 (d_A = 12)."""
    grams = gram_set(schmidt_decompose(synthesize_group_gate(alternating(4), seed=3)))
    d = grams.shape[1]
    stack = np.concatenate([grams, grams.conj().transpose(0, 2, 1)]).reshape(-1, d * d)
    rank, vh = direct_svd_rank(stack)
    span = vh[:rank].reshape(rank, d, d)
    return stack, _sylvester_rows(span, span)


def test_the_a4_commutant_systems_equal_the_direct_svd_bitwise():
    stack, sylvester = a4_systems()
    for a in (stack, sylvester):
        assert a.shape[0] >= a.shape[1] * 17 // 9 and a.size >= 1024     # both go QR-first
        got, vh = svd_rank(a)
        want, vh_ref = direct_svd_rank(a)
        assert got == want and np.array_equal(vh, vh_ref)
        assert np.array_equal(null_space(a), direct_null_space(a))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1, np.inf), complex(np.nan, 0)],
                         ids=["nan", "inf", "inf-imaginary", "nan-real"])
@pytest.mark.parametrize("m", [16, 4], ids=["tall", "short"])
def test_a_non_finite_entry_raises(bad, m):
    # LAPACK turns an Inf into NaN singular values, which no rank cut counts,
    # so every direction would read as null
    a = drawn(m, 3, 3, complex, seed=0)
    a[1, 2] = bad
    with pytest.raises(ValidationError, match="NaN or Inf"):
        svd_rank(a)
    with pytest.raises(ValidationError, match="NaN or Inf"):
        null_space(a)


def reference_gram_schmidt(columns):
    """The bitwise reference: gram_schmidt's loop as it was, b.conj() taken
    in every projection of both passes; its rank is the number of columns."""
    scale = max(np.max(np.abs(columns)) if columns.size else 0.0, 1.0)
    basis = []
    for j in range(columns.shape[1]):
        v = columns[:, j].astype(complex).copy()
        for b in basis:
            v -= b * (b.conj() @ v)
        for b in basis:
            v -= b * (b.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-10 * scale:
            basis.append(v / norm)
    return np.column_stack(basis)


def column_sets():
    """Random column sets, complex and real, full rank and with dependent
    columns, and nearly dependent ones: copies of earlier columns plus noise
    of 1e-9, kept as new directions only after the second projection pass,
    or of 1e-13, dropped."""
    rng = np.random.default_rng(30)
    for d, k, rank in [(6, 6, 6), (12, 30, 5), (9, 18, 9), (4, 9, 2), (16, 16, 3)]:
        for dtype in (complex, float):
            yield drawn(d, k, rank, dtype, seed=d * k + rank)
        base = drawn(d, rank, rank, complex, seed=rank)
        for noise in (1e-9, 1e-13):
            copies = base[:, rng.integers(0, rank, k - rank)]
            yield np.hstack([base, copies + noise * drawn(d, k - rank, k - rank, complex, 5)])


def test_gram_schmidt_equals_the_column_loop_it_replaced_bitwise():
    ranks = []
    for columns in column_sets():
        want = reference_gram_schmidt(columns)
        rank = want.shape[1]
        got = gram_schmidt(columns, expected_rank=rank)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        with pytest.raises(SingularInputError):
            gram_schmidt(columns, expected_rank=rank + 1)
        ranks.append(rank)
    assert len(ranks) == 20 and min(ranks) < max(ranks)


def bfs_components(adjacency):
    # the reference: a breadth-first search from each unseen vertex in
    # ascending order, so the components come in the order of their least vertex
    n = len(adjacency)
    seen, comps = [False] * n, []
    for start in range(n):
        if seen[start]:
            continue
        seen[start], queue, comp = True, deque([start]), []
        while queue:
            i = queue.popleft()
            comp.append(i)
            for j in range(n):
                if adjacency[i][j] and not seen[j]:
                    seen[j] = True
                    queue.append(j)
        comps.append(sorted(comp))
    return comps


def _random_graph(n, density, rng, diagonal):
    upper = np.triu(rng.random((n, n)) < density, 1)
    adjacency = upper | upper.T
    if diagonal:
        np.fill_diagonal(adjacency, True)
    return adjacency


def _path_graph(n):
    # the path 0 - (n-1) - 1 - (n-2) - ... through all n vertices: its ends are
    # n - 1 steps apart, the most any connected graph on n vertices has
    order = [v for pair in zip(range(n), range(n - 1, -1, -1)) for v in pair][:n]
    adjacency = np.zeros((n, n), dtype=bool)
    for a, b in zip(order, order[1:]):
        adjacency[a, b] = adjacency[b, a] = True
    return adjacency


@pytest.mark.parametrize("density", [0.0, 0.03, 0.08, 0.2, 0.6])
def test_connected_components_equal_a_breadth_first_search(density):
    rng = np.random.default_rng(int(density * 100) + 7)
    for n in range(1, 41):
        for diagonal in (True, False):
            adjacency = _random_graph(n, density, rng, diagonal)
            assert connected_components(adjacency) == bfs_components(adjacency.tolist()), n


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_connected_components_of_paths_and_isolated_vertices(n):
    path, isolated = _path_graph(n), np.zeros((n, n), dtype=bool)
    assert connected_components(path) == bfs_components(path.tolist()) == [list(range(n))]
    assert connected_components(isolated) == [[i] for i in range(n)]
    # two interleaved paths and an isolated vertex, no diagonal set
    both = np.zeros((2 * n + 1, 2 * n + 1), dtype=bool)
    both[1::2, 1::2], both[2::2, 2::2] = path, path
    assert connected_components(both) == bfs_components(both.tolist()) == [
        [0], list(range(1, 2 * n + 1, 2)), list(range(2, 2 * n + 1, 2))]
