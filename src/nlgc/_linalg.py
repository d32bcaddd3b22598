"""Dense linear algebra helpers shared across the package."""
from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .errors import SingularInputError, ValidationError


def read_only(value):
    """value with each array a read-only copy of the same strides (the caller's stays
    writable and apart), each list a tuple and each dict a read-only mapping; a
    read-only mapping is returned as it is."""
    if isinstance(value, np.ndarray):
        value = value.copy(order="K")
        value.setflags(write=False)
    elif isinstance(value, (list, tuple)):
        return tuple(map(read_only, value))
    elif isinstance(value, dict):
        return MappingProxyType({k: read_only(v) for k, v in value.items()})
    return value


def freeze(obj, **fields) -> None:
    """Set fields of a frozen dataclass in its __post_init__, each made read_only."""
    for name, value in fields.items():
        object.__setattr__(obj, name, read_only(value))


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm with the arithmetic of np.linalg.norm(m) for a float or
    complex array, the dot products of its raveled real and imaginary parts,
    without that function's argument handling."""
    x = m.ravel(order="K")
    if x.dtype.kind == "c":
        return float(np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)))
    return float(np.sqrt(x.dot(x)))


def unitarity_deviation(m: np.ndarray) -> float:
    """Frobenius distance of m†m from the identity."""
    gram = dagger(m) @ m
    gram.flat[::len(gram) + 1] -= 1     # the bits of gram - np.eye(d)
    return frobenius(gram)


def svd_rank(a: np.ndarray, full: bool = False) -> tuple[int, np.ndarray]:
    """Numerical rank of a and its right singular vectors (rows of vh).

    An (m, n) input with a non-finite entry raises ValidationError. From
    m >= ⌊17n/9⌋ rows (zgesdd's crossover MNTHR1; dgesdd's, ⌊11n/6⌋, is
    lower) the economy SVD is taken of the n × n R of a = QR: LAPACK itself
    factors a that way above the crossover and bidiagonalizes R, so s and vh
    keep every bit, while Q and the m × n left factor are never formed.
    Below 1024 entries the extra QR call costs more than that saves, so
    small systems take the direct SVD, which is exact on either side.
    """
    if not np.isfinite(a).all():
        raise ValidationError("cannot take the SVD of a matrix with a NaN or Inf entry")
    m, n = a.shape
    if not full and m >= n * 17 // 9 and m * n >= 1024:
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a, full_matrices=full)
    return int(np.sum(s > 1e-9 * max(1.0, s[0] if s.size else 0.0))), vh


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space of a."""
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    # tall systems only need the economy factorization; wide ones need the
    # full row basis to expose every null direction
    rank, vh = svd_rank(a, full=a.shape[0] < a.shape[1])
    return dagger(vh[rank:, :])


def leading_phase(rows: np.ndarray) -> np.ndarray:
    """Unit phase of the first entry above 1e-8 in size of each row (one must exist)."""
    lead = rows[np.arange(len(rows)), (np.abs(rows) > 1e-8).argmax(1)]
    return lead / np.abs(lead)


def kron_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[j] (x) b[j] over two stacks of square matrices, the Kronecker
    products broadcast over j."""
    terms = a[:, :, None, :, None] * b[:, None, :, None, :]
    return np.add.reduce(terms, axis=0).reshape(a.shape[1] * b.shape[1], -1)


def polar_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition of m."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def gram_schmidt(columns: np.ndarray, expected_rank: int) -> np.ndarray:
    """Orthonormalize columns left to right, dropping dependent ones.

    Processing order is fixed by the input column order so the result is
    deterministic. Raises SingularInputError when the span does not have
    dimension expected_rank.
    """
    scale = max(np.max(np.abs(columns)) if columns.size else 0.0, 1.0)
    basis: list[tuple[np.ndarray, np.ndarray]] = []     # (b, conj(b)) per basis vector
    for j in range(columns.shape[1]):
        v = columns[:, j].astype(complex)       # a copy
        for _ in range(2):      # a second pass stabilizes nearly dependent columns
            for b, b_conj in basis:
                v -= b * (b_conj @ v)
        norm = frobenius(v)
        if norm > 1e-10 * scale:
            b = v / norm
            basis.append((b, b.conj()))
    if len(basis) != expected_rank:
        raise SingularInputError(
            f"column group spans dimension {len(basis)}, expected {expected_rank}")
    return np.column_stack([b for b, _ in basis])


def connected_components(adjacency: np.ndarray) -> list[list[int]]:
    """Connected components of an undirected graph, each sorted ascending, in
    the order of their least vertex; the diagonal of adjacency is not read."""
    reach = adjacency.astype(bool) | np.eye(len(adjacency), dtype=bool)
    while np.count_nonzero(closer := reach @ reach) > np.count_nonzero(reach):   # reach <= closer
        reach = closer
    # a vertex's row of reach is its component, whose least vertex is the row's first True
    return [[j for j, hit in enumerate(row) if hit]
            for i, row in enumerate(reach.tolist()) if row.index(True) == i]


def weyl_operator_basis(dim: int) -> np.ndarray:
    """Shift/clock operator basis: a (dim², dim, dim) stack of X^a Z^b, Tr(P†P') = dim δ."""
    omega = np.exp(2j * np.pi / dim)
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(dim))
    return np.array([np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                     for a in range(dim) for b in range(dim)])
