"""Operator Schmidt decomposition of bipartite unitaries.

A unitary acting on a dA*dB dimensional product space is expanded as
sum_j A_j (x) B_j with Tr(B_k† B_j) = delta_jk and the weights folded
into the A_j. The number of terms is the operator Schmidt rank.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import freeze, kron_sum, leading_phase, unitarity_deviation
from .errors import DimensionError, ValidationError

UNITARITY_TOL = 1e-8
RANK_CUTOFF = 1e-10


@dataclass(frozen=True, eq=False)
class BipartiteUnitary:
    """Unitary matrix with its tensor factor dimensions; frozen, matrix a
    read-only copy. deviation, the Frobenius distance of matrix†matrix from
    the identity, is computed once, by the unitarity check of construction."""

    matrix: np.ndarray
    dim_a: int
    dim_b: int
    deviation: float = field(init=False, repr=False)

    def __post_init__(self):
        freeze(self, matrix=np.asarray(self.matrix, dtype=complex))
        d = self.dim_a * self.dim_b
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionError("tensor factor dimensions must be positive")
        if self.matrix.shape != (d, d):
            raise DimensionError(
                f"matrix shape {self.matrix.shape} does not match dA*dB = {d}")
        dev = unitarity_deviation(self.matrix)
        if not dev <= UNITARITY_TOL:     # fails closed on NaN entries
            raise ValidationError(f"matrix is not unitary (deviation {dev:.3e})")
        freeze(self, deviation=dev)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def swapped(self) -> "BipartiteUnitary":
        """Same gate with the two tensor factors exchanged."""
        m = self.matrix.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        m = m.transpose(1, 0, 3, 2).reshape(self.dim, self.dim)
        return BipartiteUnitary(m, self.dim_b, self.dim_a)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Terms of the operator Schmidt expansion, coefficients descending; frozen."""

    unitary: BipartiteUnitary
    coefficients: np.ndarray          # positive reals, descending
    a_ops: np.ndarray                 # (r, dA, dA), weight s_j folded in
    b_ops: np.ndarray                 # (r, dB, dB), orthonormal set

    def __post_init__(self):
        freeze(self, coefficients=np.asarray(self.coefficients),
               a_ops=np.asarray(self.a_ops), b_ops=np.asarray(self.b_ops))

    def __len__(self) -> int:
        return len(self.coefficients)

    def reconstruct(self) -> np.ndarray:
        """sum_j A_j (x) B_j."""
        return kron_sum(self.a_ops, self.b_ops)


def _realign(matrix: np.ndarray, da: int, db: int) -> np.ndarray:
    # index pairing (a1 b1),(a2 b2) -> (a1 a2),(b1 b2)
    return matrix.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)


def schmidt_decompose(u: BipartiteUnitary) -> SchmidtDecomposition:
    """Operator Schmidt decomposition via realignment and SVD.

    Singular values below RANK_CUTOFF * s_max are discarded. Each pair is
    rotated so that the first significant entry of B_j is positive real.
    Ordering is by descending coefficient; a run of coefficients within
    1e-12 * max(s_max, 1) of its first member is a tie, broken by
    lexicographic comparison of the flattened B entries rounded to 9
    digits, so output is deterministic.
    """
    da, db = u.dim_a, u.dim_b
    left, vals, right = np.linalg.svd(_realign(u.matrix, da, db), full_matrices=False)
    keep = vals > RANK_CUTOFF * vals[0]
    vals, left, right = vals[keep], left[:, keep], right[keep, :]
    phase = leading_phase(right)
    a_ops = vals[:, None, None] * left.T.reshape(-1, da, da) * phase[:, None, None]
    b_ops = right.reshape(-1, db, db) / phase[:, None, None]

    tie = 1e-12 * max(vals[0], 1.0)
    lead = [0]          # the first term of each term's run of tied coefficients
    for s in vals[1:]:
        lead.append(lead[-1] if abs(vals[lead[-1]] - s) <= tie else len(lead))
    # lexsort's last key is its first: lead, then the B entries left to right; it is stable
    order = np.lexsort([*np.round(b_ops.reshape(len(vals), -1).view(float), 9).T[::-1], lead])
    return SchmidtDecomposition(u, vals[order], a_ops[order], b_ops[order])
