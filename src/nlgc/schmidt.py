"""Operator Schmidt decomposition of bipartite unitaries.

A unitary acting on a dA*dB dimensional product space is expanded as
sum_j A_j (x) B_j with Tr(B_k† B_j) = delta_jk and the weights folded
into the A_j. The number of terms is the operator Schmidt rank.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import dagger, leading_phase, unitarity_deviation
from .errors import DimensionError, ValidationError

UNITARITY_TOL = 1e-8
RANK_CUTOFF = 1e-10


@dataclass
class BipartiteUnitary:
    """Unitary matrix together with its tensor factorization dimensions."""

    matrix: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.dim_a * self.dim_b
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionError("tensor factor dimensions must be positive")
        if self.matrix.shape != (d, d):
            raise DimensionError(
                f"matrix shape {self.matrix.shape} does not match dA*dB = {d}")
        dev = unitarity_deviation(self.matrix)
        if not dev <= UNITARITY_TOL:     # fails closed on NaN entries
            raise ValidationError(f"matrix is not unitary (deviation {dev:.3e})")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def swapped(self) -> "BipartiteUnitary":
        """Same gate with the two tensor factors exchanged."""
        m = self.matrix.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        m = m.transpose(1, 0, 3, 2).reshape(self.dim, self.dim)
        return BipartiteUnitary(m, self.dim_b, self.dim_a)


@dataclass
class SchmidtDecomposition:
    """Terms of the operator Schmidt expansion, coefficients descending."""

    unitary: BipartiteUnitary
    coefficients: np.ndarray          # positive reals, descending
    a_ops: list = field(default_factory=list)   # dA x dA, weight s_j folded in
    b_ops: list = field(default_factory=list)   # dB x dB, orthonormal set

    def __len__(self) -> int:
        return len(self.coefficients)

    def reconstruct(self) -> np.ndarray:
        total = np.zeros_like(self.unitary.matrix)
        for a, b in zip(self.a_ops, self.b_ops):
            total += np.kron(a, b)
        return total


def _realign(matrix: np.ndarray, da: int, db: int) -> np.ndarray:
    # index pairing (a1 b1),(a2 b2) -> (a1 a2),(b1 b2)
    return matrix.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)


def _phase_fix(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the pair so the first significant entry of b is positive real."""
    phase = leading_phase(b.reshape(1, -1))[0]
    return a * phase, b / phase


def _lex_key(b: np.ndarray) -> tuple:
    return tuple(np.round(b.reshape(-1).view(float), 9).tolist())


def schmidt_decompose(u: BipartiteUnitary) -> SchmidtDecomposition:
    """Operator Schmidt decomposition via realignment and SVD.

    Singular values below RANK_CUTOFF * s_max are discarded. Ordering is by
    descending coefficient; coefficient ties are broken by lexicographic
    comparison of the flattened B entries so output is deterministic.
    """
    da, db = u.dim_a, u.dim_b
    r = _realign(u.matrix, da, db)
    left, vals, right = np.linalg.svd(r, full_matrices=False)
    keep = vals > RANK_CUTOFF * vals[0]
    vals = vals[keep]
    left = left[:, keep]
    right = right[keep, :]

    terms = []
    for j, s in enumerate(vals):
        a = s * left[:, j].reshape(da, da)
        b = right[j, :].reshape(db, db)
        a, b = _phase_fix(a, b)
        terms.append((float(s), a, b))

    # stable order: descending s, ties resolved by the B entries
    order = list(range(len(terms)))
    groups: list[list[int]] = []
    for i in order:
        if groups and abs(terms[groups[-1][0]][0] - terms[i][0]) <= 1e-12 * max(terms[0][0], 1.0):
            groups[-1].append(i)
        else:
            groups.append([i])
    final: list[int] = []
    for g in groups:
        final.extend(sorted(g, key=lambda i: _lex_key(terms[i][2])))

    coeffs = np.array([terms[i][0] for i in final])
    a_ops = [terms[i][1] for i in final]
    b_ops = [terms[i][2] for i in final]
    return SchmidtDecomposition(u, coeffs, a_ops, b_ops)
