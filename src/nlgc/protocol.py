"""Exact branch-by-branch simulation of the local gate protocol.

Alice and Bob share a maximally entangled pair of |G|-level systems a, b.
Alice applies a controlled group representation, measures a in the Fourier
basis of Z_|G|, and broadcasts h; Bob undoes the measurement phases with Z(h),
applies the correlation unitary M on b and his system, measures b, and
broadcasts g; Alice finishes with the correction V U(g)^dag on her system.
Every (h, g) branch is enumerated exactly, so determinism is an assertion
rather than a sample statistic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._linalg import freeze, frobenius, read_only
from .errors import ValidationError
from .groups import FactorSystem, FiniteGroup

if TYPE_CHECKING:
    from .expansion import GroupExpansion

M_UNITARY_TOL = 1e-8
DETERMINISM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    """Outcome table of one exhaustive protocol run: the expansion it ran and the
    probability and fidelity of each (h, g) branch, h-major, sealed with freeze;
    the grid, verdict, resources and warning are derived from them."""

    expansion: GroupExpansion
    branch_probabilities: np.ndarray
    branch_fidelities: np.ndarray

    def __post_init__(self):
        freeze(self, branch_probabilities=np.asarray(self.branch_probabilities),
               branch_fidelities=np.asarray(self.branch_fidelities))

    @property
    def branch_outcomes(self) -> tuple[tuple[int, int], ...]:
        n = self.expansion.group.order
        return tuple((h, g) for h in range(n) for g in range(n))

    @property
    def min_fidelity(self) -> float:
        """The lowest fidelity of a branch with probability above 1e-12, 0.0 if none."""
        live = self.branch_probabilities > 1e-12
        return float(self.branch_fidelities[live].min()) if live.any() else 0.0

    @property
    def deterministic(self) -> bool:
        """M is unitary, the probabilities sum to 1 and every branch that occurs gives the gate."""
        return bool(self.expansion.m_unitary
                    and abs(float(self.branch_probabilities.sum()) - 1.0) <= DETERMINISM_TOL
                    and self.min_fidelity >= 1.0 - DETERMINISM_TOL)

    @property
    def ebits(self) -> float:
        return self.expansion.cost_ebits

    @property
    def cbits(self) -> float:
        return 2 * self.ebits

    @property
    def warnings(self) -> tuple[str, ...]:
        return () if self.expansion.m_unitary else (
            "M is not unitary (deviation %.3e): the group elements act through linearly dependent "
            "operators, so branch outcomes are not certified" % self.expansion.m_deviation,)

    def summary(self) -> dict:
        return {
            "branches": len(self.branch_probabilities),
            "deterministic": self.deterministic,
            "minFidelity": self.min_fidelity,
            "probabilitySum": float(np.sum(self.branch_probabilities)),
            "ebits": self.ebits,
            "cbits": self.cbits,
        }


def build_branch_operators(expansion) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays of simulate_protocol that no state changes, read-only:
    conj(F) and the diagonals of Z(h), each shaped to broadcast over the
    (h, g, A, B) amplitudes, and Alice's corrections V U(g)†. An expansion
    builds them once, on first read of its branch_operators."""
    f_conj = np.conj(fourier_basis(expansion.group.order))
    z = 1.0 / (np.sqrt(expansion.group.order) * f_conj)
    u_mats = expansion.u_rep.matrices
    return read_only((f_conj[:, :, None, None], z[:, :, None, None],
                      expansion.v @ u_mats.conj().transpose(0, 2, 1)))


def build_M(group: FiniteGroup, factor: FactorSystem, w_ops: np.ndarray) -> np.ndarray:
    """M = sum_f R(f) (x) W(f) on b (x) B, R the regular representation.

    R(f) translates |g> to mu(g, f)|gf>, so the (g, f) block of M is
    mu(g, k) W(k) with k = g^-1 f: the group table and the factor phases
    give M without forming R. A NaN or Inf entry of M raises ValidationError.
    """
    w_ops = np.asarray(w_ops, dtype=complex)
    n = group.order
    if w_ops.shape[0] != n:
        raise ValidationError("need one W operator per group element")
    k = group.table[group.inverses]                      # k[g, f] = g^-1 f
    m = np.einsum("gf,gfjk->gjfk", factor.phases[np.arange(n)[:, None], k], w_ops[k]).reshape(
        n * w_ops.shape[1], n * w_ops.shape[2])
    if not np.all(np.isfinite(m)):
        raise ValidationError("translation blocks of M are inconsistent")
    return m


def fourier_basis(n: int) -> np.ndarray:
    """F[h, k] = omega^{hk} / sqrt(n); row h is the h-th measurement vector."""
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def random_states(dim: int, count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def simulate_protocol(expansion: GroupExpansion, psi: np.ndarray) -> ProtocolTrace:
    """Run every (h, g) measurement branch of the protocol on one state.

    psi lives on A (x) B in the expansion's own orientation. The target is
    the compiled unitary applied to psi; each branch fidelity is the overlap
    of the corrected branch output with that target. M, whether it is
    unitary, and the other arrays no state changes are the expansion's own
    (expansion.m and expansion.branch_operators, built on first read and
    shared by every state). A non-unitary M cannot be certified: such a trace
    is non-deterministic and carries a warning.
    """
    n = expansion.group.order
    d_a, d_b = expansion.unitary.dim_a, expansion.unitary.dim_b
    psi = np.asarray(psi, dtype=complex).reshape(d_a * d_b)
    if not abs(frobenius(psi) - 1.0) <= 1e-9:      # fails closed on NaN
        raise ValidationError("input state is not normalized")
    target = (expansion.unitary.matrix @ psi).reshape(d_a * d_b)
    f_conj, z, corrections = expansion.branch_operators

    controlled = expansion.u_rep.matrices @ psi.reshape(d_a, d_b)     # (n, dA, dB)
    # row h of z is the diagonal of Z(h); amp[h] is the unnormalized state on
    # b (x) A (x) B after Alice's outcome h, its phases undone by Z(h)
    amp = f_conj * controlled / np.sqrt(n)
    amp = z * amp
    # M acts on the joint (b, B) index; evolved[h, g] is branch (h, g) on (B, A)
    stacked = amp.transpose(0, 1, 3, 2).reshape(n, n * d_b, d_a)
    evolved = (expansion.m @ stacked).reshape(n, n, d_b, d_a)
    # Alice's correction V U(g)† on every branch; squared branch norms are
    # the joint outcome probabilities
    finals = corrections @ evolved.transpose(0, 1, 3, 2)
    probs = np.array([np.vdot(x, x).real for x in evolved.reshape(n * n, -1)])
    finals = np.divide(finals.reshape(n * n, -1), np.sqrt(probs)[:, None],
                       out=np.zeros((n * n, d_a * d_b), dtype=complex),
                       where=(probs > 1e-24)[:, None])
    fids = np.array([abs(np.vdot(target, f)) for f in finals])
    return ProtocolTrace(expansion, probs, fids)
