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

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .groups import FactorSystem, FiniteGroup

M_UNITARY_TOL = 1e-8
DETERMINISM_TOL = 1e-9


@dataclass
class ProtocolTrace:
    """Outcome table of one exhaustive protocol run."""

    branch_outcomes: list[tuple[int, int]]
    branch_probabilities: np.ndarray
    branch_fidelities: np.ndarray
    deterministic: bool
    min_fidelity: float
    ebits: float
    cbits: float
    warnings: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "branches": len(self.branch_outcomes),
            "deterministic": self.deterministic,
            "minFidelity": self.min_fidelity,
            "probabilitySum": float(np.sum(self.branch_probabilities)),
            "ebits": self.ebits,
            "cbits": self.cbits,
        }


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


def simulate_protocol(expansion, psi: np.ndarray) -> ProtocolTrace:
    """Run every (h, g) measurement branch of the protocol on one state.

    psi lives on A (x) B in the expansion's own orientation. The target is
    the compiled unitary applied to psi; each branch fidelity is the overlap
    of the corrected branch output with that target. M, and whether it is
    unitary, are the expansion's own (expansion.m, built on first read and
    shared by every state). A non-unitary M cannot be certified: the trace
    comes back flagged non-deterministic.
    """
    n = expansion.group.order
    d_a, d_b = expansion.unitary.dim_a, expansion.unitary.dim_b
    psi = np.asarray(psi, dtype=complex).reshape(d_a * d_b)
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-9:      # fails closed on NaN
        raise ValidationError("input state is not normalized")
    psi0 = psi.reshape(d_a, d_b)
    target = (expansion.unitary.matrix @ psi).reshape(d_a * d_b)

    f_matrix = fourier_basis(n)
    m, m_ok, m_dev = expansion.m, expansion.m_unitary, expansion.m_deviation
    warnings = [] if m_ok else [
        "M is not unitary (deviation %.3e): the group elements act through "
        "linearly dependent operators, so branch outcomes are not certified" % m_dev]

    u_mats = expansion.u_rep.matrices
    controlled = u_mats @ psi0                                      # (n, dA, dB)
    # row h of z is the diagonal of Z(h); amp[h] is the unnormalized state on
    # b (x) A (x) B after Alice's outcome h, its phases undone by Z(h)
    z = 1.0 / (np.sqrt(n) * np.conj(f_matrix))
    amp = np.conj(f_matrix)[:, :, None, None] * controlled / np.sqrt(n)
    amp = z[:, :, None, None] * amp
    # M acts on the joint (b, B) index; evolved[h, g] is branch (h, g) on (B, A)
    stacked = amp.transpose(0, 1, 3, 2).reshape(n, n * d_b, d_a)
    evolved = (m @ stacked).reshape(n, n, d_b, d_a)
    # Alice's correction V U(g)† on every branch; squared branch norms are
    # the joint outcome probabilities
    finals = (expansion.v @ u_mats.conj().transpose(0, 2, 1)) @ evolved.transpose(0, 1, 3, 2)
    outcomes = [(h, g) for h in range(n) for g in range(n)]
    probs = np.array([np.vdot(x, x).real for x in evolved.reshape(n * n, -1)])
    finals = np.divide(finals.reshape(n * n, -1), np.sqrt(probs)[:, None],
                       out=np.zeros((n * n, d_a * d_b), dtype=complex),
                       where=(probs > 1e-24)[:, None])
    fids = np.array([abs(np.vdot(target, f)) for f in finals])
    total = float(np.sum(probs))

    live = probs > 1e-12
    min_fid = float(np.min(fids[live])) if np.any(live) else 0.0
    deterministic = bool(
        m_ok and abs(total - 1.0) <= DETERMINISM_TOL
        and min_fid >= 1.0 - DETERMINISM_TOL)
    return ProtocolTrace(
        branch_outcomes=outcomes,
        branch_probabilities=probs,
        branch_fidelities=fids,
        deterministic=deterministic,
        min_fidelity=min_fid,
        ebits=float(np.log2(n)),
        cbits=float(2 * np.log2(n)) if n > 1 else 0.0,
        warnings=warnings,
    )
