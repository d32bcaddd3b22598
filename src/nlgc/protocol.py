"""Exact branch-by-branch simulation of the local gate protocol.

Alice and Bob share a maximally entangled pair of |G|-level systems a, b.
Alice applies a controlled group representation, measures a in an unbiased
basis, and broadcasts h; Bob undoes the measurement phases with Z(h),
applies the correlation unitary M on b and his system, measures b, and
broadcasts g; Alice finishes with the correction V U(g)^dag on her system.
Every (h, g) branch is enumerated exactly, so determinism is an assertion
rather than a sample statistic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import dagger, frobenius, unitarity_deviation
from .errors import ValidationError
from .groups import FactorSystem, FiniteGroup
from .representations import regular_representation

UNBIASED_TOL = 1e-12
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


def build_M(group: FiniteGroup, factor: FactorSystem | None, w_ops: np.ndarray) -> np.ndarray:
    """M = sum_f R(f) (x) W(f) on b (x) B, R the regular representation.

    The (g, f) block of the result is mu(g, g^-1 f) W(g^-1 f); this identity
    is asserted entrywise before returning.
    """
    w_ops = np.asarray(w_ops, dtype=complex)
    n = group.order
    if w_ops.shape[0] != n:
        raise ValidationError("need one W operator per group element")
    reg = regular_representation(group, factor)
    m = np.einsum("fgh,fjk->gjhk", reg.matrices, w_ops).reshape(
        n * w_ops.shape[1], n * w_ops.shape[2])
    # blocks[g, f] is the (g, f) block of M; k[g, f] = g^-1 f
    blocks = m.reshape(n, w_ops.shape[1], n, w_ops.shape[2]).transpose(0, 2, 1, 3)
    k = group.table[group.inverses]
    expected = reg.factor.phases[np.arange(n)[:, None], k][:, :, None, None] * w_ops[k]
    scale = np.maximum(1.0, np.linalg.norm(w_ops, axis=(1, 2)))[k]
    if not np.all(np.linalg.norm(blocks - expected, axis=(2, 3)) <= 1e-10 * scale):
        raise ValidationError("translation blocks of M are inconsistent")
    return m


def check_M_unitary(m: np.ndarray) -> tuple[bool, float]:
    """Frobenius deviation of M†M from the identity, with pass/fail at M_UNITARY_TOL."""
    dev = unitarity_deviation(m)
    return bool(dev <= M_UNITARY_TOL), dev


def fourier_basis(n: int) -> np.ndarray:
    """F[h, k] = omega^{hk} / sqrt(n); row h is the h-th measurement vector."""
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def validate_unbiased(f_matrix: np.ndarray) -> None:
    """Measurement bases must be unbiased relative to the standard basis."""
    f_matrix = np.asarray(f_matrix, dtype=complex)
    n = f_matrix.shape[0]
    if f_matrix.shape != (n, n):
        raise ValidationError("measurement basis matrix must be square")
    if not frobenius(f_matrix @ dagger(f_matrix) - np.eye(n)) <= 1e-9:
        raise ValidationError("measurement basis matrix is not unitary")
    if not np.max(np.abs(np.abs(f_matrix) - n ** -0.5)) <= UNBIASED_TOL:
        raise ValidationError(
            "measurement basis is biased: entry magnitudes must all equal "
            "1/sqrt(%d)" % n)


def measurement_phase_correction(h: int, f_matrix: np.ndarray) -> np.ndarray:
    """Diagonal Z(h) on b cancelling the phases left by Alice's outcome h.

    After the controlled representation, outcome h leaves b (x) AB in
    sum_f conj(F[h,f]) |f> U(f)|psi>; Z(h) rescales each |f> amplitude to
    the common value 1/sqrt(|G|).
    """
    validate_unbiased(f_matrix)
    n = f_matrix.shape[0]
    return np.diag(1.0 / (np.sqrt(n) * np.conj(f_matrix[h])))


def random_states(dim: int, count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def simulate_protocol(expansion, psi: np.ndarray, f_matrix: np.ndarray | None = None) -> ProtocolTrace:
    """Run every (h, g) measurement branch of the protocol on one state.

    psi lives on A (x) B in the expansion's own orientation. The target is
    the compiled unitary applied to psi; each branch fidelity is the overlap
    of the corrected branch output with that target. A non-unitary M cannot
    be certified: the trace comes back flagged non-deterministic.
    """
    group = expansion.group
    n = group.order
    d_a, d_b = expansion.unitary.dim_a, expansion.unitary.dim_b
    psi = np.asarray(psi, dtype=complex).reshape(d_a * d_b)
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-9:      # fails closed on NaN
        raise ValidationError("input state is not normalized")
    psi0 = psi.reshape(d_a, d_b)
    target = (expansion.unitary.matrix @ psi).reshape(d_a * d_b)

    f_matrix = fourier_basis(n) if f_matrix is None else np.asarray(f_matrix)
    if f_matrix.shape != (n, n):
        raise ValidationError(f"measurement basis must be {n}x{n}, one row per group element")
    m = build_M(group, expansion.factor, expansion.w_ops)
    m_ok, m_dev = check_M_unitary(m)
    warnings = [] if m_ok else [
        "M is not unitary (deviation %.3e): the group elements act through "
        "linearly dependent operators, so branch outcomes are not certified" % m_dev]

    u_mats = expansion.u_rep.matrices
    corrections = np.array([expansion.v @ dagger(u_mats[g]) for g in range(n)])
    controlled = np.array([u_mats[f] @ psi0 for f in range(n)])  # (n, dA, dB)

    outcomes: list[tuple[int, int]] = []
    probs = np.zeros(n * n)
    fids = np.zeros(n * n)
    for h in range(n):
        z = np.diag(measurement_phase_correction(h, f_matrix))
        # unnormalized post-measurement state on b (x) A (x) B, phases undone
        # by Z(h); squared norms of its pieces are joint outcome probabilities
        amp = np.conj(f_matrix[h])[:, None, None] * controlled / np.sqrt(n)
        amp = z[:, None, None] * amp
        # M acts on the joint (b, B) index
        stacked = amp.transpose(0, 2, 1).reshape(n * d_b, d_a)
        evolved = (m @ stacked).reshape(n, d_b, d_a)
        for g in range(n):
            branch = evolved[g]                       # (dB, dA)
            p = float(np.vdot(branch, branch).real)
            k = h * n + g
            outcomes.append((h, g))
            probs[k] = p
            if p <= 1e-24:
                fids[k] = 0.0
                continue
            final = (corrections[g] @ branch.T) / np.sqrt(p)
            fids[k] = abs(np.vdot(target, final.reshape(d_a * d_b)))
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
