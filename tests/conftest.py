"""Test-only helpers shared by several test files: import them with
`from conftest import ...`."""
import numpy as np
import pytest

import nlgc.expansion
import nlgc.protocol
import nlgc.search
from nlgc._linalg import weyl_operator_basis
from nlgc.expansion import NUM_TOL, _build, _finest_structure, compile_unitary
from nlgc.protocol import build_M
from nlgc.representations import Representation
from nlgc.schmidt import BipartiteUnitary
from nlgc.search import CatalogIndex, search_group


@pytest.fixture
def fresh_builtin_index(monkeypatch):
    """An empty slot for search.builtin_index, so that the test's first
    compile without a catalog builds a fresh index; the index of the
    process comes back after the test."""
    monkeypatch.setattr(nlgc.search, "_builtin", None)


def orthogonality_defect(irreps: list[Representation]) -> float:
    """Deviation from the row orthogonality of inequivalent irreps.

    sum_f U'(f^-1)[n', m'] U(f)[m, n] must equal (|G|/d) on matched indices
    of the same irrep and vanish otherwise.
    """
    group = irreps[0].group
    n = group.order
    worst = 0.0
    for a, ra in enumerate(irreps):
        inv_a = ra.matrices[group.inverses]            # U'(f^-1), indexed by f
        for b, rb in enumerate(irreps):
            # sums[n', m', m, n] = sum_f U'(f^-1)[n', m'] U(f)[m, n]
            sums = np.einsum("fnm,fpq->nmpq", inv_a, rb.matrices)
            if a == b:
                d = ra.dim
                target = np.zeros_like(sums)
                for m in range(d):
                    for nn in range(d):
                        target[nn, m, m, nn] = n / d
                worst = max(worst, float(np.max(np.abs(sums - target))))
            else:
                worst = max(worst, float(np.max(np.abs(sums))))
    return worst


def counting_build_M(monkeypatch) -> list:
    """Wrap build_M in each nlgc module that calls it, so every M built is
    counted: the returned list gets one entry, the group order, per call."""
    calls = []

    def counting(group, factor, w_ops):
        calls.append(group.order)
        return build_M(group, factor, w_ops)
    for module in (nlgc.expansion, nlgc.protocol):
        monkeypatch.setattr(module, "build_M", counting)
    return calls


def dense_regular(group, factor=None) -> np.ndarray:
    """R(f)[g, gf] = mu(g, f) as a dense (n, n, n) stack: the regular
    representation, twisted by factor when one is given. nlgc reads every
    translation off the group table; this is the bitwise reference."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    f, g = np.indices((n, n))
    mats[f, g, group.table[g, f]] = 1.0 if factor is None else factor.phases[g, f]
    return mats


def dense_left_translations(group) -> np.ndarray:
    """L(h)[hg, g] = 1 as a dense (n, n, n) stack: the left translations, which
    span the commutant of the regular representation."""
    n = group.order
    ops = np.zeros((n, n, n), dtype=complex)
    h, g = np.indices((n, n))
    ops[h, group.table[h, g], g] = 1.0
    return ops


def haar_block_gate(d_a: int, parts: list[int], seed: int) -> BipartiteUnitary:
    """W_1 + W_2 + ... block diagonal along B = C^p_1 + C^p_2 + ...: each W_i
    is a Haar unitary on C^d_a (x) C^p_i, drawn in turn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    d_b = sum(parts)
    u = np.zeros((d_a, d_b, d_a, d_b), dtype=complex)
    start = 0
    for p in parts:
        x = rng.normal(size=(d_a * p,) * 2) + 1j * rng.normal(size=(d_a * p,) * 2)
        q, r = np.linalg.qr(x)
        w = q * (np.diag(r) / np.abs(np.diag(r)))
        u[:, start:start + p, :, start:start + p] = w.reshape(d_a, p, d_a, p)
        start += p
    return BipartiteUnitary(u.reshape(d_a * d_b, -1), d_a, d_b)


def uncertified_s4_expansion():
    """Side B's search candidates for the 4x5 gate W2 + W3 of haar_block_gate,
    and the expansion the first one, S4, assembles: it reproduces the gate,
    but its M is not unitary, so compile_unitary rejects it. The expansion
    carries the blocks summary of the compiled gate, as a compile result does."""
    gate = haar_block_gate(4, [2, 3], seed=7)
    bu = gate.swapped()
    dec, bs = _finest_structure(bu, 10 * NUM_TOL, seed=0)
    cands = list(search_group(bs, CatalogIndex(), warning_sink={}))
    blocks = compile_unitary(gate, side="B").blocks
    return cands, _build(cands[0], dec, "B", [], NUM_TOL, 10 * NUM_TOL, blocks)


def operator_basis_expansion(u: BipartiteUnitary, side: str = "b") -> tuple[list, list]:
    """Expand the gate over a fixed shift/clock operator basis on one side.

    Returns (a_ops, b_ops) with u = sum_m a_ops[m] (x) b_ops[m]. The chosen
    side carries the orthonormal basis operators; the other side carries the
    matched contractions. Used to probe invariance of downstream block
    structure under the choice of starting expansion.
    """
    da, db = u.dim_a, u.dim_b
    m = u.matrix.reshape(da, db, da, db)
    if side == "b":
        basis = [p / np.sqrt(db) for p in weyl_operator_basis(db)]
        a_ops = [np.einsum("xy,axby->ab", p.conj(), m) for p in basis]
        return a_ops, basis
    if side == "a":
        basis = [p / np.sqrt(da) for p in weyl_operator_basis(da)]
        b_ops = [np.einsum("xy,xayb->ab", p.conj(), m) for p in basis]
        return basis, b_ops
    raise ValueError("side must be 'a' or 'b'")
