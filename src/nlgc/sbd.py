"""Finest simultaneous block diagonalization of matrix sets.

Given a finite set of square matrices, find a single unitary basis change
that puts every member into the same, finest possible, block diagonal
form, then sort the blocks into equivalence classes under simultaneous
unitary conjugation.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._linalg import (connected_components, dagger, freeze, frobenius, leading_phase,
                      null_space, polar_unitary, svd_rank)
from .errors import DimensionError, InconsistencyError, NondeterminismError

BLOCK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Unitary basis change plus the common block partition it induces; frozen.
    A class is a (members, intertwiners) pair: block indices, representative
    first, and a mapping from each member to the unitary T with T R_rep T† = R_member."""

    basis_change: np.ndarray          # columns ordered block by block
    block_sizes: tuple                # sizes in block order
    classes: tuple = ()               # (members, intertwiners) pairs, empty until classified

    def __post_init__(self):
        freeze(self, basis_change=np.asarray(self.basis_change),
               block_sizes=self.block_sizes, classes=self.classes)

    @property
    def dim(self) -> int:
        return self.basis_change.shape[0]

    def block_slices(self) -> list[slice]:
        out, start = [], 0
        for n in self.block_sizes:
            out.append(slice(start, start + n))
            start += n
        return out

    def transformed(self, m: np.ndarray) -> np.ndarray:
        """S† m S, for one matrix or a (k, d, d) stack."""
        s = self.basis_change
        return dagger(s) @ m @ s

    def outside_blocks(self, x: np.ndarray) -> float:
        """Largest magnitude outside the blocks of a (k, d, d) stack already in
        the block basis, such as transformed returns."""
        mask = np.ones((self.dim, self.dim), dtype=bool)
        for sl in self.block_slices():
            mask[sl, sl] = False
        return float(np.max(np.abs(x[:, mask]), initial=0.0))

    def class_dims(self) -> list[int]:
        """One block size per equivalence class, in class order."""
        return [self.block_sizes[members[0]] for members, _ in self.classes]


def _as_stack(mats) -> np.ndarray:
    """A list or (k, d, d) stack of square matrices of one size, as a stack."""
    try:
        stack = np.asarray(mats)
    except ValueError:      # a ragged list
        stack = None
    if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionError("all matrices must be square of equal size")
    return stack


def gram_set(dec) -> np.ndarray:
    """All products A_j† A_k of the Schmidt A side: an (r², d, d) stack, row major in (j, k)."""
    a = dec.a_ops
    return (a.conj().transpose(0, 2, 1)[:, None] @ a).reshape(-1, *a.shape[1:])


def _sylvester_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Conditions X R_f - L_f X = 0 on the row-major vec of X, over (f, n, n)
    stacks: byte for byte the np.kron stack of kron(I, R_f^T) - kron(L_f, I)."""
    f, n, _ = left.shape
    eye = np.eye(n)
    # [f, i, k, j, l] = eye[i, j] right[f, l, k] - left[f, i, j] eye[k, l]
    rows = eye[:, None, :, None] * right.transpose(0, 2, 1)[:, None, :, None, :]
    rows -= left[:, :, None, :, None] * eye[:, None, :]
    return rows.reshape(f * n * n, n * n)


def commutant_basis(mats) -> np.ndarray:
    """Basis of all X commuting with every matrix of a set (list or stack) and its
    adjoints, solved over an orthonormal basis of their span: a (k, d, d) stack, k <= d²."""
    mats = _as_stack(mats)
    d = mats.shape[1]
    rank, vh = svd_rank(np.concatenate([mats, mats.conj().transpose(0, 2, 1)]).reshape(-1, d * d))
    span = vh[:rank].reshape(rank, d, d)
    basis = null_space(_sylvester_rows(span, span))
    return basis.T.reshape(-1, d, d)


def _component_structure(mats, x, tol):
    """One splitting pass over a stack: eigenbasis of x + x† for a commutant element x."""
    _, basis = np.linalg.eigh(x + dagger(x))
    big = np.abs(dagger(basis) @ mats @ basis) > tol
    adjacency = np.any(big | big.transpose(0, 2, 1), axis=0)
    np.fill_diagonal(adjacency, True)
    comps = connected_components(adjacency)
    comps.sort(key=lambda c: (len(c), c[0]))
    return basis, comps


def _finest_split(mats, tol: float = BLOCK_TOL, seed: int = 0,
                  commutant=None) -> BlockStructure:
    """Finest common block split of a matrix set, a list or a stack, unclassified.

    Gauge-fixed as by Maehara & Murota: project a seeded Hermitian H0 onto the
    commutant of the set and its adjoints (commutant may pass an orthogonal
    basis of it, a list or a stack), eigendecompose, and read the blocks off
    the support graph of the transformed set, same-size blocks in eigenvalue
    order. Block Q gets the phase-fixed eigenvectors of Q†H1Q for a seeded
    H1, so nothing depends on the commutant basis. A second seeded
    projection must give the same block sizes, and the set's mass outside
    the blocks must be at most tol, otherwise the split is declared unstable.
    """
    mats = _as_stack(mats)
    d = mats.shape[1]
    k = commutant_basis(mats) if commutant is None else np.asarray(commutant)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    h = x + x.conj().transpose(0, 2, 1)
    # orthogonal projections of H0 and its second draw: the same for any basis k
    coeffs = np.einsum("kij,hij->hk", k.conj(), h[:2]) / np.einsum("kij,kij->k", k.conj(), k).real
    x0, x0_again = np.einsum("hk,kij->hij", coeffs, k)
    basis_a, comps_a = _component_structure(mats, x0, tol)
    _, comps_b = _component_structure(mats, x0_again, tol)
    if sorted(len(c) for c in comps_a) != sorted(len(c) for c in comps_b):
        raise NondeterminismError(
            "block structure differs between independent random samples; "
            "loosen tol or check the input scale")

    s = basis_a[:, [i for comp in comps_a for i in comp]]
    at = 0
    for n, count in sorted(Counter(map(len, comps_a)).items()):
        if n > 1:   # the size-n blocks as a (count, d, n) stack; 1x1 blocks keep q
            q = s[:, at:at + n * count].reshape(d, count, n).swapaxes(0, 1)
            _, v = np.linalg.eigh(q.conj().swapaxes(1, 2) @ h[2] @ q)
            s[:, at:at + n * count] = (q @ v).swapaxes(0, 1).reshape(d, -1)
        at += n * count
    bs = BlockStructure(s / leading_phase(s.T), [len(c) for c in comps_a])
    worst = bs.outside_blocks(bs.transformed(mats))
    if not worst <= tol:
        raise NondeterminismError(
            f"off-block residue {worst:.3e} exceeds tol after splitting")
    return bs


def finest_sbd(mats, tol: float = BLOCK_TOL, seed: int = 0) -> BlockStructure:
    """Finest common block diagonalization of a matrix set: the split of
    _finest_split, its blocks then classified at the same tol."""
    return classify_equivalence(_finest_split(mats, tol, seed), mats, tol)


def _trace_bound(blocks: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Trace of each n x n block of a stack, and how far the trace of a block
    it is equivalent to may lie: n * tol + 1e-10 (1 + its largest entry).
    Unitary conjugation keeps traces, and a pair further apart fails the
    final check of _intertwiner."""
    return (blocks.trace(axis1=-2, axis2=-1),
            blocks.shape[-1] * tol + 1e-10 * (1 + np.abs(blocks).max(axis=(-2, -1))))


def _intertwiner(rep_blocks, mem_blocks, tol):
    """Unitary T with T R_rep T† = R_member for all blocks of two (k, n, n) stacks, or None."""
    n = rep_blocks.shape[1]
    trace, bound = _trace_bound(rep_blocks, tol)
    if np.any(np.abs(trace - np.trace(mem_blocks, axis1=1, axis2=2)) > bound):
        return None
    ns = null_space(_sylvester_rows(mem_blocks, rep_blocks))
    if ns.shape[1] == 0:
        return None
    t = ns[:, 0].reshape(n, n)
    scale = np.trace(dagger(t) @ t).real / n
    if scale <= tol:
        return None
    t = t / np.sqrt(scale)
    if frobenius(dagger(t) @ t - np.eye(n)) > 1e-6:
        return None
    t = polar_unitary(t)
    if not np.max(np.abs(t @ rep_blocks @ dagger(t) - mem_blocks)) <= tol:
        return None
    return t / leading_phase(t.reshape(1, -1))[0]


def inequivalent(reps, tol: float) -> bool:
    """Whether no unitary maps one of these (k, n, n) stacks onto another of
    the same size, as _intertwiner decides it for each pair. The traces of
    all same-size pairs are compared at once, and only a pair whose traces
    lie within _trace_bound goes on to _intertwiner."""
    by_size: dict[tuple, list] = {}
    for rep in reps:
        by_size.setdefault(rep.shape, []).append(rep)
    for same in by_size.values():
        if len(same) < 2:
            continue
        trace, bound = _trace_bound(np.array(same), tol)
        near = (~(np.abs(trace[:, None] - trace) > bound[:, None]).any(-1)).tolist()
        if any(near[i][j] and _intertwiner(same[i], same[j], tol) is not None
               for i in range(len(same)) for j in range(i + 1, len(same))):
            return False
    return True


def classify_equivalence(bs: BlockStructure, mats, tol: float = BLOCK_TOL) -> BlockStructure:
    """The structure of bs with its blocks grouped into classes equivalent
    under one unitary conjugation; bs itself is left unchanged.

    Each class stores, per member, the unitary mapping the representative
    block content onto the member block content simultaneously for every
    matrix in the set (list or stack). Blocks are reordered class by class,
    by size, larger classes first, so class lists do not depend on the seeded split.
    """
    slices = bs.block_slices()
    rotated = bs.transformed(_as_stack(mats))
    per_block = [rotated[:, sl, sl] for sl in slices]
    classes: list[dict] = []      # member -> intertwiner, the representative first
    for alpha in range(len(slices)):
        for inter in classes:
            rep = next(iter(inter))
            if bs.block_sizes[rep] != bs.block_sizes[alpha]:
                continue
            t = _intertwiner(per_block[rep], per_block[alpha], tol)
            if t is not None:
                inter[alpha] = t
                break
        else:
            classes.append({alpha: np.eye(bs.block_sizes[alpha], dtype=complex)})
    classes.sort(key=lambda c: (bs.block_sizes[next(iter(c))], -len(c)))
    order = [m for c in classes for m in c]
    pos = {m: k for k, m in enumerate(order)}
    return BlockStructure(
        bs.basis_change[:, np.r_[tuple(slices[m] for m in order)]],
        [bs.block_sizes[m] for m in order],
        [([pos[m] for m in c], {pos[m]: t for m, t in c.items()}) for c in classes])


def merge_blocks(bs: BlockStructure, partition: list[list[int]]) -> BlockStructure:
    """Coarsen a classified structure by fusing groups of blocks.

    partition lists block indices; every part becomes one block of the new
    structure (columns reordered so each part is contiguous). Singleton parts
    keep their equivalence grouping, fused parts each form their own class.
    """
    if sorted(i for part in partition for i in part) != list(range(len(bs.block_sizes))):
        raise DimensionError("partition must cover every block exactly once")
    slices = bs.block_slices()
    parts = [sorted(p) for p in partition]
    sized = [(sum(bs.block_sizes[i] for i in p), slices[p[0]].start, p) for p in parts]
    sized.sort(key=lambda t: (t[0], t[1]))

    new_sizes = [size for size, _, _ in sized]
    cols = [c for _, _, part in sized for i in part for c in range(slices[i].start, slices[i].stop)]

    new_index = {tuple(part): k for k, (_, _, part) in enumerate(sized)}
    classes = []
    for members, inter in bs.classes:
        singles = sorted((new_index[(m,)], m) for m in members if (m,) in new_index)
        if singles:
            t_rep = inter[singles[0][1]]
            classes.append(([k for k, _ in singles],
                            {k: inter[m] @ dagger(t_rep) for k, m in singles}))
    for k, (size, _, part) in enumerate(sized):
        if len(part) > 1:
            classes.append(([k], {k: np.eye(size, dtype=complex)}))
    classes.sort(key=lambda c: c[0][0])
    if len({m for members, _ in classes for m in members}) != len(new_sizes):
        raise InconsistencyError("merged class bookkeeping lost a block")
    return BlockStructure(bs.basis_change[:, cols], new_sizes, classes)
