"""Group expansions gate = sum_f [V U(f)] (x) W(f) of bipartite unitaries:
their assembly from a search candidate, and compile_unitary, which returns
the cheapest one that verifies."""
from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial

import numpy as np

from ._linalg import (dagger, freeze, frobenius, gram_schmidt, kron_sum, polar_unitary,
                      read_only, unitarity_deviation)
from .errors import (AssignmentError, InconsistencyError, SingularInputError,
                     ValidationError)
from .groups import FactorSystem, FiniteGroup
from .protocol import M_UNITARY_TOL, build_branch_operators, build_M
from .representations import Representation, character_classes
from .sbd import BLOCK_TOL, BlockStructure, commutant_basis, finest_sbd, gram_set
from .schmidt import BipartiteUnitary, SchmidtDecomposition, schmidt_decompose
from .search import (CatalogIndex, SearchCandidate, builtin_index, search_floor,
                     search_group, trivial_structure)

NUM_TOL = 1e-9

CONTROLLED = "controlled-unitary"
DOUBLE = "double-unitary"
GENERAL = "general"


@dataclass(frozen=True, eq=False)
class GroupExpansion:
    """An expansion of the gate schmidt.unitary over the group and factor
    system of u_rep. Frozen, its fields sealed with freeze, so the residual
    and M it derives once, on first read, cannot go stale; only the
    classification is stored, because it depends on the tolerance."""

    schmidt: SchmidtDecomposition
    structure: BlockStructure
    v: np.ndarray
    u_rep: Representation
    w_coeffs: np.ndarray           # (schmidt rank, |G|)
    w_ops: np.ndarray              # (|G|, dB, dB)
    side: str                      # "A" | "B": which factor carries V U(f)
    route: str                     # "ordinary" | "projective" | "fallback"
    classification: str = GENERAL
    details: Mapping = field(default_factory=dict)
    warnings: tuple[str, ...] = ()
    # finest classified block structure of each orientation, keyed "A" | "B":
    # {"sizes", "classes", "classDims"}, shared by the candidates of a compile
    blocks: Mapping = field(default_factory=dict)

    def __post_init__(self):
        freeze(self, v=self.v, w_coeffs=self.w_coeffs, w_ops=self.w_ops, details=self.details,
               warnings=self.warnings, blocks=self.blocks)

    @property
    def unitary(self) -> BipartiteUnitary:
        return self.schmidt.unitary

    @property
    def group(self) -> FiniteGroup:
        return self.u_rep.group

    @property
    def factor(self) -> FactorSystem:
        return self.u_rep.factor

    @property
    def fallback(self) -> bool:
        return self.route == "fallback"

    @property
    def cost_ebits(self) -> float:
        """log2|G|, the entanglement one run of the protocol consumes."""
        return float(np.log2(self.group.order))

    @property
    def baseline_ebits(self) -> float:
        """The teleportation cost 2 log2 min(dA, dB)."""
        return float(2 * np.log2(min(self.unitary.dim_a, self.unitary.dim_b)))

    @property
    def savings_ebits(self) -> float:
        return self.baseline_ebits - self.cost_ebits

    @cached_property
    def residual(self) -> float:
        """Frobenius distance of the gate from reconstruct()."""
        return float(frobenius(self.unitary.matrix - self.reconstruct()))

    @cached_property
    def m(self) -> np.ndarray:
        """The correlation unitary M = sum_f R(f) (x) W(f) of the protocol, read-only."""
        return read_only(build_M(self.group, self.factor, self.w_ops))

    @cached_property
    def m_deviation(self) -> float:
        return unitarity_deviation(self.m)

    @property
    def m_unitary(self) -> bool:
        return bool(self.m_deviation <= M_UNITARY_TOL)

    @cached_property
    def branch_operators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arrays of simulate_protocol that no state changes, shared by
        every state: conj(F), Z(h) and V U(g)†, read-only."""
        return build_branch_operators(self)

    def reconstruct(self) -> np.ndarray:
        """sum_f [V U(f)] (x) W(f)."""
        return kron_sum(self.v @ self.u_rep.matrices, self.w_ops)


def construct_V(a_ops, bs: BlockStructure, tol: float = BLOCK_TOL) -> np.ndarray:
    """Unitary V making every V†A_k block diagonal in the bs basis, each class
    member's block content matching its representative's through the stored
    intertwiner. Raises SingularInputError when the A_k do not carry bs.
    """
    a_ops = np.asarray(a_ops, dtype=complex)
    s = bs.basis_change
    slices = bs.block_slices()
    parts = []
    for sl in slices:
        cols = (a_ops @ s[:, sl]).transpose(1, 0, 2).reshape(len(s), -1)
        parts.append(gram_schmidt(cols, expected_rank=sl.stop - sl.start))

    v_raw = np.hstack(parts)
    d_ops = dagger(v_raw) @ a_ops @ s
    for members, inter in bs.classes:
        rs = slices[members[0]]
        for m in members[1:]:
            t = inter[m]
            ms = slices[m]
            aligned = t @ d_ops[:, rs, rs] @ dagger(t)
            acc = np.add.reduce(d_ops[:, ms, ms] @ aligned.conj().transpose(0, 2, 1), axis=0)
            parts[m] = parts[m] @ polar_unitary(acc)

    v = np.hstack(parts) @ dagger(s)
    if not frobenius(dagger(v) @ v - np.eye(v.shape[0])) <= 100 * tol:
        raise SingularInputError(
            "block column spaces overlap; the operator set does not carry "
            "the claimed block structure")
    return v


def assemble_U(irreps, bs: BlockStructure, assignment) -> Representation:
    """Block diagonal representation with one irrep copy per block, of the
    group and factor system that the irreps carry; a class member's block is
    T U(f) T† with its stored intertwiner T. Raises AssignmentError when an
    irrep's dimension differs from its block's size.
    """
    slices = bs.block_slices()
    s = bs.basis_change
    group, factor = irreps[0].group, irreps[0].factor
    d = s.shape[0]
    mats = np.zeros((group.order, d, d), dtype=complex)
    for ci, (members, inter) in enumerate(bs.classes):
        rep_mats = irreps[assignment[ci]].matrices
        for m in members:
            sl = slices[m]
            if rep_mats.shape[1] != sl.stop - sl.start:
                raise AssignmentError(
                    "irrep of dimension %d assigned to a block of size %d"
                    % (rep_mats.shape[1], sl.stop - sl.start))
            t = inter[m]
            mats[:, sl, sl] = np.einsum("ab,fbc,dc->fad", t, rep_mats, np.conj(t))
    mats = np.einsum("ab,fbc,dc->fad", s, mats, np.conj(s))
    rep = Representation(group, factor, mats)
    rep.validate()
    return rep


def compute_W(v: np.ndarray, a_ops, bs: BlockStructure, irreps, assignment,
              tol: float = NUM_TOL) -> np.ndarray:
    """The W coefficients by irrep orthogonality: a (Schmidt rank, |G|) array,
    W(g) = sum_j coefficient[j, g] B_j, read off each class's representative
    block. Raises InconsistencyError when they fail to rebuild an assigned
    block to tol.
    """
    group = irreps[0].group
    n = group.order
    slices = bs.block_slices()
    a_ops = np.asarray(a_ops, dtype=complex)
    x = bs.transformed(dagger(v) @ a_ops)
    w_coeffs = np.zeros((len(a_ops), n), dtype=complex)
    # each class's irrep and representative blocks, zero-padded to one size
    d_max = max(bs.block_sizes)
    carried = np.zeros((len(bs.classes), n, d_max, d_max), dtype=complex)
    blocks = np.zeros((len(bs.classes), len(x), d_max, d_max), dtype=complex)
    for ci, (members, _) in enumerate(bs.classes):
        mats = irreps[assignment[ci]].matrices
        inv_mats = mats[group.inverses]
        rs = slices[members[0]]
        d_lam = mats.shape[1]
        size = rs.stop - rs.start
        carried[ci, :, :d_lam, :d_lam] = mats
        blocks[ci, :, :size, :size] = x[:, rs, rs]
        for j, xj in enumerate(x):
            w_coeffs[j] += (d_lam / n) * np.einsum("gab,ba->g", inv_mats, xj[rs, rs])

    # every (class, operator) block rebuilt at once; padding adds 0 to both norms
    errors = np.linalg.norm(np.einsum("jg,cgab->cjab", w_coeffs, carried) - blocks, axis=(2, 3))
    failed = ~(errors <= tol * np.maximum(1.0, np.linalg.norm(blocks, axis=(2, 3))))
    if failed.any():
        ci, j = np.argwhere(failed)[0]
        raise InconsistencyError(
            "coefficients fail to rebuild the block of class %d for "
            "operator %d" % (ci, j))
    return w_coeffs


def classify(exp: GroupExpansion, tol: float = NUM_TOL) -> tuple[str, dict]:
    """Structural class of an expansion, with its witness data.

    controlled-unitary: all U(f) commute; the gate becomes a sum of
    projector-controlled unitaries sum_m [V Q_m] (x) T_m, Q_m projecting
    onto a class of the structure basis's columns under character_classes
    and T_m = sum_f chi_m(f) W(f) with the characters of its first column.
    double-unitary: every W(f) is proportional to a unitary and the
    normalized W close under multiplication up to phases, mirroring the
    group structure on the other side. Anything else is general.
    """
    u_mats = exp.u_rep.matrices
    n = u_mats.shape[0]
    d_a = u_mats.shape[1]
    # one row of pairs (f, g > f) at a time, so a non-abelian group stops early
    commute = all(
        np.all(np.linalg.norm(u_mats[f] @ u_mats[f + 1:] - u_mats[f + 1:] @ u_mats[f],
                              axis=(1, 2)) <= 1e3 * tol * d_a)
        for f in range(n - 1))
    if commute:
        s = exp.structure.basis_change
        chars = np.einsum("fii->if", exp.structure.transformed(u_mats))   # per column, over f
        leads, label = np.unique(character_classes(chars), return_inverse=True)
        pis = np.zeros((len(leads), d_a, d_a), dtype=complex)
        pis[label, np.arange(d_a), np.arange(d_a)] = 1.0
        return CONTROLLED, {"projectors": s @ pis @ dagger(s),
                            "targets": np.einsum("kf,fab->kab", chars[leads], exp.w_ops)}

    w = exp.w_ops
    d_b = w.shape[1]
    grams = np.einsum("fba,fbc->fac", np.conj(w), w)
    scales = np.einsum("faa->f", grams).real / d_b
    if np.min(scales) > tol:
        dev = np.max(np.linalg.norm(grams - scales[:, None, None] * np.eye(d_b), axis=(1, 2)))
        if dev <= 1e3 * tol * max(1.0, float(np.max(scales)) * d_b):
            wt = w / np.sqrt(scales)[:, None, None]
            # anchoring at the identity mods out the local unitary the gauge hides in every W(f)
            anchored = np.einsum("ba,fbc->fac", np.conj(wt[exp.group.identity]), wt)
            prod = anchored[:, None] @ anchored           # [f, g] = W'(f) W'(g)
            target = anchored[exp.group.table]            # [f, g] = W'(fg)
            mu_b = np.trace(target.conj().swapaxes(2, 3) @ prod, axis1=2, axis2=3) / d_b
            closure = np.max(np.linalg.norm(prod - mu_b[:, :, None, None] * target, axis=(2, 3)))
            if closure <= 1e3 * tol * d_b and np.max(np.abs(np.abs(mu_b) - 1.0)) <= 1e-6:
                return DOUBLE, {"wFactorPhases": mu_b,
                                "wNorms": np.sqrt(scales)}
    return GENERAL, {}


def synthesize_group_gate(group: FiniteGroup, seed: int = 0) -> BipartiteUnitary:
    """Random bipartite unitary on |G| x d_B, d_B = max(2, ceil(sqrt|G|)), that
    the group implements exactly: the polar factor of sum_f R(f) (x) W0(f)
    over the regular representation for random W0(f). Raises
    InconsistencyError when the draw is too close to singular."""
    n = group.order
    d_b = max(2, math.isqrt(n - 1) + 1)
    rng = np.random.default_rng(seed)
    w0 = rng.normal(size=(n, d_b, d_b)) + 1j * rng.normal(size=(n, d_b, d_b))
    trivial = FactorSystem.trivial(n)
    m = polar_unitary(build_M(group, trivial, w0))
    e = group.identity
    w = m[e * d_b:(e + 1) * d_b].reshape(d_b, n, d_b).swapaxes(0, 1)
    if not frobenius(build_M(group, trivial, w) - m) <= 1e-9 * n * d_b:
        raise InconsistencyError(
            "polar factor left the translation algebra; the random draw was "
            "too close to singular")
    return BipartiteUnitary(m, n, d_b)


def _side_stream(label: str, floor: int, split, index: CatalogIndex,
                 allow_projective: bool, warnings: dict):
    """((order, is fallback, side), candidate) pairs of one side, cheapest
    first: a start marker at its floor, then the search's candidates over
    bs = split(), called once the merge pops the marker, then the fallback
    over C_d x C_d at order d², d = bs.dim, after a marker of its own key,
    so it is built only when the merge reaches it; markers carry None."""
    yield (floor, False, label), None
    bs = split()
    for cand in search_group(bs, index, allow_projective, warning_sink=warnings):
        yield (cand.order, False, label), cand
    yield (bs.dim ** 2, True, label), None
    yield (bs.dim ** 2, True, label), SearchCandidate(
        (index.fallback(bs.dim),), (0,), trivial_structure([bs.dim]), "fallback")


def _build(cand: SearchCandidate, dec: SchmidtDecomposition, side: str, warnings,
           tol: float, block_tol: float, blocks: dict) -> GroupExpansion:
    """The expansion a candidate assembles, classified at tol, with its warnings
    and blocks. The fallback keeps V = I: the shift/clock operators form an
    orthogonal operator basis, so its W coefficients are the trace overlaps
    Tr(P_f^dagger A_j) / d."""
    d_a = dec.unitary.dim_a
    if cand.route == "fallback":
        v, u_rep = np.eye(d_a, dtype=complex), cand.irreps[0]
        w_coeffs = np.einsum("fxy,jxy->jf", np.conj(u_rep.matrices), dec.a_ops) / d_a
    else:
        v = construct_V(dec.a_ops, cand.structure, tol=block_tol)
        u_rep = assemble_U(cand.irreps, cand.structure, cand.assignment)
        w_coeffs = compute_W(v, dec.a_ops, cand.structure, cand.irreps, cand.assignment, tol=tol)
    w_ops = np.einsum("jf,jab->fab", w_coeffs, dec.b_ops)
    exp = GroupExpansion(schmidt=dec, structure=cand.structure, v=v, u_rep=u_rep,
                         w_coeffs=w_coeffs, w_ops=w_ops, side=side, route=cand.route,
                         blocks=blocks)
    classification, details = classify(exp, tol=tol)
    own = list(dict.fromkeys(warnings))
    if exp.fallback:
        own.append(_fallback_warning(exp))
    return replace(exp, classification=classification, details=details, warnings=own)


_FELL_BACK = ("no admissible group found within the search bound; fell back to the "
              "generalized shift-and-phase expansion at ")


def _fallback_warning(exp: GroupExpansion) -> str:
    """The warning a fallback expansion carries last: _FELL_BACK and its cost,
    the teleportation cost unless |G| exceeds min(dA, dB)², as on a one-sided
    fallback."""
    if exp.group.order > min(exp.unitary.dim_a, exp.unitary.dim_b) ** 2:
        return _FELL_BACK + "%.3f ebits, above the teleportation cost of %.3f" % (
            exp.cost_ebits, exp.baseline_ebits)
    return _FELL_BACK + "the teleportation cost"


def compile_unitary(u: BipartiteUnitary, side: str = "both",
                    tol: float = NUM_TOL, seed: int = 0,
                    allow_projective: bool = True, max_order: int = 32,
                    extra=()) -> GroupExpansion:
    """Find the cheapest verified group expansion of a bipartite unitary.

    Searches side A, side B (the tensor factors swapped) or both. Each side
    offers its search candidates in ascending group order, then its
    generalized shift-and-phase fallback over C_d x C_d at order d², d its
    dimension; one stream merges them by (order, is fallback, side), and the
    first candidate that assembles, reproduces the gate and has a unitary M
    is the result. So the cost is minimal relative to the catalog,
    side="both" is never above the teleportation cost 2 log2 min(dA, dB),
    and the call never fails on a valid unitary. A fallback carries the
    warnings of every side, searched or not.

    The result's blocks summarize the finest block structures of both
    orientations at block tolerance min(10*tol, BLOCK_TOL); a side whose
    commutant holds only the scalars is one block of size d, split only
    when the search reaches it. Both sides search builtin_index(max_order,
    extra, seed), with the result a fresh index would give. A side other
    than A, B or both raises ValidationError.
    """
    if side not in ("A", "B", "both"):
        raise ValidationError("side must be A, B, or both")
    block_tol = min(10 * tol, BLOCK_TOL)
    index = builtin_index(max_order, extra, seed)
    decs = {"A": schmidt_decompose(u), "B": schmidt_decompose(u.swapped())}
    grams = {label: gram_set(dec) for label, dec in decs.items()}
    commutants = {label: commutant_basis(g) for label, g in grams.items()}
    split = cache(lambda label: finest_sbd(grams[label], tol=block_tol, seed=seed,
                                           commutant=commutants[label]))     # on first need
    finest = {label: trivial_structure([dec.unitary.dim_a]) if len(commutants[label]) == 1
              else split(label) for label, dec in decs.items()}
    blocks = read_only({label: {"sizes": bs.block_sizes, "classDims": bs.class_dims(),
                                "classes": [members for members, _ in bs.classes]}
                        for label, bs in finest.items()})
    warnings = {label: {} for label in (["A", "B"] if side == "both" else [side])}
    streams = [_side_stream(label, search_floor(finest[label]), partial(split, label), index,
                            allow_projective, sink) for label, sink in warnings.items()]
    for (order, fallback, label), cand in heapq.merge(*streams, key=lambda item: item[0]):
        if cand is None:
            continue    # a marker: the merge runs that side's search or builds its fallback
        dec = decs[label]
        if fallback:
            for other in warnings:  # a side not searched yet adds its first step's warnings
                if search_floor(finest[other]) > order:
                    next(search_group(split(other), index, allow_projective,
                                      warnings[other]), None)
        inherited = itertools.chain(*warnings.values()) if fallback else warnings[label]
        tried = f"order-{cand.order} candidate {cand.group.name}"
        try:
            exp = _build(cand, dec, label, inherited, tol, block_tol, blocks)
        except (SingularInputError, InconsistencyError, AssignmentError) as exc:
            warnings[label].setdefault(f"{tried} rejected: {exc}")
            continue
        if not exp.residual <= 1e-8:
            warnings[label].setdefault(f"{tried} left residual {exp.residual:.3e}")
        elif not exp.m_unitary:
            warnings[label].setdefault(
                f"{tried} rejected: M is not unitary (deviation {exp.m_deviation:.3e})")
        else:
            break
    else:
        raise InconsistencyError("not even the fallback expansion reproduces the gate "
                                 "with a unitary M")
    return exp
