"""Unitary representations of finite groups, ordinary and projective.

Ordinary irreps are extracted numerically by block diagonalizing the
regular representation. Projective irreps come from the ordinary irreps of
a central extension, or are the shift/clock operators of C_d x C_d.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import freeze, weyl_operator_basis
from .errors import InconsistencyError, ValidationError
from .groups import FactorSystem, FiniteGroup, cyclic, direct_product, quotient_by_central_cyclic
from .sbd import _finest_split

REP_TOL = 1e-8      # block tolerance of the irrep split, unit modulus of read-off phases
CHAR_TOL = 1e-6     # equal characters; those of inequivalent irreps differ by >= sqrt(2) somewhere


@dataclass(frozen=True, eq=False)
class Representation:
    """Matrices U(f) with U(f) U(g) = mu(f, g) U(fg); matrices is made
    read-only at construction, and no attribute can be assigned, so a
    representation that a catalog index shares cannot change."""

    group: FiniteGroup
    factor: FactorSystem
    matrices: np.ndarray          # (order, d, d)

    def __post_init__(self):
        freeze(self, matrices=np.asarray(self.matrices))

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def validate(self, tol: float = 1e-8):
        """The twisted law, every U(f)U(g) from one GEMM, then unitarity; NaN fails."""
        m, n, d = self.matrices, self.group.order, self.dim
        products = m.reshape(n * d, d) @ m.transpose(1, 0, 2).reshape(d, n * d)
        targets = self.factor.phases[:, :, None, None] * m[self.group.table]
        if not np.max(np.abs(products.reshape(n, d, n, d) - targets.transpose(0, 2, 1, 3))) <= tol:
            raise ValidationError("matrices violate the twisted multiplication law")
        if not np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(d))) <= tol:
            raise ValidationError("representation matrices must be unitary")


def character_classes(chars: np.ndarray) -> np.ndarray:
    """For each row of a (k, |G|) character array, the first row whose
    characters agree with it within CHAR_TOL on every element: equal
    characters mean equivalent representations (Serre, Linear
    Representations of Finite Groups, §2.3), and a row leads its class
    when it is its own first row."""
    return np.argmax(np.max(np.abs(chars[:, None] - chars), axis=2) <= CHAR_TOL, axis=0)


def irreps_of(group: FiniteGroup, seed: int = 0) -> list[Representation]:
    """All inequivalent ordinary irreps of a group.

    Splits the regular representation R(f)|g> = |gf> restricted to a
    generating set, with the left translations L(h)|g> = |hg> as the basis
    of its commutant, and groups the resulting irreducible blocks by their
    characters: blocks whose characters agree within CHAR_TOL are
    equivalent. Classes keep the order of their first block and are sorted
    by size, as classify_equivalence sorts them (an irrep of dimension n
    fills n blocks, so no two classes of one size differ in length). Each
    class's first block S is evaluated on every group element as
    (S†R(f)S)[i, l] = sum_g conj S[g, i] S[gf, l]. All of these are read off
    the group table. The squared dimensions sum to the group order and the
    count matches the conjugacy classes.
    """
    table = group.table
    eye = np.eye(group.order, dtype=complex)
    gens = group.generating_set or (group.identity,)
    bs = _finest_split(eye[table[:, gens].T], tol=REP_TOL, seed=seed,
                       commutant=eye[:, table].transpose(1, 0, 2))

    s, slices = bs.basis_change, bs.block_slices()
    # chars[b, f] = sum over block b's columns i of (S†R(f)S)[i, i]
    chars = np.add.reduceat(np.einsum("gi,fgi->if", s.conj(), s[table.T]),
                            [sl.start for sl in slices])
    # a class is led by its first block; equal characters include the size chi(e)
    first = character_classes(chars)
    # an irrep of dim n fills n blocks of R, so classify_equivalence's (size, -#members) is size
    leads = sorted(np.flatnonzero(first == np.arange(len(first))), key=lambda b: bs.block_sizes[b])

    trivial = FactorSystem.trivial(group.order)
    firsts = [s[:, slices[b]] for b in leads]
    irreps = [Representation(group, trivial, np.einsum("gi,fgl->fil", q.conj(), q[table.T]))
              for q in firsts]

    total = sum(r.dim ** 2 for r in irreps)
    if total != group.order:
        raise InconsistencyError(
            f"irrep dimensions square-sum to {total}, expected {group.order}")
    for r in irreps:
        r.validate(tol=1e-7)
    if len(irreps) != len(group.conjugacy_classes):
        raise InconsistencyError("irrep count does not match conjugacy classes")
    return irreps


def irrep_dimensions(group: FiniteGroup) -> list[int]:
    """Dimensions of all irreps; abelian groups shortcut to ones."""
    if group.is_abelian:
        return [1] * group.order
    return sorted(r.dim for r in irreps_of(group))


def factor_phases_of(matrices: np.ndarray, group: FiniteGroup) -> np.ndarray:
    """Read the factor system off a projective representation's products."""
    products = np.einsum("fij,gjk->fgik", matrices, matrices)
    targets = matrices[group.table]
    mu = np.einsum("fgji,fgjk->fg", targets.conj(), products) / matrices.shape[1]
    if not np.max(np.abs(np.abs(mu) - 1.0)) <= REP_TOL:     # fails closed on NaN
        raise ValidationError("matrix set is not projective up to phases")
    return mu


def gauge_normalize(matrices_list: list[np.ndarray],
                    group: FiniteGroup) -> tuple[list[np.ndarray], FactorSystem]:
    """Rescale a family of same-factor projective reps to the standard gauge.

    After rescaling, mu is 1 whenever either argument is the identity or the
    arguments are mutual inverses, which makes U(f^-1) = U(f)† exactly. The
    factor system is read off the first input, whose U(e) must be I; all
    inputs must share it, which the callers check.
    """
    mu = factor_phases_of(matrices_list[0], group)
    f, inv = np.arange(group.order), group.inverses
    # of each pair f < f^-1, U(f) is kept and U(f^-1) scaled by 1/mu(f, f^-1)
    c = np.where(inv < f, 1.0 / mu[inv, f], 1.0 + 0j)
    c = np.where(inv == f, np.exp(-0.5j * np.angle(mu[f, f])), c)
    c[group.identity] = 1.0
    new_list = [mats * c[:, None, None] for mats in matrices_list]
    fs = FactorSystem(factor_phases_of(new_list[0], group))
    fs.validate(group)
    return new_list, fs


def central_irreps(irreps: list[Representation], z: int) -> list[Representation]:
    """The irreps, in order, representing a central z of order r as omega_r times the identity."""
    omega = np.exp(2j * np.pi / int(irreps[0].group.element_orders[z]))
    return [ir for ir in irreps
            if np.max(np.abs(ir.matrices[z] - omega * np.eye(ir.dim))) <= 1e-8]


def projective_irreps_from_extension(irreps: list[Representation], z: int):
    """Projective irreps of l/<z> from the ordinary irreps of an extension l.

    Evaluating the central_irreps of z, of order r, on fixed coset
    representatives yields projective irreps of the quotient whose factor
    system is omega_r ** n(f, g) with n from the lift. They are returned
    rescaled to the standard gauge, so U(f^-1) = U(f)†.

    Returns (quotient, irrep list).
    """
    quotient, lift, _, _ = quotient_by_central_cyclic(irreps[0].group, z)
    picked = [ir.matrices[lift] for ir in central_irreps(irreps, z)]
    if sum(p.shape[1] ** 2 for p in picked) != quotient.order:
        raise InconsistencyError(
            "projective irreps from the extension do not exhaust the quotient order")
    gauged, fs = gauge_normalize(picked, quotient)
    out = [Representation(quotient, fs, m) for m in gauged]
    for r in out:
        r.validate()
    return quotient, out


def pauli_projective_rep(dim: int) -> Representation:
    """Shift/clock projective representation of C_dim x C_dim, standard gauge.

    For dim = 2 these are the qubit Pauli operators up to signs.
    """
    group = direct_product(cyclic(dim), cyclic(dim))
    fixed, fs = gauge_normalize([weyl_operator_basis(dim)], group)
    rep = Representation(group, fs, fixed[0])
    rep.validate()
    return rep
