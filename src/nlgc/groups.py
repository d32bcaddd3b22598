"""Finite groups as multiplication tables, factor systems, and the builtin catalog."""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, ValidationError

PHASE_TOL = 1e-9


@dataclass
class FiniteGroup:
    """Group given by its full multiplication table.

    table[f, g] is the element index of f*g. Construction verifies closure,
    identity, inverses and associativity.
    """

    name: str
    table: np.ndarray
    identity: int = field(init=False, default=0)
    inverses: np.ndarray = field(init=False, default=None)

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=int)
        n = self.table.shape[0]
        if self.table.shape != (n, n):
            raise ValidationError("multiplication table must be square")
        if self.table.min() < 0 or self.table.max() >= n:
            raise ValidationError("table entries must be element indices")
        idx = np.arange(n)
        ident = [e for e in range(n)
                 if np.array_equal(self.table[e], idx) and np.array_equal(self.table[:, e], idx)]
        if len(ident) != 1:
            raise ValidationError("table has no unique identity element")
        self.identity = ident[0]
        inv = np.full(n, -1, dtype=int)
        for f in range(n):
            hits = np.nonzero(self.table[f] == self.identity)[0]
            if hits.size != 1 or self.table[hits[0], f] != self.identity:
                raise ValidationError(f"element {f} has no two-sided inverse")
            inv[f] = hits[0]
        self.inverses = inv
        lhs = self.table[self.table, :]     # (f*g)*h
        rhs = self.table[:, self.table]     # f*(g*h)
        if not np.array_equal(lhs, rhs):
            f, g, h = (int(x) for x in np.argwhere(lhs != rhs)[0])
            raise ValidationError(
                f"associativity fails at triple ({f}, {g}, {h}): "
                f"({f}*{g})*{h} != {f}*({g}*{h})")

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def mult(self, f: int, g: int) -> int:
        return int(self.table[f, g])

    def inv(self, f: int) -> int:
        return int(self.inverses[f])

    def element_order(self, f: int) -> int:
        k, x = 1, f
        while x != self.identity:
            x = self.mult(x, f)
            k += 1
        return k

    @cached_property
    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    def center(self) -> list[int]:
        return [z for z in range(self.order)
                if np.array_equal(self.table[z, :], self.table[:, z])]

    def conjugacy_classes(self) -> list[list[int]]:
        seen = set()
        classes = []
        for x in range(self.order):
            if x in seen:
                continue
            orbit = {self.mult(self.mult(g, x), self.inv(g)) for g in range(self.order)}
            classes.append(sorted(orbit))
            seen |= orbit
        return classes

    def subgroup_closure(self, gens) -> list[int]:
        out = {self.identity}
        frontier = list(gens)
        out |= set(frontier)
        while frontier:
            nxt = []
            for x in frontier:
                for g in list(out):
                    for y in (self.mult(x, g), self.mult(g, x)):
                        if y not in out:
                            out.add(y)
                            nxt.append(y)
            frontier = nxt
        return sorted(out)

    def generating_set(self) -> list[int]:
        """Small generating set found greedily, preferring high-order elements."""
        gens: list[int] = []
        have = {self.identity}
        by_order = sorted(range(self.order), key=lambda x: (-self.element_order(x), x))
        for x in by_order:
            if len(have) == self.order:
                break
            if x not in have:
                gens.append(x)
                have = set(self.subgroup_closure(gens))
        return gens

    def element_orders(self) -> list[int]:
        return [self.element_order(x) for x in range(self.order)]

    def signature(self) -> tuple:
        """Cheap isomorphism invariant."""
        return (self.order,
                tuple(sorted(self.element_orders())),
                self.is_abelian,
                len(self.center()),
                tuple(sorted(len(c) for c in self.conjugacy_classes())))

    def to_dict(self) -> dict:
        return {"name": self.name, "order": self.order,
                "table": [int(x) for x in self.table.reshape(-1)],
                "identity": int(self.identity)}

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteGroup":
        try:
            name = data["name"]
            order = int(data["order"])
            flat = data["table"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"group record missing field: {exc}") from exc
        if len(flat) != order * order:
            raise ValidationError(
                f"table length {len(flat)} does not match order {order} squared")
        g = cls(name, np.array(flat, dtype=int).reshape(order, order))
        if "identity" in data and int(data["identity"]) != g.identity:
            raise ValidationError("declared identity does not match the table")
        return g


@dataclass
class FactorSystem:
    """Unit-modulus two-cocycle mu(f, g) attached to a group.

    root_order r > 0 means every phase is a power of exp(2*pi*i/r);
    0 means unconstrained.
    """

    phases: np.ndarray
    root_order: int = 0

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=complex)

    @classmethod
    def trivial(cls, order: int) -> "FactorSystem":
        return cls(np.ones((order, order), dtype=complex), root_order=1)

    @property
    def is_trivial(self) -> bool:
        return bool(np.allclose(self.phases, 1.0, atol=PHASE_TOL))

    def validate(self, group: FiniteGroup, tol: float = PHASE_TOL, strict: bool = True):
        """Check modulus, cocycle identity and normalization conventions.

        strict additionally requires mu(f, f^-1) = 1, the convention the rest
        of the pipeline relies on (it makes U(f^-1) = U(f)† exactly).
        """
        mu, t = self.phases, group.table
        n = group.order
        if mu.shape != (n, n):
            raise DimensionError("factor system size does not match the group")
        if not np.max(np.abs(np.abs(mu) - 1.0)) <= tol:
            raise ValidationError("factor system phases must have unit modulus")
        lhs = mu[:, :, None] * mu[t, :]
        rhs = mu[:, t] * mu[None, :, :]
        if not np.max(np.abs(lhs - rhs)) <= tol:
            raise ValidationError("cocycle identity fails")
        e = group.identity
        if not np.max(np.abs(np.concatenate((mu[e, :], mu[:, e])) - 1.0)) <= tol:
            raise ValidationError("factor system must be 1 on the identity")
        if strict:
            pairs = mu[np.arange(n), group.inverses]
            if not np.max(np.abs(pairs - 1.0)) <= tol:
                raise ValidationError("factor system must be 1 on inverse pairs")

    def exponents(self, r: int | None = None, tol: float = 1e-6) -> np.ndarray:
        """Integer table n(f, g) with mu = omega_r ** n."""
        r = r or self.root_order
        if not r:
            raise ValidationError("factor system has no root order")
        ang = np.angle(self.phases) * r / (2 * np.pi)
        n = np.mod(np.rint(ang).astype(int), r)
        if np.max(np.abs(np.exp(2j * np.pi * n / r) - self.phases)) > tol:
            raise ValidationError(f"phases are not all powers of omega_{r}")
        return n


def detect_root_order(phases: np.ndarray, max_r: int = 256, tol: float = 1e-8) -> int:
    """Smallest r with all phases in the r-th roots of unity, or 0."""
    for r in range(1, max_r + 1):
        n = np.mod(np.rint(np.angle(phases) * r / (2 * np.pi)).astype(int), r)
        if np.max(np.abs(np.exp(2j * np.pi * n / r) - phases)) <= tol:
            return r
    return 0


# ---------------------------------------------------------------- constructors

def cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup(f"C{n}", (idx[:, None] + idx[None, :]) % n)


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    na, nb = a.order, b.order
    ia, ib = np.divmod(np.arange(na * nb), nb)
    table = a.table[np.ix_(ia, ia)] * nb + b.table[np.ix_(ib, ib)]
    return FiniteGroup(name or f"{a.name}x{b.name}", table)


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n. Index k<n: r^k, k>=n: s r^(k-n)."""
    size = 2 * n
    table = np.zeros((size, size), dtype=int)
    for i in range(size):
        for j in range(size):
            flip_i, a = divmod(i, n)
            flip_j, b = divmod(j, n)
            if not flip_i and not flip_j:
                table[i, j] = (a + b) % n
            elif not flip_i and flip_j:
                table[i, j] = n + (b - a) % n
            elif flip_i and not flip_j:
                table[i, j] = n + (a + b) % n
            else:
                table[i, j] = (b - a) % n
    return FiniteGroup(f"D{n}", table)


def _perm_group(name: str, perms: list[tuple]) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(len(q)))]
    return FiniteGroup(name, table)


def symmetric(n: int) -> FiniteGroup:
    return _perm_group(f"S{n}", sorted(itertools.permutations(range(n))))


def alternating(n: int) -> FiniteGroup:
    def parity(p):
        swaps = 0
        q = list(p)
        for i in range(len(q)):
            while q[i] != i:
                j = q[i]
                q[i], q[j] = q[j], q[i]
                swaps += 1
        return swaps % 2
    perms = [p for p in sorted(itertools.permutations(range(n))) if parity(p) == 0]
    return _perm_group(f"A{n}", perms)


def quaternion() -> FiniteGroup:
    """Order 8 group of quaternion units {±1, ±i, ±j, ±k}."""
    units = "1ijk"
    rule = {("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
            ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")}
    elems = [(s, u) for s in (1, -1) for u in units]
    index = {e: i for i, e in enumerate(elems)}
    n = 8
    table = np.zeros((n, n), dtype=int)
    for a, (sa, ua) in enumerate(elems):
        for b, (sb, ub) in enumerate(elems):
            sign, unit = rule[(ua, ub)]
            table[a, b] = index[(sa * sb * sign, unit)]
    return FiniteGroup("Q8", table)


def heisenberg(d: int) -> FiniteGroup:
    """Upper triangular 3x3 matrices over Z_d, order d**3."""
    elems = list(itertools.product(range(d), repeat=3))
    index = {e: i for i, e in enumerate(elems)}
    n = d ** 3
    table = np.zeros((n, n), dtype=int)
    for i, (a, b, c) in enumerate(elems):
        for j, (x, y, z) in enumerate(elems):
            table[i, j] = index[((a + x) % d, (b + y) % d, (c + z + a * y) % d)]
    return FiniteGroup(f"Heis{d}", table)


def central_extension(g: FiniteGroup, n_table: np.ndarray, r: int,
                      name: str | None = None) -> FiniteGroup:
    """Group of pairs (m, f) with (l,f)(m,g) = (l+m+n(f,g) mod r, fg).

    n_table must be an integer cocycle normalized to 0 on the identity; the
    group axioms of the result are verified and fail for non-cocycles.
    """
    n_table = np.asarray(n_table, dtype=int)
    ng = g.order
    if n_table.shape != (ng, ng):
        raise DimensionError("exponent table size does not match the group")
    if r < 1 or ng % r != 0:
        raise ValidationError(f"root order {r} must divide the group order {ng}")
    size = r * ng
    lvl, elem = np.divmod(np.arange(size), ng)
    table = np.zeros((size, size), dtype=int)
    for i in range(size):
        for j in range(size):
            l, f = lvl[i], elem[i]
            m, gg = lvl[j], elem[j]
            table[i, j] = ((l + m + n_table[f, gg]) % r) * ng + g.table[f, gg]
    return FiniteGroup(name or f"Ext{r}({g.name})", table)


def quotient_by_central_cyclic(l: FiniteGroup, z: int):
    """Quotient of l by the central cyclic subgroup generated by z.

    Returns (quotient group, lift array, n table, r) where lift picks one
    fixed representative per coset (the identity coset lifts to the identity)
    and lift(f) lift(g) = z**n(f,g) lift(fg).
    """
    if z not in l.center():
        raise ValidationError("z must be central")
    r = l.element_order(z)
    powers = [l.identity]
    for _ in range(r - 1):
        powers.append(l.mult(powers[-1], z))
    coset_of = np.full(l.order, -1, dtype=int)
    reps = []
    for x in range(l.order):
        if coset_of[x] >= 0:
            continue
        members = sorted(l.mult(p, x) for p in powers)
        rep = l.identity if l.identity in members else members[0]
        k = len(reps)
        reps.append(rep)
        for m in members:
            coset_of[m] = k
    nq = len(reps)
    table = np.zeros((nq, nq), dtype=int)
    n_table = np.full((nq, nq), -1, dtype=int)
    for f in range(nq):
        for g in range(nq):
            prod = l.mult(reps[f], reps[g])
            k = coset_of[prod]
            table[f, g] = k
            for m in range(r):          # prod = z**m * reps[k]
                if l.mult(powers[m], reps[k]) == prod:
                    n_table[f, g] = m
                    break
    if (n_table < 0).any():
        raise ValidationError("coset decomposition failed, z is not central")
    q = FiniteGroup(f"{l.name}/<z{z}>", table)
    return q, np.array(reps, dtype=int), n_table, r


# ------------------------------------------------------------------ catalog

def are_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    """Isomorphism test by backtracking over generator images."""
    if g1.order != g2.order:
        return False
    if g1.signature() != g2.signature():
        return False
    gens = g1.generating_set()
    if not gens:
        return True  # trivial group
    orders1 = [g1.element_order(x) for x in gens]
    orders2 = g2.element_orders()

    # expression tree: every element as parent * generator
    expr = {g1.identity: None}
    frontier = [g1.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, gen in enumerate(gens):
                y = g1.mult(x, gen)
                if y not in expr:
                    expr[y] = (x, gi)
                    nxt.append(y)
        frontier = nxt

    candidates = [[y for y in range(g2.order) if orders2[y] == o] for o in orders1]
    build_order = [y for y in expr if expr[y] is not None]  # parents precede children

    for images in itertools.product(*candidates):
        phi = {g1.identity: g2.identity}
        for y in build_order:
            parent, gi = expr[y]
            phi[y] = g2.mult(phi[parent], images[gi])
        if len(set(phi.values())) != g1.order:
            continue
        if all(phi[g1.mult(a, b)] == g2.mult(phi[a], phi[b])
               for a in range(g1.order) for b in range(g1.order)):
            return True
    return False


def _abelian_products(max_order: int) -> list[FiniteGroup]:
    out = []
    for n1 in range(2, max_order + 1):
        for n2 in range(n1, max_order // n1 + 1):
            out.append(direct_product(cyclic(n1), cyclic(n2)))
            for n3 in range(n2, max_order // (n1 * n2) + 1):
                out.append(direct_product(direct_product(cyclic(n1), cyclic(n2)),
                                          cyclic(n3), name=f"C{n1}xC{n2}xC{n3}"))
    return out


def pauli_sixteen():
    """Order 16 extension generated by the qubit shift/clock pair with phases."""
    from .representations import pauli_projective_rep
    group, factor, _ = pauli_projective_rep(2)
    n_table = factor.exponents(4)
    return central_extension(group, n_table, 4, name="Pauli16")


def builtin_catalog(max_order: int = 32, extra=None) -> list[FiniteGroup]:
    """Standard group families up to max_order, deduplicated by isomorphism.

    Cyclic groups, abelian products of up to three cyclic factors, dihedral
    groups up to order 32, Q8, S3, A4, S4, Heisenberg groups over Z_2 and
    Z_3, and the order 16 Pauli extension. Isomorphic duplicates are removed
    exhaustively up to order 16 and by abelian invariants above that.
    """
    groups: list[FiniteGroup] = []
    groups.extend(cyclic(n) for n in range(1, max_order + 1))
    groups.extend(g for g in _abelian_products(max_order) if g.order <= max_order)
    for g in (symmetric(3), alternating(4), symmetric(4), quaternion()):
        if g.order <= max_order:
            groups.append(g)
    for n in range(3, 17):
        if 2 * n <= min(32, max_order):
            groups.append(dihedral(n))
    for d in (2, 3):
        if d ** 3 <= max_order:
            groups.append(heisenberg(d))
    if max_order >= 16:
        groups.append(pauli_sixteen())
    for g in (extra or []):
        if g.order <= max_order:
            groups.append(g)

    kept: list[FiniteGroup] = []
    for g in groups:
        dup = False
        for h in kept:
            if g.order != h.order:
                continue
            if g.order <= 16:
                if are_isomorphic(g, h):
                    dup = True
                    break
            elif g.is_abelian and h.is_abelian and g.signature() == h.signature():
                dup = True
                break
        if not dup:
            kept.append(g)
    kept.sort(key=lambda g: g.order)
    return kept


def load_group_file(path) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return FiniteGroup.from_dict(data)


def save_group_file(group: FiniteGroup, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(group.to_dict(), fh, indent=1)
        fh.write("\n")
