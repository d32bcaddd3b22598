"""Finite groups as multiplication tables, factor systems, and the builtin catalog."""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import freeze, read_only
from .errors import DimensionError, ValidationError, json_int, malformed

PHASE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Group given by its full multiplication table.

    table[f, g] is the element index of f*g. Construction checks that name
    is a string, then verifies closure, identity, inverses and associativity
    and seals a read-only copy of the table, so the invariants
    computed on first use and kept on the instance cannot go stale: the
    cached properties element_orders (a read-only int array, like inverses),
    is_abelian, center, conjugacy_classes, generating_set and signature
    (tuples). Like every value a compile shares, it is a frozen dataclass:
    assigning any attribute raises FrozenInstanceError, and a group under
    another name is dataclasses.replace(g, name=...).
    Equality and hashing are by identity: isomorphism is are_isomorphic.
    """

    name: str
    table: np.ndarray
    identity: int = field(init=False, default=0)
    inverses: np.ndarray = field(init=False, default=None)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValidationError(f"group name must be a string, not {self.name!r}")
        table = np.asarray(self.table)
        if table.dtype.kind not in "iu":
            raise ValidationError("table entries must be integer element indices")
        table = np.asarray(table, dtype=int)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValidationError("multiplication table must be square")
        if table.min() < 0 or table.max() >= n:
            raise ValidationError("table entries must be element indices")
        idx = np.arange(n)
        ident = np.flatnonzero((table == idx).all(1) & (table == idx[:, None]).all(0))
        if len(ident) != 1:
            raise ValidationError("table has no unique identity element")
        e = int(ident[0])
        hits = table == e
        inv = hits.argmax(1)
        bad = (hits.sum(1) != 1) | (table[inv, idx] != e)
        if bad.any():
            raise ValidationError(f"element {int(bad.argmax())} has no two-sided inverse")
        lhs = table[table, :]     # (f*g)*h
        rhs = table[:, table]     # f*(g*h)
        if not np.array_equal(lhs, rhs):
            f, g, h = (int(x) for x in np.argwhere(lhs != rhs)[0])
            raise ValidationError(
                f"associativity fails at triple ({f}, {g}, {h}): "
                f"({f}*{g})*{h} != {f}*({g}*{h})")
        freeze(self, table=table, identity=e, inverses=inv)

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @cached_property
    def element_orders(self) -> np.ndarray:
        """Order of every element, the first k with x**k = e: a read-only int array."""
        powers = [np.arange(self.order)]
        for _ in range(self.order - 1):
            powers.append(self.table[powers[-1], powers[0]])
        return read_only((np.array(powers) == self.identity).argmax(0) + 1)

    @cached_property
    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    @cached_property
    def center(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero((self.table == self.table.T).all(1)).tolist())

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        # column x of table[table, inverses[:, None]] holds g x g^-1 for every g;
        # a class is labelled by its smallest member, so classes come in order
        # of their first element
        label = self.table[self.table, self.inverses[:, None]].min(0)
        members = np.argsort(label, kind="stable")
        cuts = [0, *(np.flatnonzero(np.diff(label[members])) + 1).tolist(), self.order]
        members = members.tolist()
        return tuple(tuple(members[a:b]) for a, b in zip(cuts, cuts[1:]))

    def subgroup_closure(self, gens) -> list[int]:
        have = np.zeros(self.order, dtype=bool)
        have[[self.identity, *gens]] = True
        size = 0
        while size < have.sum():
            size = have.sum()
            have[self.table[np.ix_(have, have)]] = True
        return np.flatnonzero(have).tolist()

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """Small generating set found greedily, preferring high-order elements."""
        gens: list[int] = []
        have = {self.identity}
        for x in np.argsort(-self.element_orders, kind="stable").tolist():
            if len(have) == self.order:
                break
            if x not in have:
                gens.append(x)
                have = set(self.subgroup_closure(gens))
        return tuple(gens)

    @cached_property
    def signature(self) -> tuple:
        """Cheap isomorphism invariant."""
        return (self.order,
                tuple(sorted(self.element_orders.tolist())),
                self.is_abelian,
                len(self.center),
                tuple(sorted(len(c) for c in self.conjugacy_classes)))

    def to_dict(self) -> dict:
        return {"name": self.name, "order": self.order,
                "table": [int(x) for x in self.table.reshape(-1)],
                "identity": int(self.identity)}

    @classmethod
    @malformed("group record")
    def from_dict(cls, data: dict) -> "FiniteGroup":
        order, flat = json_int(data["order"], "order"), data["table"]
        if len(flat) != order * order:
            raise ValidationError(
                f"table length {len(flat)} does not match order {order} squared")
        g = cls(data["name"], np.reshape(flat, (order, order)))
        if "identity" in data and json_int(data["identity"], "identity") != g.identity:
            raise ValidationError("declared identity does not match the table")
        return g


@dataclass(frozen=True, eq=False)
class FactorSystem:
    """Unit-modulus two-cocycle mu(f, g) attached to a group; phases is
    made read-only at construction, and no attribute can be assigned, so
    root_order and is_trivial are computed once, on first read."""

    phases: np.ndarray

    def __post_init__(self):
        freeze(self, phases=np.asarray(self.phases, dtype=complex))

    @classmethod
    def trivial(cls, order: int) -> "FactorSystem":
        return cls(np.ones((order, order), dtype=complex))

    @cached_property
    def root_order(self) -> int:
        """Smallest r <= 256 with every phase within 1e-8 of an r-th root of
        unity, or 0 when there is none; 1 on a trivial factor system, whose
        phases are within PHASE_TOL of 1."""
        if self.is_trivial:
            return 1
        for r in range(1, 257):
            n = np.mod(np.rint(np.angle(self.phases) * r / (2 * np.pi)).astype(int), r)
            if np.max(np.abs(np.exp(2j * np.pi * n / r) - self.phases)) <= 1e-8:
                return r
        return 0

    @cached_property
    def is_trivial(self) -> bool:
        return bool(np.max(np.abs(self.phases - 1.0)) <= PHASE_TOL)    # False on NaN

    def validate(self, group: FiniteGroup):
        """Check unit modulus, the cocycle identity, and mu = 1 on the identity
        and on inverse pairs: mu(f, f^-1) = 1 makes U(f^-1) = U(f)† exactly."""
        mu, t = self.phases, group.table
        n = group.order
        if mu.shape != (n, n):
            raise DimensionError("factor system size does not match the group")
        if not np.max(np.abs(np.abs(mu) - 1.0)) <= PHASE_TOL:
            raise ValidationError("factor system phases must have unit modulus")
        lhs = mu[:, :, None] * mu[t, :]
        rhs = mu[:, t] * mu[None, :, :]
        if not np.max(np.abs(lhs - rhs)) <= PHASE_TOL:
            raise ValidationError("cocycle identity fails")
        e = group.identity
        if not np.max(np.abs(np.concatenate((mu[e, :], mu[:, e])) - 1.0)) <= PHASE_TOL:
            raise ValidationError("factor system must be 1 on the identity")
        pairs = mu[np.arange(n), group.inverses]
        if not np.max(np.abs(pairs - 1.0)) <= PHASE_TOL:
            raise ValidationError("factor system must be 1 on inverse pairs")


# ---------------------------------------------------------------- constructors

def _cyclic_product(factors) -> FiniteGroup:
    """C(n1) x C(n2) x ..., elements numbered in mixed radix as by direct_product."""
    digits = np.unravel_index(np.arange(math.prod(factors)), factors)
    table = np.ravel_multi_index([(d[:, None] + d) % n for d, n in zip(digits, factors)], factors)
    return FiniteGroup("x".join(f"C{n}" for n in factors), table)


def cyclic(n: int) -> FiniteGroup:
    return _cyclic_product((n,))


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order
    ia, ib = np.divmod(np.arange(na * nb), nb)
    table = a.table[np.ix_(ia, ia)] * nb + b.table[np.ix_(ib, ib)]
    return FiniteGroup(f"{a.name}x{b.name}", table)


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n. Index k<n: r^k, k>=n: s r^(k-n)."""
    flip, rot = np.divmod(np.arange(2 * n), n)
    # (s^fi r^a)(s^fj r^b) = s^(fi xor fj) r^(b + (-1)^fj a), since r^a s = s r^-a
    turn = (rot[None, :] + rot[:, None] * (1 - 2 * flip[None, :])) % n
    return FiniteGroup(f"D{n}", (flip[:, None] ^ flip[None, :]) * n + turn)


def _perm_group(name: str, perms: list[tuple]) -> FiniteGroup:
    """Group of lexicographically sorted permutations, (p*q)[k] = p[q[k]]."""
    p = np.array(perms, dtype=int).reshape(len(perms), -1)
    weights = p.shape[1] ** np.arange(p.shape[1])[::-1]   # sorted perms get sorted codes
    composed = p[np.arange(len(p))[:, None, None], p[None]]
    return FiniteGroup(name, np.searchsorted(p @ weights, composed @ weights))


def symmetric(n: int) -> FiniteGroup:
    return _perm_group(f"S{n}", sorted(itertools.permutations(range(n))))


def alternating(n: int) -> FiniteGroup:
    perms = np.array(sorted(itertools.permutations(range(n)))).reshape(-1, n)
    inversions = (perms[:, :, None] > perms[:, None, :]) & np.triu(np.ones((n, n), bool), 1)
    return _perm_group(f"A{n}", perms[inversions.sum((1, 2)) % 2 == 0])


def quaternion() -> FiniteGroup:
    """Order 8 group of quaternion units {±1, ±i, ±j, ±k}: element 4m + f is
    (-1)^m q_f, with q_f = 1, i, j, k over C2xC2 and q_f q_g = (-1)^n(f, g) q_fg."""
    n = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]]
    return central_extension(_cyclic_product((2, 2)), n, 2, name="Q8")


def heisenberg(d: int) -> FiniteGroup:
    """Upper triangular 3x3 matrices over Z_d, order d**3."""
    a, b, c = (x.ravel() for x in np.indices((d, d, d)))
    product = ((a[:, None] + a) % d, (b[:, None] + b) % d, (c[:, None] + c + a[:, None] * b) % d)
    return FiniteGroup(f"Heis{d}", np.ravel_multi_index(product, (d, d, d)))


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
    lvl, elem = np.divmod(np.arange(r * ng), ng)
    pairs = np.ix_(elem, elem)
    table = ((lvl[:, None] + lvl + n_table[pairs]) % r) * ng + g.table[pairs]
    return FiniteGroup(name or f"Ext{r}({g.name})", table)


def quotient_by_central_cyclic(l: FiniteGroup, z: int):
    """Quotient of l by the central cyclic subgroup generated by z.

    Returns (quotient group, lift array, n table, r) where lift picks one
    fixed representative per coset (the identity coset lifts to the identity)
    and lift(f) lift(g) = z**n(f,g) lift(fg).
    """
    if z not in l.center:
        raise ValidationError("z must be central")
    r, t = int(l.element_orders[z]), l.table
    powers = [l.identity]
    for _ in range(r - 1):
        powers.append(t[powers[-1], z])
    cosets = t[np.array(powers)[:, None], np.arange(l.order)]   # cosets[m, x] = z**m x
    reps, coset_of = np.unique(cosets.min(0), return_inverse=True)
    reps[coset_of[l.identity]] = l.identity
    level = np.empty(l.order, dtype=int)     # y = z**level[y] reps[coset_of[y]]
    level[cosets[:, reps]] = np.arange(r)[:, None]
    prod = t[reps[:, None], reps]
    return FiniteGroup(f"{l.name}/<z{z}>", coset_of[prod]), reps, level[prod], r


# ------------------------------------------------------------------ catalog

def are_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    """Isomorphism test by backtracking over generator images."""
    if g1.signature != g2.signature:     # its first entry is the order
        return False
    gens = g1.generating_set
    if not gens:
        return True  # trivial group
    n, t1, t2 = g1.order, g1.table, g2.table

    # expression tree, one level at a time: every element as parent * generator
    levels = []
    seen = {g1.identity}
    frontier = [g1.identity]
    while frontier:
        level = []
        for x in frontier:
            for gi, gen in enumerate(gens):
                y = int(t1[x, gen])
                if y not in seen:
                    seen.add(y)
                    level.append((y, x, gi))
        if level:
            levels.append(tuple(np.array(col) for col in zip(*level)))
        frontier = [y for y, _, _ in level]

    candidates = [np.flatnonzero(g2.element_orders == g1.element_orders[x]).tolist() for x in gens]
    phi = np.empty(n, dtype=int)
    phi[g1.identity] = g2.identity
    for images in itertools.product(*candidates):
        images = np.array(images)
        for ys, parents, gis in levels:
            phi[ys] = t2[phi[parents], images[gis]]
        if (np.bincount(phi, minlength=n).all()       # onto, so one-to-one
                and np.array_equal(phi[t1], t2[phi[:, None], phi])):
            return True
    return False


def _elementary_divisors(factors) -> tuple[int, ...]:
    """Prime-power parts of the orders of cyclic factors, sorted: two products
    of cyclic groups are isomorphic exactly when these agree."""
    parts = []
    for n in factors:
        p = 2
        while p * p <= n:    # smaller primes are divided out before a composite p
            q = 1
            while n % p == 0:
                n, q = n // p, q * p
            if q > 1:
                parts.append(q)
            p += 1
        if n > 1:            # no prime below its square root is left: n is prime
            parts.append(n)
    return tuple(sorted(parts))


def _abelian_factors(order: int) -> list[tuple[int, ...]]:
    """Factor orders of the products of one to three cyclic groups of this order,
    C(order) first, then by first and second factor, each above 1 and at least
    the one before, skipping any whose elementary divisors an earlier one has."""
    candidates = [(order,)] + [
        (n1, *rest) for n1 in range(2, math.isqrt(order) + 1) if order % n1 == 0
        for rest in [(n2, order // n1 // n2) for n2 in range(n1, math.isqrt(order // n1) + 1)
                     if order // n1 % n2 == 0] + [(order // n1,)]]
    first: dict[tuple, tuple] = {}
    for factors in candidates:
        first.setdefault(_elementary_divisors(factors), factors)
    return list(first.values())


def pauli_sixteen():
    """Order 16 extension of C2xC2 by the phases of the qubit Pauli operators
    U = I, Z, X, -Y in standard gauge: U(f) U(g) = i^n(f, g) U(fg)."""
    n = [[0, 0, 0, 0], [0, 0, 3, 1], [0, 1, 0, 3], [0, 3, 1, 0]]
    return central_extension(_cyclic_product((2, 2)), n, 4, name="Pauli16")


# (order, make, *args) of the non-abelian builtins; an order's entries keep this order
_NONABELIAN = ((6, symmetric, 3), (12, alternating, 4), (24, symmetric, 4), (8, quaternion),
               *((2 * n, dihedral, n) for n in range(4, 17)), (27, heisenberg, 3),
               (16, pauli_sixteen))


def catalog_groups(order: int, extra=()) -> list[FiniteGroup]:
    """The catalog's groups of one order, built, in catalog order: the
    products of cyclic groups of _abelian_factors(order), one per
    isomorphism class with no isomorphism search (D3 = S3 and Heis2 = D4 are
    not generated either); the non-abelian builtins S3, Q8, A4, S4, D4 to
    D16, Heis3 and Pauli16 of this order (8: Q8, D4; 12: A4, D6; 16: D8,
    Pauli16; 24: S4, D12); each extra of this order that are_isomorphic
    (signatures first) finds equal to no group before it."""
    out = [_cyclic_product(f) for f in _abelian_factors(order)]
    out += [make(*args) for n, make, *args in _NONABELIAN if n == order]
    for g in extra:
        if g.order == order and not any(are_isomorphic(g, h) for h in out):
            out.append(g)
    return out


def builtin_catalog(max_order: int = 32, extra=()) -> list[FiniteGroup]:
    """catalog_groups(order, extra) of every order from 1 to max_order, in turn."""
    return [g for order in range(1, max_order + 1) for g in catalog_groups(order, extra)]


def load_group_file(path) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh, malformed("group file"):
        data = json.load(fh)
    return FiniteGroup.from_dict(data)


def save_group_file(group: FiniteGroup, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(group.to_dict(), fh, indent=1)
        fh.write("\n")
