"""Search for the smallest group whose irrep dimensions fit a block structure.

Candidates are generated in ascending group order. At each order, ordinary
representations of catalog groups are tried before projective ones obtained
through central extensions, and coarser block-merge plans only become
eligible once the order reaches their dimension-square sum.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .groups import FiniteGroup, are_isomorphic, catalog_groups
from .representations import (Representation, central_irreps, irreps_of,
                              pauli_projective_rep, projective_irreps_from_extension)
from .sbd import BlockStructure, merge_blocks

MERGE_ENUMERATION_CAP = 8


@dataclass(frozen=True, eq=False)
class SearchCandidate:
    """One (group, factor system, irrep assignment) proposal; frozen.

    assignment[i] indexes into irreps, which carry the group and its factor
    system, for the i-th equivalence class of structure; route records how
    the candidate was found.
    """

    irreps: tuple[Representation, ...]
    assignment: tuple[int, ...]
    structure: BlockStructure
    route: str                       # "ordinary" | "projective" | "fallback"

    @property
    def group(self) -> FiniteGroup:
        return self.irreps[0].group

    @property
    def factor(self):
        return self.irreps[0].factor

    @property
    def order(self) -> int:
        return self.group.order


def set_partitions(items: list) -> list[list[list]]:
    """All partitions of items, deterministic order, singletons-first."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for sub in set_partitions(rest):
        out.append([[first]] + sub)
        for i in range(len(sub)):
            out.append(sub[:i] + [[first] + sub[i]] + sub[i + 1:])
    return out


def trivial_structure(dims: list[int]) -> BlockStructure:
    """Identity-basis structure with one block and one class per dimension."""
    total = sum(dims)
    classes = [([i], {i: np.eye(d, dtype=complex)}) for i, d in enumerate(dims)]
    return BlockStructure(np.eye(total, dtype=complex), dims, classes)


def search_floor(structure: BlockStructure) -> int:
    """Σ (class dim)², the finest plan's cost: no candidate has a smaller order."""
    return sum(d * d for d in structure.class_dims())


def merge_plans(structure: BlockStructure) -> list[tuple[int, list[list[int]]]]:
    """(cost, plan) pairs sorted by cost, then fineness, then parts; a plan
    lists its parts sorted, each part's block indices ascending. The cost is
    the search_floor that merge_blocks(structure, plan) would have, read off
    the block sizes and classes alone: a class keeps its dimension while one
    of its blocks stays a singleton part, and each fused part is a class of
    its own. Enumerates every partition of the block list up to
    MERGE_ENUMERATION_CAP blocks; beyond that only the finest and the fully
    merged plans are kept.
    """
    sizes = structure.block_sizes
    n = len(sizes)
    if n <= MERGE_ENUMERATION_CAP:
        plans = set_partitions(list(range(n)))
    else:
        plans = [[[i] for i in range(n)], [list(range(n))]]
    class_of = {m: k for k, (members, _) in enumerate(structure.classes) for m in members}
    class_dims = structure.class_dims()
    keyed = []
    for plan in plans:
        parts = sorted([sorted(p) for p in plan], key=lambda p: p[0])
        kept = {class_of[p[0]] for p in parts if len(p) == 1}
        cost = (sum(class_dims[k] ** 2 for k in kept)
                + sum(sum(sizes[b] for b in p) ** 2 for p in parts if len(p) > 1))
        keyed.append((cost, -len(parts), tuple(tuple(p) for p in parts), parts))
    keyed.sort(key=lambda t: t[:3])
    return [(cost, parts) for cost, _, _, parts in keyed]


def _assign(required: list[int], irreps: list[Representation]) -> tuple[int, ...] | None:
    """Match each required dim to the first unused irrep of that dimension;
    None when the irreps do not cover the required dims."""
    free = list(range(len(irreps)))
    out = []
    for d in required:
        i = next((i for i in free if irreps[i].dim == d), None)
        if i is None:
            return None
        free.remove(i)
        out.append(i)
    return tuple(out)


def _group_sort_key(catalog_index: int, g: FiniteGroup) -> tuple:
    n_irreps = g.order if g.is_abelian else len(g.conjugacy_classes)
    return (not g.is_abelian, n_irreps, catalog_index)


class CatalogIndex:
    """The catalog up to max_order with the extras it keeps, each entry built
    when first asked for: a new index holds none.

    What the index hands out can be shared by any number of searches: groups
    and representations are frozen, and irrep lists are tuples. An entry is
    stored only once it is fully built, by one setdefault, so searches
    running at once may build an entry twice but all read the first stored.
    """

    def __init__(self, max_order: int = 32, extra=(), seed: int = 0):
        self.max_order, self.extra, self.seed = max_order, tuple(extra), seed
        self._entries: dict[tuple, object] = {}     # (kind, key) -> entry

    def _entry(self, key: tuple, build):
        if key not in self._entries:
            self._entries.setdefault(key, build())
        return self._entries[key]

    def groups(self, order: int) -> tuple[FiniteGroup, ...]:
        """catalog_groups(order, extra) sorted by _group_sort_key, a group's
        catalog position breaking ties; empty above max_order."""
        if order > self.max_order:
            return ()
        return self._entry(("groups", order), lambda: tuple(g for _, g in sorted(
            enumerate(catalog_groups(order, self.extra)), key=lambda t: _group_sort_key(*t))))

    def irreps(self, g: FiniteGroup) -> tuple[Representation, ...]:
        """Ordinary irreps of a group."""
        return self._entry(("irreps", g), lambda: tuple(irreps_of(g, seed=self.seed)))

    def central(self, l: FiniteGroup, z: int) -> tuple[Representation, ...]:
        """central_irreps(irreps(l), z), in that order."""
        return self._entry(("central", (l, z)), lambda: tuple(central_irreps(self.irreps(l), z)))

    def projective(self, l: FiniteGroup, z: int):
        """(quotient, irreps) of l/<z> in the standard gauge; the quotient, and
        so the group of each irrep, is named after the first isomorphic
        catalog group of its order."""
        return self._entry(("projective", (l, z)), lambda: self._catalog_named(
            *projective_irreps_from_extension(self.irreps(l), z)))

    def _catalog_named(self, quotient: FiniteGroup, irreps) -> tuple:
        for known in self.groups(quotient.order):
            if are_isomorphic(quotient, known):
                quotient = replace(quotient, name=known.name)
                return quotient, tuple(replace(ir, group=quotient) for ir in irreps)
        return quotient, tuple(irreps)

    def fallback(self, dim: int) -> Representation:
        """The shift/clock representation of C_dim x C_dim, pauli_projective_rep(dim)."""
        return self._entry(("fallback", dim), lambda: pauli_projective_rep(dim))


_builtin: CatalogIndex | None = None      # the one slot of builtin_index


def builtin_index(max_order: int, extra, seed: int) -> CatalogIndex:
    """The process-wide CatalogIndex(max_order, extra, seed) that every
    compile_unitary call searches: created on first use, so importing nlgc
    builds nothing. It has one slot, keyed on all three values (extras by
    identity), so a request with other values replaces it with a fresh
    index; a search that holds the old one keeps it."""
    global _builtin
    index, extra = _builtin, tuple(extra)
    if index is None or (index.max_order, index.extra, index.seed) != (max_order, extra, seed):
        index = _builtin = CatalogIndex(max_order, extra, seed)
    return index


def search_group(structure: BlockStructure, index: CatalogIndex,
                 allow_projective: bool = True, warning_sink: dict | None = None):
    """Yield SearchCandidate objects in ascending order of group order.

    The class dimensions of structure, the finest block structure, are the
    irrep dimensions a candidate must supply; its block-level detail drives
    the merge plans, each merged once, when the walk first reaches it.
    Ordinary candidates precede projective ones at equal order; merged
    plans participate once the order reaches their cost. Any class
    of dimension 1 forces an ordinary representation for that plan, and a
    non-abelian extension is filled only if its irreps at z cover the classes.
    Orders run from search_floor(structure) to d_A², d_A = structure.dim, the
    fallback's order, which compile_unitary ranks after them; warning_sink,
    when given, collects the catalog-gap warnings as its keys, once each in
    first-seen order, including those found after the last yield.
    """
    n_start = search_floor(structure)
    plans = [(n_start, [[b] for b in range(len(structure.block_sizes))])]   # any merge costs more
    merged_plans: dict[tuple, BlockStructure] = {}     # plan -> its merge, once reached
    warnings: dict[str, None] = warning_sink if warning_sink is not None else {}
    seen_projective = set()
    for n in range(max(n_start, 1), structure.dim ** 2 + 1):
        if n > index.max_order:
            warnings.setdefault(f"catalog has no group of order {n}")
        if n == n_start + 1:
            plans = merge_plans(structure)
        for n0, plan in plans:
            if n0 > n:
                break
            plan_key = tuple(tuple(p) for p in plan)
            if plan_key not in merged_plans:
                merged_plans[plan_key] = merge_blocks(structure, plan)
            merged = merged_plans[plan_key]
            required = merged.class_dims()
            if any(n % d for d in required):
                continue

            # every group also has the trivial irrep: dims >= 2 fit only above n0
            for g in index.groups(n) if min(required) == 1 or n0 < n else ():
                if g.is_abelian and max(required) > 1:
                    continue        # every irrep of an abelian group is 1-dim
                irreps = index.irreps(g)
                assignment = _assign(required, irreps)
                if assignment is not None:
                    yield SearchCandidate(irreps, assignment, merged, "ordinary")

            if not allow_projective or min(required) < 2:
                continue
            for r in range(2, n + 1):
                if n % r:
                    continue
                if r * n > index.max_order:
                    warnings.setdefault(f"catalog has no group of order {r * n} "
                                        f"for central extensions over order {n}")
                    continue
                for l in index.groups(r * n):
                    if l.is_abelian:
                        continue    # its projective irreps are all 1-dim
                    for z in l.center:
                        if l.element_orders[z] != r:
                            continue
                        # the projective irreps are these central irreps, in this order
                        assignment = _assign(required, index.central(l, z))
                        if assignment is None:
                            continue
                        quotient, irreps = index.projective(l, z)
                        key = (plan_key, quotient.table.tobytes(),
                               np.round(irreps[0].factor.phases, 10).tobytes())
                        if key in seen_projective:
                            continue
                        seen_projective.add(key)
                        yield SearchCandidate(irreps, assignment, merged, "projective")
