"""Group search ordering, merge plans, and candidate integrity."""
import functools
import math
from dataclasses import fields

import numpy as np
import pytest
from conftest import relabelled

import nlgc.search
from nlgc.groups import (builtin_catalog, catalog_groups, cyclic, dihedral, direct_product,
                         symmetric)
from nlgc.representations import central_irreps, irreps_of
from nlgc.sbd import BlockStructure, merge_blocks
from nlgc.search import (CatalogIndex, SearchCandidate, _assign, _group_sort_key, merge_plans,
                         search_floor, search_group, set_partitions, trivial_structure)


def test_set_partitions_of_three_items():
    parts = set_partitions([0, 1, 2])
    assert len(parts) == 5  # Bell number B(3)
    canon = {tuple(tuple(sorted(p)) for p in sorted(pp, key=min)) for pp in parts}
    assert ((0,), (1,), (2,)) in canon
    assert ((0, 1, 2),) in canon


def _square_sums(total, smallest=2):
    """Every non-decreasing list of dims >= smallest whose squares sum to total."""
    if total == 0:
        return [[]]
    return [[d] + rest for d in range(smallest, math.isqrt(total) + 1)
            for rest in _square_sums(total - d * d, d)]


def test_no_group_has_irreps_of_dims_two_and_up_whose_squares_sum_to_its_order():
    # the trivial irrep takes one of the order's squares, so search_group
    # skips the ordinary groups of such an order
    checked = 0
    for g in builtin_catalog(16):
        if g.is_abelian:
            continue
        irreps = irreps_of(g)
        for dims in _square_sums(g.order):
            assert _assign(dims, irreps) is None
            checked += 1
    assert checked >= 8     # Q8, D4, A4, D6, and D8 and Pauli16 twice


def test_merge_plans_cost_ordering():
    # dims {1, 2}: finest plan costs 1 + 4 = 5, full fusion costs 9
    bs = trivial_structure([1, 2])
    plans = merge_plans(bs)
    costs = [c for c, _ in plans]
    assert costs == sorted(costs)
    assert costs[0] == 5
    assert costs[-1] == 9


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


@pytest.mark.parametrize("n", range(len(BELL)))
def test_merge_plans_list_every_partition_once_in_order(n):
    sizes = [1 + k % 3 for k in range(n)]     # unequal sizes give cost ties
    plans = merge_plans(trivial_structure(sizes))
    keys = [tuple(tuple(part) for part in plan) for _, plan in plans]
    assert len(plans) == BELL[n]
    assert len(set(keys)) == len(keys)
    for cost, plan in plans:
        assert sorted(b for part in plan for b in part) == list(range(n))
        assert all(part == sorted(part) for part in plan)
        assert [part[0] for part in plan] == sorted(part[0] for part in plan)
        # each block of a trivial structure is its own class
        assert cost == sum(sum(sizes[b] for b in part) ** 2 for part in plan)
    order = [(cost, -len(plan), key) for (cost, plan), key in zip(plans, keys)]
    assert order == sorted(order)


def test_merge_plans_carry_each_merged_structure_at_its_floor():
    # two equivalent 2-blocks: a plan that fuses one of them keeps the class
    # of the other, so the class rule of merge_blocks decides the cost
    structure = _two_equivalent_blocks()
    sizes = structure.block_sizes
    plans = merge_plans(structure)
    assert len(plans) == 5
    for cost, plan in plans:
        merged = merge_blocks(structure, plan)
        fused = [part for part in plan if len(part) > 1]
        absorbed = {b for part in fused for b in part}
        kept = [members for members, _ in structure.classes
                if any(m not in absorbed for m in members)]
        assert cost == search_floor(merged) == (
            sum(sizes[members[0]] ** 2 for members in kept)
            + sum(sum(sizes[b] for b in part) ** 2 for part in fused))


def test_a_search_walk_merges_each_plan_once(monkeypatch):
    # the finest plan when the walk starts, then every other plan of
    # merge_plans once, when the walk first reaches it; no order merges again
    structure = trivial_structure([1, 2])
    n_plans = len(merge_plans(structure))
    calls = []

    def counting(*args):
        calls.append(args)
        return merge_blocks(*args)
    monkeypatch.setattr(nlgc.search, "merge_blocks", counting)
    cands = list(search_group(structure, CatalogIndex()))
    assert {c.structure.block_sizes[0] for c in cands} == {1, 3}     # both plans yield
    assert len(calls) == n_plans


def test_a_search_merges_only_the_plans_its_walk_reaches(monkeypatch):
    # eight 1-blocks, each its own class, have 4,140 merge plans; up to
    # order 11 the walk reaches the finest (cost 8) and the 28 plans that
    # fuse two blocks (cost 6 + 4 = 10), and merges each of them once
    structure = trivial_structure([1] * 8)
    calls = []

    def counting(bs, plan):
        calls.append(plan)
        return merge_blocks(bs, plan)
    monkeypatch.setattr(nlgc.search, "merge_blocks", counting)
    for cand in search_group(structure, CatalogIndex()):
        if cand.order > 10:
            break
    assert cand.order == 11
    reached = [plan for cost, plan in merge_plans(structure) if cost <= 11]
    assert len(merge_plans(structure)) == 4140 and len(reached) == 29
    assert calls == reached


def test_a_candidate_reads_its_group_off_its_irreps():
    assert "group" not in {f.name for f in fields(SearchCandidate)}
    cands = list(search_group(trivial_structure([1, 2]), CatalogIndex()))
    assert {c.route for c in cands} == {"ordinary", "projective"}
    for cand in cands:
        assert cand.group is cand.irreps[0].group
        assert cand.factor is cand.irreps[0].factor


def test_the_catalog_index_keys_its_memos_by_group(monkeypatch):
    # each kind of entry is built once per key, and a repeated call returns
    # the stored object itself
    builds = []

    def counted(name):
        build = getattr(nlgc.search, name)
        return lambda *args, **kw: builds.append((name, args[:2])) or build(*args, **kw)
    for name in ("catalog_groups", "irreps_of", "central_irreps",
                 "projective_irreps_from_extension", "pauli_projective_rep"):
        monkeypatch.setattr(nlgc.search, name, counted(name))
    index = CatalogIndex(8)
    groups = index.groups(8)
    assert [g.name for g in groups] == ["C8", "C2xC2xC2", "C2xC4", "Q8", "D4"]
    assert index.groups(8) is groups and index.groups(9) == ()
    for g in groups:
        assert index.irreps(g) is index.irreps(g)
    q8 = groups[3]
    z = next(z for z in q8.center if q8.element_orders[z] == 2)
    for _ in range(2):
        central, (quotient, irreps) = index.central(q8, z), index.projective(q8, z)
        assert index.central(q8, z) is central and index.projective(q8, z)[1] is irreps
        assert index.fallback(3) is index.fallback(3)
    assert all(ir.group is quotient for ir in irreps)
    assert quotient.name == "C2xC2" and index.groups(4)[-1].name == "C2xC2"
    keys = [(name, tuple(a if isinstance(a, int) else id(a) for a in args))
            for name, args in builds]
    assert len(keys) == len(set(keys))
    assert sorted({name for name, _ in keys}) == [
        "catalog_groups", "central_irreps", "irreps_of", "pauli_projective_rep",
        "projective_irreps_from_extension"]


def test_the_catalog_index_picks_the_central_irreps_of_an_extension_once(monkeypatch):
    calls = []

    def counted(irreps, z):
        calls.append((irreps[0].group, z))
        return central_irreps(irreps, z)
    monkeypatch.setattr(nlgc.search, "central_irreps", counted)
    index, qubit = CatalogIndex(8), trivial_structure([2])
    first = [(c.group.name, c.assignment) for c in search_group(qubit, index)]
    picked = list(calls)
    again = [(c.group.name, c.assignment) for c in search_group(qubit, index)]
    # the extensions of order 8 over order 4, D4 and Q8, each picked once
    assert first == again and calls == picked and len(set(picked)) == len(picked) > 0
    for l, z in picked:
        assert index.central(l, z) is index.central(l, z)
        assert index.central(l, z) == tuple(central_irreps(index.irreps(l), z))


@pytest.mark.parametrize("max_order", [12, 32, 64])
def test_an_index_sorts_the_catalog_groups_of_each_order(max_order):
    # groups(n) is builtin_catalog's order-n groups sorted by _group_sort_key,
    # and empty above max_order
    index, catalog = CatalogIndex(max_order), builtin_catalog(max_order)
    for n in range(1, 2 * max_order + 1):
        of_n = [g for g in catalog if g.order == n]
        expected = [g for _, g in sorted(enumerate(of_n), key=lambda t: _group_sort_key(*t))]
        assert ([(g.name, g.table.tobytes()) for g in index.groups(n)]
                == [(g.name, g.table.tobytes()) for g in expected]), n


def test_an_extra_above_the_bound_is_never_searched(monkeypatch):
    c3s3 = direct_product(cyclic(3), symmetric(3))
    assert c3s3 in CatalogIndex(18, [c3s3]).groups(18)     # kept within the bound
    asked = []

    def recording(order, extra):
        asked.append(order)
        return catalog_groups(order, extra)
    monkeypatch.setattr(nlgc.search, "catalog_groups", recording)
    sink = {}
    cands = list(search_group(trivial_structure([1] * 5), CatalogIndex(16, [c3s3]),
                              allow_projective=False, warning_sink=sink))
    assert cands and max(c.order for c in cands) <= 16 and max(asked) == 16
    assert "catalog has no group of order 18" in sink


def test_an_extra_isomorphic_to_a_builtin_is_dropped():
    index = CatalogIndex(8, [relabelled(dihedral(4), "D4alias")])
    assert [g.name for g in index.groups(8)] == ["C8", "C2xC2xC2", "C2xC4", "Q8", "D4"]


def test_two_singlet_classes_start_at_order_two():
    cands = list(search_group(trivial_structure([1, 1]), CatalogIndex()))
    assert cands, "search found nothing"
    first = cands[0]
    assert first.order == 2
    assert first.group.name == "C2"
    assert first.route == "ordinary"
    assert first.factor.is_trivial
    # orders never decrease along the stream
    orders = [c.order for c in cands]
    assert orders == sorted(orders)


def test_single_class_dim_one_is_the_trivial_group():
    cands = list(search_group(trivial_structure([1]), CatalogIndex()))
    assert cands[0].order == 1
    assert cands[0].group.name == "C1"


def test_single_two_dim_class_needs_a_projective_rep():
    cands = list(search_group(trivial_structure([2]), CatalogIndex()))
    assert cands
    first = cands[0]
    assert first.order == 4
    assert first.route == "projective"
    assert not first.factor.is_trivial
    assert [ir.dim for ir in first.irreps] == [2]
    # the factor system squares to one on the diagonal: root order divides 4
    assert first.factor.root_order in (2, 4)
    for ir in first.irreps:
        ir.validate()


def test_ordinary_candidates_come_before_projective_at_each_order():
    seen = {}
    for cand in search_group(trivial_structure([1, 1]), CatalogIndex(8)):
        seen.setdefault(cand.order, []).append(cand.route)
    for order, routes in seen.items():
        if "ordinary" in routes and "projective" in routes:
            assert routes.index("projective") > routes.index("ordinary")


def test_assignments_respect_class_dimensions():
    for cand in search_group(trivial_structure([1, 2]), CatalogIndex(12)):
        dims = [cand.irreps[i].dim for i in cand.assignment]
        sizes = cand.structure.class_dims()
        assert dims == sizes
        # no irrep is used twice
        assert len(set(cand.assignment)) == len(cand.assignment)


def test_merged_plans_unlock_larger_blocks():
    # two 1-dim classes can fuse into one 2-dim class served by a
    # projective rep at order 4; the extension group lives at order 8, so
    # the catalog bound must reach that far for the fused plan to appear
    routes = set()
    for cand in search_group(trivial_structure([1, 1]), CatalogIndex(8)):
        routes.add((cand.order, len(cand.structure.classes), cand.route))
    assert (2, 2, "ordinary") in routes
    assert any(n == 4 and k == 1 and r == "projective" for n, k, r in routes)


def test_extension_scaffolding_respects_the_catalog_bound():
    # with the catalog capped at order 4 no order-8 extension exists, so the
    # fused projective candidate disappears and a warning marks the gap
    sink = {}
    cands = list(search_group(trivial_structure([1, 1]), CatalogIndex(4),
                              warning_sink=sink))
    assert all(c.route == "ordinary" for c in cands)
    assert any("order 8" in w for w in sink)


def test_missing_catalog_order_produces_warning():
    sink = {}
    cands = list(search_group(trivial_structure([1, 1, 1]), CatalogIndex(2),
                              allow_projective=False, warning_sink=sink))
    assert cands == []
    assert list(sink) == [f"catalog has no group of order {n}" for n in range(3, 10)]


def test_search_exhausts_cleanly_when_nothing_fits():
    # order 4 holds only abelian groups, whose irreps are all 1-dim
    cands = list(search_group(trivial_structure([2]), CatalogIndex(4),
                              allow_projective=False))
    assert cands == []


def test_cost_floor_matches_dimension_squares():
    # required {1, 1, 2} needs at least order 6; S3 fits exactly
    cands = list(search_group(trivial_structure([1, 1, 2]), CatalogIndex(12)))
    assert cands
    assert cands[0].order == 6
    assert cands[0].group.name == "S3"


def _reference_search(structure, d_a, index, allow_projective=True, warning_sink=None):
    """search_group as an exhaustive walk: every merge plan at every order,
    and a projective fill of every (extension, central element) pair."""
    plans = merge_plans(structure)
    n_start = plans[0][0]
    warnings = warning_sink if warning_sink is not None else {}
    seen_projective = set()
    for n in range(max(n_start, 1), d_a ** 2 + 1):
        if n > index.max_order:
            warnings.setdefault(f"catalog has no group of order {n}")
        for n0, plan in plans:
            if n0 > n:
                continue
            plan_key = tuple(tuple(p) for p in plan)
            merged = merge_blocks(structure, plan)
            required = merged.class_dims()
            if any(n % d for d in required):
                continue
            for g in index.groups(n):
                if g.is_abelian and max(required) > 1:
                    continue
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
                    for z in l.center:
                        if l.element_orders[z] != r:
                            continue
                        quotient, irreps = index.projective(l, z)
                        assignment = _assign(required, irreps)
                        if assignment is None:
                            continue
                        key = (plan_key, quotient.table.tobytes(),
                               np.round(irreps[0].factor.phases, 10).tobytes())
                        if key in seen_projective:
                            continue
                        seen_projective.add(key)
                        yield SearchCandidate(irreps, assignment, merged, "projective")


def _two_equivalent_blocks():
    """Blocks of sizes 1, 2, 2 where the two 2-blocks form one class."""
    eye2 = np.eye(2, dtype=complex)
    classes = [([0], {0: np.eye(1, dtype=complex)}), ([1, 2], {1: eye2, 2: eye2})]
    return BlockStructure(np.eye(5, dtype=complex), [1, 2, 2], classes)


EQUIVALENCE_STRUCTURES = {
    **{str(dims): (lambda dims=dims: trivial_structure(dims))
       for dims in ([1], [2], [3], [4], [2, 2], [2, 1], [3, 3])},
    "[1, 2, 2] with one 2-class": _two_equivalent_blocks,
}
SEARCH_SETTINGS = {"catalog 32": (32, True), "catalog 12": (12, True),
                   "ordinary only": (32, False)}


@functools.lru_cache(maxsize=None)
def _indexes(max_order):
    """Separate reference and change indexes, shared by every structure."""
    return CatalogIndex(max_order), CatalogIndex(max_order)


def _trace(candidates):
    return [(c.order, c.group.name, c.route, c.assignment, c.structure.block_sizes,
             c.factor.phases.tobytes()) for c in candidates]


def _assert_search_matches_walk(name, setting, index):
    max_order, allow_projective = SEARCH_SETTINGS[setting]
    ref_index = _indexes(max_order)[0]
    structure = EQUIVALENCE_STRUCTURES[name]()
    ref_warnings, warnings = {}, {}
    expected = _trace(_reference_search(structure, structure.dim, ref_index,
                                        allow_projective, ref_warnings))
    got = _trace(search_group(structure, index, allow_projective, warnings))
    assert got == expected
    assert list(warnings) == list(ref_warnings)     # the same messages in the same order


@pytest.mark.parametrize("setting", SEARCH_SETTINGS)
@pytest.mark.parametrize("name", EQUIVALENCE_STRUCTURES)
def test_search_yields_what_the_exhaustive_walk_yields(name, setting):
    _assert_search_matches_walk(name, setting, _indexes(SEARCH_SETTINGS[setting][0])[1])


@pytest.mark.parametrize("setting", SEARCH_SETTINGS)
@pytest.mark.parametrize("name", EQUIVALENCE_STRUCTURES)
def test_lazily_filled_index_yields_what_the_exhaustive_walk_yields(name, setting):
    # a fresh index builds each order when this search first reaches it
    index = CatalogIndex(SEARCH_SETTINGS[setting][0])
    _assert_search_matches_walk(name, setting, index)


def test_abelian_extensions_give_only_one_dim_projective_irreps():
    index = _indexes(32)[0]
    for order in range(1, index.max_order + 1):
        for g in index.groups(order):
            if g.is_abelian:
                for z in g.center:
                    _, irreps = index.projective(g, z)
                    assert [ir.dim for ir in irreps] == [1] * (order // g.element_orders[z])
