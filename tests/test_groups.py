"""Finite group construction, isomorphism testing, catalog hygiene."""
import hashlib
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from conftest import relabelled

from nlgc import groups
from nlgc.errors import ValidationError
from nlgc.expansion import compile_unitary
from nlgc.groups import (FactorSystem, FiniteGroup, alternating, are_isomorphic,
                         builtin_catalog, central_extension,
                         cyclic, dihedral,
                         direct_product, heisenberg, load_group_file,
                         quaternion, quotient_by_central_cyclic,
                         save_group_file, symmetric)
from nlgc.schmidt import BipartiteUnitary
from nlgc.search import CatalogIndex

C4_TABLE = np.array([[0, 1, 2, 3],
                     [1, 2, 3, 0],
                     [2, 3, 0, 1],
                     [3, 0, 1, 2]])


def test_cyclic_four_table_by_hand():
    g = cyclic(4)
    np.testing.assert_array_equal(g.table, C4_TABLE)
    assert g.identity == 0
    assert list(g.inverses) == [0, 3, 2, 1]
    assert g.element_orders[1] == 4 and g.element_orders[2] == 2


def test_group_axioms_are_enforced():
    bad = C4_TABLE.copy()
    bad[3, 3] = 3  # breaks both associativity and the latin square property
    with pytest.raises(ValidationError):
        FiniteGroup("broken", bad)


BAD_TABLES = {
    "not square": ([[0, 1]], "must be square"),
    "entry out of range": ([[0, 1], [1, 2]], "must be element indices"),
    "no identity": ([[0, 0], [0, 0]], "no unique identity"),
    "missing inverse": ([[0, 1], [1, 1]], "element 1 has no two-sided inverse"),
    # identity 0, every element its own inverse, but (1*1)*2 = 2 != 0 = 1*(1*2)
    "non-associative": ([[0, 1, 2], [1, 0, 1], [2, 2, 0]], r"associativity fails at triple"),
}


@pytest.mark.parametrize("table, message", BAD_TABLES.values(), ids=BAD_TABLES.keys())
def test_bad_tables_name_the_broken_axiom(table, message):
    with pytest.raises(ValidationError, match=message):
        FiniteGroup("broken", np.array(table))


def test_table_is_frozen_but_the_callers_array_is_not():
    mine = C4_TABLE.copy()
    g = FiniteGroup("C4", mine)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1
    with pytest.raises(ValueError):
        g.inverses[1] = 1
    mine[0, 0] = 3
    assert g.table[0, 0] == 0 and g.conjugacy_classes == ((0,), (1,), (2,), (3,))


@pytest.mark.parametrize("name", ["table", "identity", "inverses", "element_orders",
                                  "is_abelian", "center", "conjugacy_classes",
                                  "generating_set", "signature"])
def test_only_the_name_of_a_group_can_be_reassigned(name):
    # a group is a frozen dataclass: no attribute, the name included, can be
    # assigned; a group under another name is a replaced copy
    g = dihedral(4)
    value = g.table.T if name == "table" else (3 if name == "identity" else (0,))
    with pytest.raises(FrozenInstanceError):
        setattr(g, name, value)
    assert are_isomorphic(g, dihedral(4)) and g.signature == dihedral(4).signature
    with pytest.raises(FrozenInstanceError):
        g.name = "D4alias"
    with pytest.raises(ValidationError, match="must be a string"):
        replace(g, name=7)
    alias = replace(g, name="D4alias")
    assert (alias.name, g.name) == ("D4alias", "D4")
    assert alias.table.tobytes() == g.table.tobytes() and not alias.table.flags.writeable


def test_group_equality_is_identity_and_never_raises():
    g, twin = cyclic(4), cyclic(4)
    assert g == g and g != twin
    assert g in [twin, g] and g not in [twin]
    assert len({g, twin, g}) == 2


def test_symmetric_three_structure():
    g = symmetric(3)
    assert g.order == 6
    assert not g.is_abelian
    assert len(g.center) == 1
    assert sorted(g.element_orders.tolist()) == [1, 2, 2, 2, 3, 3]
    assert len(g.conjugacy_classes) == 3


def test_quaternion_element_orders():
    g = quaternion()
    assert g.order == 8
    assert sorted(g.element_orders.tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(g.center) == 2


def test_dihedral_and_alternating_sizes():
    assert dihedral(6).order == 12
    assert not dihedral(3).is_abelian
    a4 = alternating(4)
    assert a4.order == 12
    assert len(a4.conjugacy_classes) == 4


def test_isomorphism_separates_same_order_groups():
    assert are_isomorphic(direct_product(cyclic(2), cyclic(3)), cyclic(6))
    assert not are_isomorphic(direct_product(cyclic(2), cyclic(2)), cyclic(4))
    assert not are_isomorphic(dihedral(4), quaternion())
    assert are_isomorphic(dihedral(3), symmetric(3))


def test_heisenberg_over_z2_is_a_known_order_eight_group():
    h = heisenberg(2)
    assert h.order == 8
    assert not h.is_abelian
    assert are_isomorphic(h, dihedral(4)) or are_isomorphic(h, quaternion())


def test_catalog_covers_every_order_and_has_no_duplicates():
    cat = builtin_catalog(32)
    orders = {g.order for g in cat}
    assert orders == set(range(1, 33))
    for i, g1 in enumerate(cat):
        for g2 in cat[i + 1:]:
            if g1.order != g2.order:
                continue
            if g1.is_abelian and g2.is_abelian:
                # a finite abelian group is fixed by how many elements have each order
                assert g1.signature != g2.signature, (g1.name, g2.name)
            else:
                assert not are_isomorphic(g1, g2), (g1.name, g2.name)


CATALOG_32 = """
    C1 C2 C3 C4 C2xC2 C5 C6 S3 C7 C8 C2xC2xC2 C2xC4 Q8 D4 C9 C3xC3 C10 D5 C11
    C12 C2xC2xC3 A4 D6 C13 C14 D7 C15 C16 C2xC2xC4 C2xC8 C4xC4 D8 Pauli16 C17
    C18 C2xC3xC3 D9 C19 C20 C2xC2xC5 D10 C21 C22 D11 C23 C24 C2xC2xC6 C2xC3xC4
    S4 D12 C25 C5xC5 C26 D13 C27 C3xC3xC3 C3xC9 Heis3 C28 C2xC2xC7 D14 C29 C30
    D15 C31 C32 C2xC2xC8 C2xC4xC4 C2xC16 C4xC8 D16""".split()
# names and int64 tables of builtin_catalog(64), in catalog order
CATALOG_64_SHA256 = "3a62414a750bfcceb34f04c8b13f90a2fc755c7a202e43a31076d6a73f927570"


def catalog_digest(catalog) -> str:
    h = hashlib.sha256()
    for g in catalog:
        h.update(g.name.encode())
        h.update(g.table.tobytes())
    return h.hexdigest()


def test_catalog_names_and_tables_are_pinned():
    assert [g.name for g in builtin_catalog(32)] == CATALOG_32
    full = builtin_catalog(64)
    assert catalog_digest(full) == CATALOG_64_SHA256
    for n in range(1, 33):
        prefix = [g for g in full if g.order <= n]
        assert catalog_digest(builtin_catalog(n)) == catalog_digest(prefix), n


def test_builtin_catalog_runs_no_isomorphism_search(monkeypatch):
    def refuse(g1, g2):
        raise AssertionError(f"are_isomorphic({g1.name}, {g2.name}) called")
    monkeypatch.setattr("nlgc.groups.are_isomorphic", refuse)
    assert catalog_digest(builtin_catalog(64)) == CATALOG_64_SHA256


def test_catalog_recipe_knows_every_order_and_builds_no_group(monkeypatch):
    # the index took the recipe's place: it knows every order up to its
    # bound when made, and builds a group only when an order is asked for
    orders = [g.order for g in builtin_catalog(64)]
    monkeypatch.setattr(FiniteGroup, "__post_init__", None)     # any build fails
    index = CatalogIndex(64)
    monkeypatch.undo()
    assert [n for n in range(1, 66) for _ in index.groups(n)] == orders
    assert index.groups(65) == ()


def test_a_recipe_lists_an_order_the_same_under_any_bound():
    def entries(index, top):
        return [(g.name, g.table.tobytes()) for n in range(1, top + 1) for g in index.groups(n)]
    assert entries(CatalogIndex(16), 16) == entries(CatalogIndex(32), 16)
    assert entries(CatalogIndex(64), 64) == entries(CatalogIndex(4096), 64)


def test_a_recipe_enumerates_only_the_orders_an_index_reaches(fresh_builtin_index,
                                                              monkeypatch):
    # a compile enumerates the abelian products of each order its search
    # reaches, once, whatever the bound
    asked = []

    def recording(order):
        asked.append(order)
        return abelian_factors(order)
    abelian_factors = groups._abelian_factors
    monkeypatch.setattr(groups, "_abelian_factors", recording)
    CatalogIndex(4096)
    assert asked == []
    cnot = BipartiteUnitary(np.eye(4)[[0, 1, 3, 2]], 2, 2)
    reached = []
    for max_order in (32, 4096):
        asked.clear()
        assert compile_unitary(cnot, max_order=max_order).group.name == "C2"
        reached.append(list(asked))
    assert reached[0] == reached[1] and len(set(asked)) == len(asked) and max(asked) <= 16


def test_isomorphic_extras_are_dropped_at_every_order():
    c3s3 = direct_product(cyclic(3), symmetric(3))
    extra = [relabelled(dihedral(9), "D9alias"), c3s3, relabelled(c3s3, "C3xS3alias"),
             relabelled(direct_product(cyclic(2), cyclic(16)), "C2xC16alias"),
             relabelled(dihedral(4), "D4alias")]
    names = [g.name for g in builtin_catalog(32, extra=extra)]
    assert [n for n in names if "alias" in n or n == "C3xS3"] == ["C3xS3"]
    assert names[names.index("D9") + 1] == "C3xS3"    # an extra follows the builtins of its order
    assert names == [g.name for g in builtin_catalog(32, extra=extra[1:2])]


def test_catalog_respects_max_order_and_extras():
    cat = builtin_catalog(6)
    assert max(g.order for g in cat) == 6
    extra = replace(cyclic(5), name="C5alias")
    merged = builtin_catalog(6, extra=[extra])
    # isomorphic extras are dropped rather than duplicated
    assert sum(1 for g in merged if g.order == 5) == 1


def test_central_extension_and_quotient_round_trip():
    # C4 as a central extension of C2 by C2: n_table marks the wraparound
    c2 = cyclic(2)
    n_table = np.array([[0, 0], [0, 1]])
    ext = central_extension(c2, n_table, 2)
    assert ext.order == 4
    assert are_isomorphic(ext, cyclic(4))
    z = [x for x in ext.center if x != ext.identity and ext.element_orders[x] == 2]
    quot, lifts, n_back, r = quotient_by_central_cyclic(ext, z[0])
    assert quot.order == 2 and r == 2
    # lift identity: lift(f) lift(g) = z^n(f,g) lift(fg)
    for f in range(quot.order):
        for g in range(quot.order):
            prod = ext.table[lifts[f], lifts[g]]
            zpow = ext.identity
            for _ in range(n_back[f, g]):
                zpow = ext.table[zpow, z[0]]
            assert prod == ext.table[zpow, lifts[quot.table[f, g]]]


def test_group_file_round_trip(tmp_path):
    g = dihedral(5)
    path = tmp_path / "d5.json"
    save_group_file(g, path)
    back = load_group_file(path)
    assert back.name == g.name
    np.testing.assert_array_equal(back.table, g.table)


def test_group_file_rejects_bad_records(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "order": 2, "table": [0, 1, 1, 1]}')
    with pytest.raises(ValidationError):
        load_group_file(path)


@pytest.mark.parametrize("text", ['{"name": "x", "order": 2,', "not json", "\udcff"],
                         ids=["truncated", "not-json", "not-utf8"])
def test_group_file_that_is_not_json_raises_a_validation_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ValidationError, match="^malformed group file: "):
        load_group_file(path)


@pytest.mark.parametrize("where", ["everywhere", "one entry"])
def test_nan_factor_system_fails_validation(where):
    group = direct_product(cyclic(2), cyclic(2))
    phases = np.ones((4, 4), dtype=complex)
    if where == "everywhere":
        phases[:] = np.nan
    else:
        phases[1, 2] = np.nan
    with pytest.raises(ValidationError):
        FactorSystem(phases).validate(group)


def test_a_factor_system_is_trivial_only_within_the_phase_tolerance():
    # allclose's default rtol of 1e-5 once let a 5e-6 drift count as trivial
    assert FactorSystem.trivial(3).is_trivial
    assert not FactorSystem(np.full((2, 2), np.exp(5e-6j))).is_trivial
    phases = np.ones((2, 2), dtype=complex)
    phases[1, 1] = np.nan
    assert not FactorSystem(phases).is_trivial


def _elementary_divisors_loop(factors):
    """_elementary_divisors as it read before the square-root stop: every p up to n."""
    parts = []
    for n in factors:
        for p in range(2, n + 1):
            q = 1
            while n % p == 0:
                n, q = n // p, q * p
            if q > 1:
                parts.append(q)
    return tuple(sorted(parts))


def test_abelian_factors_equal_the_full_trial_division(monkeypatch):
    fast = {n: groups._abelian_factors(n) for n in range(1, 65)}
    monkeypatch.setattr(groups, "_elementary_divisors", _elementary_divisors_loop)
    for n, factors in fast.items():
        assert factors == groups._abelian_factors(n), n


def test_the_root_order_of_a_factor_system_is_read_off_its_phases():
    # root_order is derived, not stored: a factor system holds its phases only
    assert [f.name for f in fields(FactorSystem)] == ["phases"]
    assert FactorSystem.trivial(3).root_order == 1
    w = np.exp(2j * np.pi / 3)
    assert FactorSystem(np.array([[1, w], [w * w, 1]])).root_order == 3
    assert FactorSystem(np.array([[1, -1j], [1j, -1]])).root_order == 4
    assert FactorSystem(np.array([[1, np.exp(1j)], [1, 1]])).root_order == 0


# ------------------------------------------------ reference definitions
# Plain-Python versions of the table-indexed invariants, on table.tolist().

def ref_identity_inverses(t):
    n = len(t)
    e = next(e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n)))
    return e, [next(y for y in range(n) if t[x][y] == e) for x in range(n)]


def ref_orders(t, e):
    orders = []
    for x in range(len(t)):
        k, y = 1, x
        while y != e:
            y, k = t[y][x], k + 1
        orders.append(k)
    return orders


def ref_center(t):
    return [z for z in range(len(t)) if all(t[z][x] == t[x][z] for x in range(len(t)))]


def ref_classes(t, inv):
    seen, classes = set(), []
    for x in range(len(t)):
        if x not in seen:
            orbit = {t[t[g][x]][inv[g]] for g in range(len(t))}
            classes.append(sorted(orbit))
            seen |= orbit
    return classes


def ref_generating_set(t, e, orders):
    gens, have = [], {e}
    for x in sorted(range(len(t)), key=lambda x: (-orders[x], x)):
        if len(have) == len(t):
            break
        if x not in have:
            gens.append(x)
            while True:                       # close {e} and gens under products
                grown = have | set(gens) | {t[a][b] for a in have for b in gens}
                if grown == have:
                    break
                have = grown
    return gens


def ref_signature(t, orders, center, classes):
    abelian = all(t[a][b] == t[b][a] for a in range(len(t)) for b in range(len(t)))
    return (len(t), tuple(sorted(orders)), abelian, len(center),
            tuple(sorted(len(c) for c in classes)))


def ref_quotient(t, e, z, r):
    powers = [e]
    for _ in range(r - 1):
        powers.append(t[powers[-1]][z])
    coset_of, reps = {}, []
    for x in range(len(t)):
        if x not in coset_of:
            members = sorted(t[p][x] for p in powers)
            reps.append(e if e in members else members[0])
            coset_of.update((m, len(reps) - 1) for m in members)
    table = [[coset_of[t[a][b]] for b in reps] for a in reps]
    n_table = [[next(m for m in range(r) if t[powers[m]][reps[coset_of[t[a][b]]]] == t[a][b])
                for b in reps] for a in reps]
    return table, reps, n_table


def reached_quotients(catalog):
    """(l, z, r) for every l/<z> a projective search over orders <= 16 reaches:
    z central of order r, r dividing the quotient order |l|/r."""
    out = []
    for l in catalog:
        t = l.table.tolist()
        orders = ref_orders(t, ref_identity_inverses(t)[0])
        out += [(l, z, orders[z]) for z in ref_center(t)
                if orders[z] > 1 and l.order % orders[z] ** 2 == 0
                and l.order // orders[z] <= 16]
    return out


def assert_matches_reference(g):
    t = g.table.tolist()
    e, inv = ref_identity_inverses(t)
    orders, center, classes = ref_orders(t, e), ref_center(t), ref_classes(t, inv)
    assert (g.identity, g.inverses.tolist()) == (e, inv), g.name
    assert g.element_orders.tolist() == orders, g.name
    assert g.center == tuple(center), g.name
    assert g.conjugacy_classes == tuple(map(tuple, classes)), g.name
    assert g.generating_set == tuple(ref_generating_set(t, e, orders)), g.name
    assert g.signature == ref_signature(t, orders, center, classes), g.name


def test_group_invariants_are_read_only_and_match_the_table():
    for g in builtin_catalog(32):
        for name in ("inverses", "element_orders", "center", "conjugacy_classes",
                     "generating_set", "signature"):
            value = getattr(g, name)
            assert isinstance(value, tuple) or not value.flags.writeable, (g.name, name)
        assert g.element_orders.dtype.kind == "i"
        assert all(isinstance(c, tuple) for c in g.conjugacy_classes), g.name
        with pytest.raises(ValueError):
            g.element_orders[0] = 2
        assert_matches_reference(g)


def test_invariants_and_quotients_match_the_reference_definitions():
    catalog = builtin_catalog(32)
    # order-8 groups relabelled x -> 7 - x, so the identity is the last element
    relabelled = [FiniteGroup(g.name + "'", 7 - g.table[::-1, ::-1])
                  for g in catalog if g.order == 8]
    for g in catalog + relabelled:
        assert_matches_reference(g)
    reached = reached_quotients(catalog + relabelled)
    assert len(reached) == 246 + 13
    for l, z, r in reached:
        quotient, lift, n_table, r_out = quotient_by_central_cyclic(l, z)
        table, reps, n_ref = ref_quotient(l.table.tolist(), l.identity, z, r)
        assert (quotient.table.tolist(), lift.tolist(), n_table.tolist(), r_out) == (
            table, reps, n_ref, r), quotient.name
        assert_matches_reference(quotient)


# The catalog group each reached quotient l/<z> is isomorphic to, per l in
# catalog order and z in center order; catalog groups of one order up to 16
# are pairwise non-isomorphic.
QUOTIENT_CLASSES = {
    "C4": "C2",
    "C2xC2": "C2 C2 C2",
    "C8": "C4",
    "C2xC2xC2": "C2xC2 C2xC2 C2xC2 C2xC2 C2xC2 C2xC2 C2xC2",
    "C2xC4": "C2xC2 C4 C4",
    "Q8": "C2xC2",
    "D4": "C2xC2",
    "C9": "C3 C3",
    "C3xC3": "C3 C3 C3 C3 C3 C3 C3 C3",
    "C12": "C6",
    "C2xC2xC3": "C6 C6 C6",
    "D6": "S3",
    "C16": "C4 C8 C4",
    "C2xC2xC4": "C2xC2 C2xC2xC2 C2xC2 C2xC4 C2xC2 C2xC4 C2xC2 C2xC4 C2xC2 "
                "C2xC4 C2xC2 C2xC4 C2xC2 C2xC4 C2xC2",
    "C2xC8": "C2xC2 C2xC4 C2xC2 C8 C4 C8 C4",
    "C4xC4": "C4 C2xC4 C4 C4 C4 C4 C4 C2xC4 C4 C2xC4 C4 C4 C4 C4 C4",
    "D8": "D4",
    "Pauli16": "C2xC2 C2xC2xC2 C2xC2",
    "C18": "C6 C6",
    "C2xC3xC3": "C6 C6 C6 C6 C6 C6 C6 C6",
    "C20": "C10",
    "C2xC2xC5": "C10 C10 C10",
    "D10": "D5",
    "C24": "C12",
    "C2xC2xC6": "C2xC2xC3 C2xC2xC3 C2xC2xC3 C2xC2xC3 C2xC2xC3 C2xC2xC3 C2xC2xC3",
    "C2xC3xC4": "C2xC2xC3 C12 C12",
    "D12": "D6",
    "C25": "C5 C5 C5 C5",
    "C5xC5": " ".join(["C5"] * 24),
    "C27": "C9 C9",
    "C3xC3xC3": " ".join(["C3xC3"] * 26),
    "C3xC9": "C3xC3 C3xC3 C9 C9 C9 C9 C9 C9",
    "Heis3": "C3xC3 C3xC3",
    "C28": "C14",
    "C2xC2xC7": "C14 C14 C14",
    "D14": "D7",
    "C32": "C8 C16 C8",
    "C2xC2xC8": "C2xC2xC2 C2xC2xC4 C2xC2xC2 C2xC8 C2xC4 C2xC8 C2xC4 C2xC8 "
                "C2xC4 C2xC8 C2xC4 C2xC8 C2xC4 C2xC8 C2xC4",
    "C2xC4xC4": "C2xC4 C2xC2xC4 C2xC4 C2xC4 C2xC4 C2xC4 C2xC4 C2xC2xC4 C2xC4 "
                "C2xC2xC4 C2xC4 C2xC4 C2xC4 C2xC4 C2xC4 C4xC4 C2xC4 C4xC4 "
                "C2xC4 C2xC4 C2xC4 C2xC4 C2xC4 C4xC4 C2xC4 C4xC4 C2xC4 C2xC4 "
                "C2xC4 C2xC4 C2xC4",
    "C2xC16": "C2xC4 C2xC8 C2xC4 C16 C8 C16 C8",
    "C4xC8": "C2xC4 C4xC4 C2xC4 C8 C8 C8 C8 C2xC8 C2xC4 C2xC8 C2xC4 C8 C8 C8 C8",
    "D16": "D8",
}


def test_isomorphism_verdicts_match_the_known_partition():
    catalog = builtin_catalog(32)
    groups = [(g, g.name) for g in catalog if g.order <= 16]
    labels = {name: iter(names.split()) for name, names in QUOTIENT_CLASSES.items()}
    groups += [(quotient_by_central_cyclic(l, z)[0], next(labels[l.name]))
               for l, z, _ in reached_quotients(catalog)]
    assert all(next(it, None) is None for it in labels.values())
    pairs = 0
    for i, (g1, class1) in enumerate(groups):
        for g2, class2 in groups[i + 1:]:
            if g1.order == g2.order:
                assert are_isomorphic(g1, g2) == (class1 == class2), (g1.name, g2.name)
                pairs += 1
    assert pairs == 5315
