"""Finite group construction, isomorphism testing, catalog hygiene."""
import numpy as np
import pytest

from nlgc.errors import ValidationError
from nlgc.groups import (FactorSystem, FiniteGroup, alternating, are_isomorphic,
                         builtin_catalog, central_extension, cyclic, dihedral,
                         direct_product, heisenberg, load_group_file,
                         quaternion, quotient_by_central_cyclic,
                         save_group_file, symmetric)

C4_TABLE = np.array([[0, 1, 2, 3],
                     [1, 2, 3, 0],
                     [2, 3, 0, 1],
                     [3, 0, 1, 2]])


def test_cyclic_four_table_by_hand():
    g = cyclic(4)
    np.testing.assert_array_equal(g.table, C4_TABLE)
    assert g.identity == 0
    assert list(g.inverses) == [0, 3, 2, 1]
    assert g.element_order(1) == 4 and g.element_order(2) == 2


def test_group_axioms_are_enforced():
    bad = C4_TABLE.copy()
    bad[3, 3] = 3  # breaks both associativity and the latin square property
    with pytest.raises(ValidationError):
        FiniteGroup("broken", bad)


def test_symmetric_three_structure():
    g = symmetric(3)
    assert g.order == 6
    assert not g.is_abelian
    assert len(g.center()) == 1
    assert sorted(g.element_orders()) == [1, 2, 2, 2, 3, 3]
    assert len(g.conjugacy_classes()) == 3


def test_quaternion_element_orders():
    g = quaternion()
    assert g.order == 8
    assert sorted(g.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(g.center()) == 2


def test_dihedral_and_alternating_sizes():
    assert dihedral(6).order == 12
    assert not dihedral(3).is_abelian
    a4 = alternating(4)
    assert a4.order == 12
    assert len(a4.conjugacy_classes()) == 4


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
    small = [g for g in cat if g.order <= 16]
    for i, g1 in enumerate(small):
        for g2 in small[i + 1:]:
            if g1.order == g2.order:
                assert not are_isomorphic(g1, g2), (g1.name, g2.name)


def test_catalog_respects_max_order_and_extras():
    cat = builtin_catalog(6)
    assert max(g.order for g in cat) == 6
    extra = cyclic(5)
    extra.name = "C5alias"
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
    z = [x for x in ext.center() if x != ext.identity and ext.element_order(x) == 2]
    quot, lifts, n_back, r = quotient_by_central_cyclic(ext, z[0])
    assert quot.order == 2 and r == 2
    # lift identity: lift(f) lift(g) = z^n(f,g) lift(fg)
    for f in range(quot.order):
        for g in range(quot.order):
            prod = ext.mult(lifts[f], lifts[g])
            zpow = ext.identity
            for _ in range(n_back[f, g]):
                zpow = ext.mult(zpow, z[0])
            assert prod == ext.mult(zpow, lifts[quot.table[f, g]])


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
