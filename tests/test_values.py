"""The value idiom every shared value of nlgc follows.

A value is a frozen dataclass that seals its own fields. An array passed in
is sealed as a read-only copy, so the caller's array stays writable and a
later write to it reaches neither the value nor a fact the value caches.
Equality and hashing are by identity: a generated __eq__ would compare
array fields with ==, which raises for arrays of more than one entry.
"""
import dataclasses
import importlib
import inspect
import pkgutil
from types import MappingProxyType

import numpy as np
import pytest

import nlgc
from nlgc import compile_unitary, random_states, simulate_protocol
from nlgc.groups import FactorSystem, FiniteGroup, cyclic
from nlgc.representations import Representation
from nlgc.sbd import BlockStructure
from nlgc.schmidt import BipartiteUnitary, SchmidtDecomposition, schmidt_decompose
from nlgc.search import SearchCandidate

CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
VALUE_CLASSES = ["BipartiteUnitary", "BlockStructure", "FactorSystem", "FiniteGroup",
                 "GroupExpansion", "ProtocolTrace", "Representation", "SchmidtDecomposition",
                 "SearchCandidate"]


def _cnot_values() -> dict:
    """One instance of each of the nine value classes, from one CNOT compile."""
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    trace = simulate_protocol(exp, random_states(4, 1, seed=0)[0])
    return {"BipartiteUnitary": exp.unitary, "SchmidtDecomposition": exp.schmidt,
            "BlockStructure": exp.structure,
            "FactorSystem": exp.factor, "Representation": exp.u_rep,
            "SearchCandidate": SearchCandidate((exp.u_rep,), (0,), exp.structure, exp.route),
            "FiniteGroup": exp.group, "GroupExpansion": exp, "ProtocolTrace": trace}


def _value_classes() -> set:
    """Every dataclass defined in the nlgc package."""
    out = set()
    for info in pkgutil.iter_modules(nlgc.__path__):
        module = importlib.import_module(f"nlgc.{info.name}")
        out.update(c for _, c in inspect.getmembers(module, inspect.isclass)
                   if dataclasses.is_dataclass(c) and c.__module__ == module.__name__)
    return out


def test_every_value_class_is_frozen_with_identity_equality():
    classes = _value_classes()
    assert sorted(c.__name__ for c in classes) == VALUE_CLASSES
    for cls in classes:
        assert cls.__dataclass_params__.frozen and not cls.__dataclass_params__.eq, cls


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_equal_content_compares_unequal_and_hashes_by_identity(name):
    value = _cnot_values()[name]
    twin = dataclasses.replace(value)
    assert twin is not value and type(twin) is type(value)
    assert value == value and not value == twin and value != twin
    assert hash(value) == object.__hash__(value) and hash(twin) == object.__hash__(twin)
    assert len({value, twin, value}) == 2


def _sealed_from_callers_array(name: str):
    """(the value's sealed array, the caller's array it was built from, and a
    fact the value caches on first read, or None)."""
    if name == "BipartiteUnitary":
        mine = CNOT.copy()
        return BipartiteUnitary(mine, 2, 2).matrix, mine, None
    if name == "FiniteGroup":
        mine = cyclic(2).table.copy()
        return FiniteGroup("C2", mine).table, mine, None
    if name == "Representation":
        mine = np.array([[[1]], [[-1]]], dtype=complex)
        return Representation(cyclic(2), FactorSystem.trivial(2), mine).matrices, mine, None
    if name == "FactorSystem":
        mine = np.ones((2, 2), dtype=complex)
        factor = FactorSystem(mine)
        return factor.phases, mine, lambda: factor.is_trivial
    if name == "SchmidtDecomposition":
        dec = schmidt_decompose(BipartiteUnitary(CNOT, 2, 2))
        mine = dec.a_ops.copy()
        return (SchmidtDecomposition(dec.unitary, dec.coefficients, mine, dec.b_ops).a_ops,
                mine, None)
    if name == "BlockStructure":
        mine = np.eye(2, dtype=complex)
        return BlockStructure(mine, [1, 1]).basis_change, mine, None
    if name == "BlockStructure.classes":
        mine = np.eye(2, dtype=complex)
        return BlockStructure(np.eye(2), [2], [([0], {0: mine})]).classes[0][1][0], mine, None
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    mine = exp.v.copy()
    twin = dataclasses.replace(exp, v=mine)
    return twin.v, mine, lambda: twin.residual


@pytest.mark.parametrize("name", ["BipartiteUnitary", "FiniteGroup", "Representation",
                                  "FactorSystem", "SchmidtDecomposition", "BlockStructure",
                                  "BlockStructure.classes", "GroupExpansion"])
def test_sealing_leaves_the_callers_array_writable(name):
    sealed, mine, fact = _sealed_from_callers_array(name)
    built = sealed.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        sealed[...] = 0
    mine[(0,) * mine.ndim] = 3
    assert mine.flags.writeable
    assert sealed.tobytes() == built
    if fact is not None:
        # read first after the write: a value sharing the caller's memory would see the 3
        assert fact() == _sealed_from_callers_array(name)[2]()


def test_block_structure_seals_the_classes_it_is_given():
    t = np.array([[0, 1], [1, 0]], dtype=complex)
    bs = BlockStructure(np.eye(5), [1, 2, 2], [[[0], {0: np.eye(1)}],
                                               [[1, 2], {1: np.eye(2), 2: t}]])
    assert isinstance(bs.classes, tuple) and bs.class_dims() == [1, 2]
    assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in bs.classes)
    for members, inter in bs.classes:
        assert isinstance(members, tuple) and isinstance(inter, MappingProxyType)
        assert sorted(inter) == list(members)
        for m in members:
            assert not inter[m].flags.writeable
        with pytest.raises(TypeError):
            inter[members[0]] = np.eye(1)
    members, inter = bs.classes[1]
    assert members == (1, 2) and inter[2].tobytes() == t.tobytes()
    with pytest.raises(TypeError):
        bs.classes[1] = bs.classes[0]
    with pytest.raises(TypeError):
        members[0] = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        bs.classes = ()
