"""The value idiom every shared value of nlgc follows.

A value is a frozen dataclass that seals its own fields. An array passed in
is sealed as a read-only view, so the caller's array stays writable.
Equality and hashing are by identity: a generated __eq__ would compare
array fields with ==, which raises for arrays of more than one entry.
"""
import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import nlgc
from nlgc import compile_unitary, random_states, simulate_protocol
from nlgc.groups import FactorSystem, cyclic
from nlgc.representations import Representation
from nlgc.sbd import BlockStructure, EquivalenceClass
from nlgc.schmidt import BipartiteUnitary, SchmidtDecomposition, schmidt_decompose
from nlgc.search import SearchCandidate

CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
VALUE_CLASSES = ["BipartiteUnitary", "BlockStructure", "EquivalenceClass", "FactorSystem",
                 "FiniteGroup", "GroupExpansion", "ProtocolTrace", "Representation",
                 "SchmidtDecomposition", "SearchCandidate"]


def _cnot_values() -> dict:
    """One instance of each of the ten value classes, from one CNOT compile."""
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    trace = simulate_protocol(exp, random_states(4, 1, seed=0)[0])
    return {"BipartiteUnitary": exp.unitary, "SchmidtDecomposition": exp.schmidt,
            "EquivalenceClass": exp.structure.classes[0], "BlockStructure": exp.structure,
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
    """(the value's sealed array, the caller's array it was built from)."""
    if name == "Representation":
        mine = np.array([[[1]], [[-1]]], dtype=complex)
        return Representation(cyclic(2), FactorSystem.trivial(2), mine).matrices, mine
    if name == "FactorSystem":
        mine = np.ones((2, 2), dtype=complex)
        return FactorSystem(mine).phases, mine
    if name == "SchmidtDecomposition":
        dec = schmidt_decompose(BipartiteUnitary(CNOT, 2, 2))
        mine = dec.a_ops.copy()
        return SchmidtDecomposition(dec.unitary, dec.coefficients, mine, dec.b_ops).a_ops, mine
    if name == "BlockStructure":
        mine = np.eye(2, dtype=complex)
        return BlockStructure(mine, [1, 1]).basis_change, mine
    if name == "EquivalenceClass":
        mine = np.eye(2, dtype=complex)
        return EquivalenceClass(members=[0], intertwiners={0: mine}).intertwiners[0], mine
    exp = compile_unitary(BipartiteUnitary(CNOT, 2, 2))
    mine = exp.v.copy()
    return dataclasses.replace(exp, v=mine).v, mine


@pytest.mark.parametrize("name", ["Representation", "FactorSystem", "SchmidtDecomposition",
                                  "BlockStructure", "EquivalenceClass", "GroupExpansion"])
def test_sealing_leaves_the_callers_array_writable(name):
    sealed, mine = _sealed_from_callers_array(name)
    assert np.shares_memory(sealed, mine)
    with pytest.raises(ValueError, match="read-only"):
        sealed[...] = 0
    mine[(0,) * mine.ndim] = 3
    assert mine.flags.writeable
