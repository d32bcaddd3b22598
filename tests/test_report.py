"""Report serialization: stable bytes, faithful round trips, re-verification."""
import collections
import enum
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import nlgc.report
from nlgc.errors import ValidationError
from nlgc.expansion import GroupExpansion, compile_unitary, synthesize_group_gate
from nlgc.groups import alternating
from nlgc.protocol import random_states, simulate_protocol
from nlgc.report import (build_report, canonical_json, decode_matrix,
                         encode_matrix, expansion_from_report,
                         matrix_payload, parse_matrix_payload,
                         parse_state_payload, state_payload, verify_report)
from nlgc.schmidt import BipartiteUnitary
from test_golden_reports import GATES, canonical_report, gate

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def cnot_report(seed=0):
    bu = BipartiteUnitary(CNOT, 2, 2)
    exp = compile_unitary(bu, seed=seed)
    trace = simulate_protocol(exp, random_states(4, 1, seed=seed)[0])
    return build_report(exp, trace, meta={"seed": seed}, original=bu)


def parsed_report(gate):
    """The report of a two-qubit gate, as a reader parses it."""
    bu = BipartiteUnitary(gate, 2, 2)
    return json.loads(canonical_json(build_report(compile_unitary(bu), original=bu)))


def test_matrix_codec_round_trip():
    rng = np.random.default_rng(0)
    for shape in [(3,), (3, 3), (2, 3, 3)]:
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        np.testing.assert_array_equal(decode_matrix(encode_matrix(m), shape), m)
        rows = json.loads(canonical_json(encode_matrix(m)))
        np.testing.assert_allclose(decode_matrix(rows, (None,) * len(shape)), m, atol=1e-9)
        for wrong in [shape[:-1], (*shape, 3), (4,) + shape[1:]]:
            with pytest.raises(ValidationError):
                decode_matrix(rows, wrong)
    with pytest.raises(ValidationError, match="mixes numbers"):
        decode_matrix([[1, [0.0, 1.0]], [[0.0, 1.0], 0]], (2, 2))


def test_matrix_decode_accepts_plain_reals():
    m = decode_matrix([[1, 0], [0, -1]], (2, 2))
    np.testing.assert_array_equal(m, np.diag([1.0, -1.0]))


def test_canonical_json_is_stable_and_sorted():
    a = canonical_json({"b": 1.0 / 3.0, "a": [complex(0, 1)]})
    b = canonical_json({"a": [complex(0, 1)], "b": 1.0 / 3.0})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    # twelve significant digits, not more
    assert "0.333333333333" in a


def _round_sig(x: float) -> float:
    out = float("%.12g" % x)
    return 0.0 if out == 0.0 else out


def _canonical(obj):
    """The writer canonical_json replaced: round every float, then json.dumps."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round_sig(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return [_round_sig(obj.real), _round_sig(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    return obj


def reference_json(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, indent=2) + "\n"


# zeros, integral values, subnormals, the magnitudes where %.12g and repr
# spell a float differently, the bounds of the single-conversion range
# [1e-300, 1e11) on either side, and non-finite values
EDGE_VALUES = [0.0, -0.0, 1.0, -7.0, 1e10, 99999999999.99, 5e-324, 2.2e-308, 1e-301,
               1e-300, float(np.nextafter(1e-300, 0)), 1e-5, 9.99999999999995e-5,
               float(np.nextafter(1e11, 0)), 0.99999999999995, 1e11, 123456789012.0,
               999999999999.5, 123456789012345.0, 1e16, -1e16,
               float("nan"), float("inf"), float("-inf")]
EDGE_FLOATS = st.sampled_from(EDGE_VALUES)
FLOATS = st.floats(width=64) | st.floats(-1e11, 1e11) | EDGE_FLOATS
ARRAYS = hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
                    elements=FLOATS)
SCALARS = (st.none() | st.booleans() | st.integers() | FLOATS | st.complex_numbers() | st.text()
           | st.booleans().map(np.bool_) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
           | FLOATS.map(np.float64) | st.complex_numbers().map(np.complex128))
DOCUMENTS = st.recursive(
    SCALARS | ARRAYS,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=3) | st.integers(-3, 3), inner,
                                     max_size=3)),
    max_leaves=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(DOCUMENTS)
def test_canonical_json_writes_what_json_dumps_wrote(doc):
    assert canonical_json(doc) == reference_json(doc)


# floats at the edges of the writer's spellings: the integral floats, -0.0,
# and a few ulps either side of 1e-300 and 1e11 with either sign, and of
# the smallest subnormal (whose neighbours keep one or two digits), 1e-5
# (the first exponent %g writes), 1e12 (the first it writes with e+) and
# 1e16 (the first repr writes with e+)
NEAR_BOUNDS = st.builds(
    lambda bound, ulps, sign: sign * float(bound + ulps * np.spacing(bound)),
    st.sampled_from([5e-324, 1e-300, 1e-5, 1e11, 1e12, 1e16]),
    st.integers(-3, 3), st.sampled_from([1.0, -1.0]))
CONTRACT_FLOATS = (NEAR_BOUNDS | st.integers(-10 ** 13, 10 ** 13).map(float)
                   | st.just(-0.0) | st.floats(width=64))
CONTRACT_ARRAYS = (
    hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
               elements=CONTRACT_FLOATS)
    | hnp.arrays(hnp.integer_dtypes() | hnp.unsigned_integer_dtypes(),
                 hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)))
CONTRACT_DOCUMENTS = st.recursive(
    CONTRACT_ARRAYS | CONTRACT_FLOATS | st.integers() | st.booleans() | st.none() | st.text(),
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.integers(-300, 300), inner, max_size=4)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=10)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(CONTRACT_DOCUMENTS)
def test_the_writer_keeps_its_documented_contract(doc):
    # canonical_json(x) is json.dumps(rounded(x), sort_keys=True, indent=2) + "\n",
    # where rounded turns keys into str (so "10" sorts before "2"), arrays
    # into lists, complex numbers into pairs and floats to 12 digits
    assert canonical_json(doc) == reference_json(doc)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
                  elements=st.floats(-1e11, 1e11, exclude_max=True, exclude_min=True)))
def test_float_arrays_in_range_are_written_as_before(a):
    doc = {"x": {"m": a, "pairs": encode_matrix(a + 1j * a[::-1])}, "n": [a, 0.5]}
    assert canonical_json(doc) == reference_json(doc)


def test_canonical_json_indents_complex_scalars_and_keeps_edge_spellings():
    doc = {"z": np.complex128(1 - 0j), "e": [], "d": {}, "s": "\u00e9",
           "a": np.array([5e-324, -0.0, 1e16, float("nan")])}
    text = canonical_json(doc)
    assert text == reference_json(doc)
    assert '"z": [\n    1.0,\n    0.0\n  ]' in text
    for spelling in ("5e-324", "1e+16", "NaN", "\\u00e9", '"e": []', '"d": {}'):
        assert spelling in text, spelling
    for edge in EDGE_VALUES:
        for a in (np.array(edge), np.array([[0.5, edge], [-2.0, 3.0]]),
                  np.array([edge, -0.0, 2.5e-7])):
            assert canonical_json(a) == reference_json(a), edge
    assert canonical_json(np.array([-0.0, 3.0, -1e-5])) == "[\n  0.0,\n  3.0,\n  -1e-05\n]\n"


class _Level(enum.IntEnum):
    HIGH = 7


class _Text(str):
    pass


class _Array(np.ndarray):
    pass


def test_subclasses_and_numpy_scalars_take_the_writer_of_their_first_base():
    # the exact type picks no writer for these; the first type of the MRO that has one does
    doc = {"enum": _Level.HIGH, "text": _Text("t"), "ordered": collections.OrderedDict(b=1),
           "pair": collections.namedtuple("Pair", "x y")(0.5, 2), "f32": np.float32(0.1),
           "long": np.longdouble(1) / 3, "clong": np.clongdouble(1 - 2j) / 3,
           "c64": np.complex64(1j), "i8": np.int8(-4), "u64": np.uint64(2 ** 64 - 1),
           "flag": np.bool_(False), "npstr": np.str_("s"), "sub": np.array([1.5]).view(_Array)}
    assert canonical_json(doc) == reference_json(doc)
    for bad in ({1}, b"x", np.bytes_(b"x"), object()):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            canonical_json({"a": [bad]})


@pytest.mark.parametrize("a", [
    np.array([2 ** 63 - 1, -(2 ** 63 - 1), 0, -1], dtype=np.int64),
    np.array([[2 ** 63, 2 ** 64 - 1], [2 ** 63 + 7, 1]], dtype=np.uint64),
    np.array(-5, dtype=np.int64), np.array(9, dtype=np.uint8),
    np.zeros(0, dtype=np.int64), np.zeros((2, 0, 3), dtype=np.int32),
    np.arange(24, dtype=np.int16).reshape(2, 3, 4) - 12,
], ids=["int64-extremes", "uint64-above-2**63", "0d-int64", "0d-uint8", "empty",
        "empty-inner", "int16-3d"])
def test_integer_arrays_are_written_as_json_ints(a):
    doc = {"a": a, "nested": [a, {"b": a}], "n": 3, "flag": True}
    assert canonical_json(doc) == reference_json(doc)


def test_doubles_of_every_exponent_are_written_as_before():
    # random bit patterns give every exponent equally often, subnormals included
    bits = np.random.default_rng(21).integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    a = bits.view(float)
    a = a[np.isfinite(a)]
    mag = np.abs(a)
    in_range = a[(mag == 0) | (mag >= 1e-300) & (mag < 1e11)]
    assert len(in_range) > len(a) // 3
    for doc in (a, in_range, in_range[:1000].reshape(10, 5, 20), np.round(in_range, 2)):
        assert canonical_json(doc) == reference_json(doc)


@pytest.mark.parametrize("name", sorted(GATES))
def test_golden_reports_are_written_as_json_dumps_wrote_them(name):
    bu = gate(name)
    exp = compile_unitary(bu)
    psi = random_states(exp.unitary.dim, 1, seed=0)[0]
    report = build_report(exp, simulate_protocol(exp, psi), meta={"seed": 0, "tol": 1e-9},
                          original=bu)
    assert canonical_json(report) == reference_json(report)


def test_reports_are_byte_identical_across_runs():
    one = canonical_json(cnot_report(seed=9))
    two = canonical_json(cnot_report(seed=9))
    assert one == two


def test_different_seeds_may_differ_but_stay_valid():
    a = json.loads(canonical_json(cnot_report(seed=1)))
    b = json.loads(canonical_json(cnot_report(seed=2)))
    for rep in (a, b):
        ok, checks = verify_report(rep)
        assert ok, checks


def test_rebuilt_expansion_simulates_like_the_original():
    bu = BipartiteUnitary(SWAP, 2, 2)
    exp = compile_unitary(bu, seed=4)
    rep = json.loads(canonical_json(
        build_report(exp, None, meta={}, original=bu)))
    back = expansion_from_report(rep)
    assert back.group.order == exp.group.order
    assert back.classification == exp.classification
    np.testing.assert_allclose(back.reconstruct(), exp.reconstruct(), atol=1e-8)
    psi = random_states(4, 2, seed=6)
    for p in psi:
        t1 = simulate_protocol(exp, p)
        t2 = simulate_protocol(back, p)
        assert t1.deterministic and t2.deterministic
        np.testing.assert_allclose(sorted(t1.branch_probabilities),
                                   sorted(t2.branch_probabilities), atol=1e-8)


def _haar(dim, seed):
    x = np.random.default_rng(seed).normal(size=(dim, dim, 2)) @ [1, 1j]
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("bu, route", [(BipartiteUnitary(SWAP, 2, 2), "projective"),
                                       (BipartiteUnitary(_haar(16, 4), 4, 4), "fallback")],
                         ids=["swap", "haar4x4"])
def test_each_expansion_fact_is_read_from_its_carrier(bu, route):
    # the gate lives on the Schmidt decomposition, the group and its factor
    # system on U: a compiled and a report-loaded expansion store none again
    exp = compile_unitary(bu)
    back = expansion_from_report(json.loads(canonical_json(build_report(exp))))
    assert not {"unitary", "group", "factor"} & {f.name for f in fields(GroupExpansion)}
    for e in (exp, back):
        assert e.route == route
        assert e.unitary is e.schmidt.unitary
        assert e.group is e.u_rep.group
        assert e.factor is e.u_rep.factor


def test_factor_root_order_is_the_order_of_the_phases():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    q, r = np.linalg.qr(x)
    bu = BipartiteUnitary(q * (np.diag(r) / np.abs(np.diag(r))), 3, 3)
    rep = build_report(compile_unitary(bu), original=bu)
    assert rep["group"]["order"] == 9 and rep["group"]["projective"]
    assert rep["group"]["factorRootOrder"] == 3
    ok, checks = verify_report(json.loads(canonical_json(rep)))
    assert ok, checks


@pytest.mark.parametrize("loosen", [lambda r: r + 0.9, str], ids=["float", "text"])
def test_a_root_order_that_is_not_an_integer_is_rejected(loosen):
    # int() read 4.9 and "4" as the root order 4 of SWAP's factor phases
    rep = parsed_report(SWAP)
    assert rep["group"]["factorRootOrder"] == 4 and verify_report(rep)[0]
    rep["group"]["factorRootOrder"] = loosen(4)
    with pytest.raises(ValidationError, match="factorRootOrder must be an integer"):
        verify_report(rep)


def test_verify_reads_the_stored_values_once(monkeypatch):
    calls = []

    def counted(report):
        calls.append(report)
        return stored_derived(report)
    stored_derived = nlgc.report._stored_derived
    monkeypatch.setattr(nlgc.report, "_stored_derived", counted)
    ok, checks = verify_report(json.loads(canonical_json(cnot_report())))
    assert ok, checks
    assert len(calls) == 1


def test_blocks_survive_a_report_round_trip():
    rep = json.loads(canonical_json(cnot_report()))
    assert build_report(expansion_from_report(rep))["blocks"] == rep["blocks"]


@pytest.mark.parametrize("gate", [CNOT, SWAP], ids=["controlled", "double"])
def test_a_report_written_from_a_loaded_report_keeps_its_witnesses(gate):
    rep = parsed_report(gate)
    again = json.loads(canonical_json(build_report(expansion_from_report(rep))))
    assert len(rep["classification"]) == 3
    assert again["classification"] == rep["classification"]
    ok, checks = verify_report(again)
    assert ok, checks


def test_report_contains_the_advertised_sections():
    rep = cnot_report()
    for key in ["format", "version", "meta", "input", "schmidt", "blocks",
                "group", "expansion", "costs", "classification", "mStatus",
                "protocol", "warnings"]:
        assert key in rep, key
    assert rep["blocks"]["A"]["sizes"]
    assert rep["blocks"]["B"]["sizes"]
    assert rep["protocol"]["branches"] == 4
    assert rep["input"]["unitarityDeviation"] < 1e-12
    assert rep["costs"]["savingsEbits"] == 1.0


def test_verify_catches_tampered_operators():
    rep = json.loads(canonical_json(cnot_report()))
    rep["expansion"]["wOps"][0] = encode_matrix(np.zeros((2, 2)))
    ok, checks = verify_report(rep)
    assert not ok
    assert not checks["residual"]


def test_verify_catches_forged_costs():
    rep = json.loads(canonical_json(cnot_report()))
    rep["costs"]["costEbits"] = 0.5
    ok, checks = verify_report(rep)
    assert not ok
    assert not checks["costs"]


def test_verify_catches_wrong_classification():
    rep = json.loads(canonical_json(cnot_report()))
    rep["classification"]["label"] = "general"
    ok, checks = verify_report(rep)
    assert not ok
    assert not checks["classification"]


def test_verify_compares_the_double_unitary_witnesses():
    rep = parsed_report(SWAP)
    assert rep["classification"]["label"] == "double-unitary"
    assert verify_report(rep)[0]
    for key in ("wFactorPhases", "wNorms"):
        bad = json.loads(json.dumps(rep))
        bad["classification"][key] = 2 * np.asarray(rep["classification"][key])
        ok, checks = verify_report(bad)
        assert not ok and not checks["classification"], key
        assert [k for k, passed in checks.items() if not passed] == ["classification"]


def test_matrix_payload_needs_dimensions():
    with pytest.raises(ValidationError):
        parse_matrix_payload({"matrix": encode_matrix(CNOT)})
    bu = parse_matrix_payload({"matrix": encode_matrix(CNOT), "dims": [2, 2]})
    assert bu.dim_a == bu.dim_b == 2
    bu2 = parse_matrix_payload(matrix_payload(BipartiteUnitary(CNOT, 2, 2)))
    np.testing.assert_allclose(bu2.matrix, CNOT)


def test_state_payload_round_trip_checks_dim():
    psi = random_states(6, 1, seed=0)[0]
    back = parse_state_payload(state_payload(psi))
    np.testing.assert_allclose(back, psi, atol=1e-9)
    with pytest.raises(ValidationError):
        parse_state_payload({"dim": 4, "vector": [[1.0, 0.0]] * 3})


def test_non_reports_are_rejected():
    with pytest.raises(ValidationError):
        expansion_from_report({"format": "something-else"})


@pytest.mark.parametrize("name", ["cnot", "swap", "qutrit-cp", "haar3x3", "haar4x4", "synth-A4"])
def test_golden_reports_keep_their_classes_inequivalent(name):
    # verify asks that no unitary maps one class representative onto another:
    # the golden gates and A4's three 1-dim irreps pass it
    bu = synthesize_group_gate(alternating(4), seed=3) if name == "synth-A4" else gate(name)
    ok, checks = verify_report(json.loads(canonical_report(bu)))
    assert ok and checks["structure"], checks
