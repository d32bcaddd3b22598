"""Report serialization: stable bytes, faithful round trips, re-verification."""
import json

import numpy as np
import pytest

from nlgc.errors import ValidationError
from nlgc.expansion import compile_unitary
from nlgc.protocol import random_states, simulate_protocol
from nlgc.report import (build_report, canonical_json, decode_matrix,
                         encode_matrix, expansion_from_report,
                         matrix_payload, parse_matrix_payload,
                         parse_state_payload, state_payload, verify_report)
from nlgc.schmidt import BipartiteUnitary

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


def test_blocks_survive_a_report_round_trip():
    rep = json.loads(canonical_json(cnot_report()))
    assert build_report(expansion_from_report(rep))["blocks"] == rep["blocks"]


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
