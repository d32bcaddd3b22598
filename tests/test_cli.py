"""Command line behavior: exit codes, stable output, file round trips."""
import json

import numpy as np
import pytest

from nlgc.cli import main
from nlgc.groups import FiniteGroup, cyclic, dihedral, save_group_file
from nlgc.report import (canonical_json, decode_matrix, encode_matrix,
                         matrix_payload, state_payload)
from nlgc.schmidt import BipartiteUnitary

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def write_gate(path, matrix, da, db):
    path.write_text(canonical_json(matrix_payload(BipartiteUnitary(matrix, da, db))))
    return str(path)


@pytest.fixture
def cnot_file(tmp_path):
    return write_gate(tmp_path / "cnot.json", CNOT, 2, 2)


@pytest.fixture
def generic_file(tmp_path):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(x)
    return write_gate(tmp_path / "generic.json", q, 2, 2)


def _cnot_rows():
    return [[[float(z.real), float(z.imag)] for z in row] for row in CNOT]


def test_compile_writes_a_valid_report(cnot_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["compile", cnot_file, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["group"]["name"] == "C2"
    assert rep["costs"]["costEbits"] == 1.0
    assert rep["protocol"]["deterministic"] is True


def test_compile_stdout_is_byte_stable(cnot_file, capsys):
    assert main(["compile", cnot_file, "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["compile", cnot_file, "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)


def test_simulate_report_round_trip(cnot_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["compile", cnot_file, "--out", str(out)])
    state = tmp_path / "state.json"
    state.write_text(canonical_json(
        state_payload(np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2))))
    code = main(["simulate", str(out), "--state", str(state)])
    text = capsys.readouterr().out
    assert code == 0
    assert "deterministic=yes" in text
    assert "p=0.25 fidelity=1" in text


def test_simulate_matrix_compiles_on_the_fly(cnot_file, capsys):
    assert main(["simulate", cnot_file, "--random", "2", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert text.count("state ") == 2
    assert "group=C2" in text


def test_verify_accepts_fresh_and_rejects_tampered(cnot_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["compile", cnot_file, "--out", str(out)])
    assert main(["verify", str(out)]) == 0
    rep = json.loads(out.read_text())
    rep["costs"]["costEbits"] = 0.25
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rep))
    assert main(["verify", str(bad)]) == 4
    text = capsys.readouterr().out
    assert "costs: FAIL" in text


def test_tampered_operators_break_the_simulation(cnot_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["compile", cnot_file, "--out", str(out)])
    rep = json.loads(out.read_text())
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    rep["expansion"]["wOps"][1] = zero
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rep))
    assert main(["simulate", str(bad)]) == 4
    assert "deterministic=NO" in capsys.readouterr().out


def test_fallback_compilation_exits_three(generic_file, capsys):
    code = main(["compile", generic_file, "--no-projective"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 3
    assert rep["expansion"]["fallback"] is True
    assert rep["costs"]["costEbits"] == 2.0


def test_projective_route_keeps_exit_zero(generic_file, capsys):
    code = main(["compile", generic_file])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["expansion"]["route"] == "projective"


def test_invalid_inputs_exit_two(tmp_path, capsys, cnot_file):
    missing = str(tmp_path / "nope.json")
    assert main(["compile", missing]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all")
    assert main(["compile", str(garbage)]) == 2
    assert main(["compile", cnot_file, "--dims", "3", "2"]) == 2
    nonunitary = tmp_path / "nonu.json"
    nonunitary.write_text(json.dumps(
        {"dimA": 2, "dimB": 2, "matrix": [[1] * 4] * 4}))
    assert main(["compile", str(nonunitary)]) == 2
    assert main(["bogus-subcommand"]) == 2
    capsys.readouterr()


def test_nan_gate_exits_two_with_one_error_line(tmp_path, capsys):
    rows = _cnot_rows()
    rows[0][0] = [float("nan"), 0.0]
    nan_gate = tmp_path / "nan.json"
    nan_gate.write_text(json.dumps({"dimA": 2, "dimB": 2, "matrix": rows}))
    assert main(["compile", str(nan_gate)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def test_nan_state_exits_two_with_one_error_line(cnot_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["compile", cnot_file, "--out", str(out)]) == 0
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dim": 4, "vector": [[float("nan"), 0.0], 1.0, 0.0, 0.0]}))
    capsys.readouterr()
    assert main(["simulate", str(out), "--state", str(state)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def _ragged_rows():
    rows = _cnot_rows()
    rows[1].pop()
    return rows


def _mixed_rows():
    rows = _cnot_rows()
    rows[0][0] = 1
    return rows


def _gate_text(**fields):
    return json.dumps({"dimA": 2, "dimB": 2, "matrix": _cnot_rows(), **fields})


def _group_text(table, order=2):
    return json.dumps({"name": "G", "order": order, "table": table})


def _huge_dim_a(text):
    assert '"dimA": 2' in text
    return text.replace('"dimA": 2', '"dimA": 1e400')     # a float that parses as inf


def _report_with_table_entry(rep):
    rep["group"]["table"][0][0] = 0.4      # int() would truncate it to 0, the identity
    return json.dumps(rep)


# command, and the bad file's contents made from a fresh CNOT report
MALFORMED_FILES = {
    "ragged gate rows, compile": ("compile", lambda rep: _gate_text(matrix=_ragged_rows())),
    "ragged gate rows, simulate": ("simulate", lambda rep: _gate_text(matrix=_ragged_rows())),
    "gate mixing numbers and pairs": ("compile", lambda rep: _gate_text(matrix=_mixed_rows())),
    "dimA text, compile": ("compile", lambda rep: _gate_text(dimA="two")),
    "dimA text, schmidt": ("schmidt", lambda rep: _gate_text(dimA="two")),
    "dimA 1e400 in a gate": ("compile", lambda rep: _huge_dim_a(_gate_text())),
    "dimA 1e400 in a report": ("verify", lambda rep: _huge_dim_a(json.dumps(rep))),
    "gate not UTF-8": ("compile", lambda rep: b"\xff" + _gate_text().encode()),
    "group order text": ("groups load", lambda rep: _group_text([0, 1, 1, 0], order="x")),
    "group table entry text": ("groups load", lambda rep: _group_text([0, 1, 1, "a"])),
    "group table entry float": ("groups load", lambda rep: _group_text([0, 1, 1, 0.9])),
    "group file not JSON": ("groups load", lambda rep: "not json"),
    "report table entry float": ("verify", _report_with_table_entry),
}


@pytest.mark.parametrize("command, make", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
def test_malformed_files_exit_two_with_one_error_line(command, make, cnot_file, tmp_path,
                                                      capsys, monkeypatch):
    monkeypatch.delenv("NLGC_CATALOG_DIR", raising=False)
    out = tmp_path / "report.json"
    assert main(["compile", cnot_file, "--out", str(out)]) == 0
    content = make(json.loads(out.read_text()))
    bad = tmp_path / "bad.json"
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    capsys.readouterr()
    assert main([*command.split(), str(bad)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


BAD_OPTIONS = {
    "tol nan": ["compile", "--tol", "nan"],
    "tol negative": ["compile", "--tol", "-1"],
    "tol inf": ["compile", "--tol", "inf"],
    "tol text": ["compile", "--tol", "tiny"],
    "max-order zero": ["compile", "--max-order", "0"],
    "max-order negative": ["compile", "--max-order", "-5"],
    "seed negative": ["compile", "--seed", "-1"],
    "random negative": ["simulate", "--random", "-3"],
    "random zero": ["simulate", "--random", "0"],
}


@pytest.mark.parametrize("args", BAD_OPTIONS.values(), ids=BAD_OPTIONS.keys())
def test_bad_option_values_exit_two_without_a_traceback(args, cnot_file, capsys):
    command, *options = args
    assert main([command, cnot_file, *options]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"nlgc {command}: error: argument"), err
    assert "Traceback" not in err


def _without(*path):
    def tamper(rep):
        target = rep
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return rep
    return tamper


TAMPERS = {
    "no mStatus": _without("mStatus"),
    "no blocks": _without("blocks"),
    "too few uOps": _without("expansion", "uOps", -1),
    "too few wOps": _without("expansion", "wOps", -1),
    "wOps of the wrong size": lambda rep: {
        **rep, "expansion": {**rep["expansion"], "wOps": [[[[1.0, 0.0]]]] * 2}},
    "table not a list": lambda rep: {**rep, "group": {**rep["group"], "table": 7}},
    "not an object": lambda rep: [rep],
}


@pytest.mark.parametrize("tamper", TAMPERS.values(), ids=TAMPERS.keys())
def test_malformed_reports_exit_two(tamper, cnot_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["compile", cnot_file, "--out", str(out)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tamper(json.loads(out.read_text()))))
    for command in ("verify", "simulate"):
        assert main([command, str(bad)]) == 2, command
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def _report(gate_file, tmp_path, *flags):
    out = tmp_path / "report.json"
    main(["compile", gate_file, "--out", str(out), *flags])
    return json.loads(out.read_text())


def _verify(rep, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rep))
    code = main(["verify", str(bad)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nan_factor_phases_exit_two(tmp_path, capsys):
    swap = write_gate(tmp_path / "swap.json", np.eye(4, dtype=complex)[[0, 2, 1, 3]], 2, 2)
    rep = _report(swap, tmp_path)
    assert rep["group"]["projective"] and rep["group"]["order"] == 4
    rep["group"]["factorPhases"] = [[[float("nan"), 0.0]] * 4] * 4
    code, _, err = _verify(rep, tmp_path, capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


@pytest.mark.parametrize("flags", [["--no-projective"], []], ids=["fallback", "projective"])
def test_forged_fallback_flag_fails_verification(flags, generic_file, tmp_path, capsys):
    rep = _report(generic_file, tmp_path, *flags)
    rep["expansion"]["fallback"] = not rep["expansion"]["fallback"]
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 4
    assert "fallbackFlag: FAIL" in out
    assert "blocks: ok" in out


def test_non_unitary_v_fails_verification(generic_file, tmp_path, capsys):
    rep = _report(generic_file, tmp_path)
    v = decode_matrix(rep["expansion"]["v"], (None, None))
    rep["expansion"]["v"] = encode_matrix(1.001 * v)
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 4
    assert "vUnitary: FAIL" in out


@pytest.mark.parametrize("gate_fixture", ["cnot_file", "generic_file"])
def test_tampered_w_coefficients_fail_verification(gate_fixture, request, tmp_path, capsys):
    rep = _report(request.getfixturevalue(gate_fixture), tmp_path)
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 0
    assert "wCoeffs: ok" in out
    coeffs = decode_matrix(rep["expansion"]["wCoeffs"], (None, None))
    coeffs[0, 1] += 0.01
    rep["expansion"]["wCoeffs"] = encode_matrix(coeffs)
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 4
    assert "wCoeffs: FAIL" in out


def _set_blocks(label, **fields):
    return lambda blocks: blocks[label].update(fields)


# CNOT has sizes [1, 1], classes [[0], [1]] and classDims [1, 1] on both sides
BLOCK_TAMPERS = {
    "blocks merged": _set_blocks("A", sizes=[2]),
    "sizes exceed dA": _set_blocks("B", sizes=[2, 1], classDims=[2, 1]),
    "empty block": _set_blocks("A", sizes=[2, 0], classDims=[2, 0]),
    "block in two classes": _set_blocks("A", classes=[[0, 1], [1]]),
    "block in no class": _set_blocks("B", classes=[[0]], classDims=[1]),
    "class dims off": _set_blocks("B", sizes=[1, 1], classDims=[2, 1]),
    "orientation missing": lambda blocks: blocks.pop("B"),
}


@pytest.mark.parametrize("tamper", BLOCK_TAMPERS.values(), ids=BLOCK_TAMPERS.keys())
def test_inconsistent_blocks_fail_verification(tamper, cnot_file, tmp_path, capsys):
    rep = _report(cnot_file, tmp_path)
    tamper(rep["blocks"])
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 4
    assert "blocks: FAIL" in out
    assert "fallbackFlag: ok" in out


def _dressed_cnot(rng):
    a, b, c, d = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                  for _ in range(4))
    return np.kron(a, b) @ CNOT @ np.kron(c, d)


def _shift_basis_entry(structure):
    s = decode_matrix(structure["basisChange"], (2, 2))
    s[0, 1] += 0.3
    structure["basisChange"] = encode_matrix(s)


def _rotate_basis(structure):
    s = decode_matrix(structure["basisChange"], (2, 2))
    structure["basisChange"] = encode_matrix(s @ np.array([[1, 1], [1, -1]]) / np.sqrt(2))


STRUCTURE_TAMPERS = {
    "basis change moved": _shift_basis_entry,
    "basis change still unitary but mixes the blocks": _rotate_basis,
    "blocks merged": lambda structure: structure.update(sizes=[2]),
}


@pytest.mark.parametrize("tamper", STRUCTURE_TAMPERS.values(), ids=STRUCTURE_TAMPERS.keys())
def test_tampered_structure_fails_verification(tamper, tmp_path, capsys):
    gate = write_gate(tmp_path / "dressed.json", _dressed_cnot(np.random.default_rng(7)), 2, 2)
    rep = _report(gate, tmp_path)
    structure = rep["expansion"]["structure"]
    assert structure["sizes"] == [1, 1]
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 0 and "structure: ok" in out
    tamper(structure)
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 4
    assert "structure: FAIL" in out


def test_schmidt_prints_rank_and_coefficients(cnot_file, capsys):
    assert main(["schmidt", cnot_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank"] == 2
    np.testing.assert_allclose(data["coefficients"],
                               [np.sqrt(2), np.sqrt(2)], atol=1e-9)


def test_groups_list_and_show(capsys):
    assert main(["groups", "list", "--max-order", "6"]) == 0
    listing = capsys.readouterr().out
    assert "S3  order=6  nonabelian  irrepDims=[1, 1, 2]" in listing
    assert main(["groups", "show", "S3"]) == 0
    shown = capsys.readouterr().out
    assert "identity characters: 1 1 2" in shown
    assert "inverses:" in shown
    assert main(["groups", "show", "NoSuchGroup"]) == 2
    capsys.readouterr()


def test_groups_load_registers_into_catalog_dir(tmp_path, capsys, monkeypatch):
    raw = tmp_path / "c9.json"
    save_group_file(cyclic(9), raw)
    catdir = tmp_path / "catalog"
    monkeypatch.setenv("NLGC_CATALOG_DIR", str(catdir))
    assert main(["groups", "load", str(raw)]) == 0
    assert (catdir / "C9.json").exists()
    capsys.readouterr()


def test_catalog_dir_feeds_the_search(tmp_path, capsys, monkeypatch):
    # a qutrit controlled phase needs order 3; hand the search a renamed
    # C3 through the catalog directory and check it is picked up
    w = np.exp(2j * np.pi / 3)
    m = np.diag([1, 1, 1, 1, w, w ** 2, 1, w ** 2, w]).astype(complex)
    gate = write_gate(tmp_path / "cphase.json", m, 3, 3)
    catdir = tmp_path / "catalog"
    catdir.mkdir()
    renamed = cyclic(3)
    renamed.name = "MyZ3"
    save_group_file(renamed, catdir / "MyZ3.json")
    monkeypatch.setenv("NLGC_CATALOG_DIR", str(catdir))
    assert main(["compile", gate]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["group"]["order"] == 3


def test_catalog_dir_drops_groups_isomorphic_to_a_builtin(tmp_path, capsys, monkeypatch):
    d9 = dihedral(9)
    p = np.random.default_rng(0).permutation(18)
    table = np.empty_like(d9.table)
    table[p[:, None], p] = p[d9.table]
    catdir = tmp_path / "catalog"
    catdir.mkdir()
    save_group_file(FiniteGroup("D9alias", table), catdir / "D9alias.json")
    monkeypatch.setenv("NLGC_CATALOG_DIR", str(catdir))
    assert main(["groups", "list", "--max-order", "18"]) == 0
    order_18 = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if "order=18 " in line]
    assert order_18 == ["C18", "C2xC3xC3", "D9"]
    assert main(["groups", "show", "D9alias", "--max-order", "18"]) == 2
    capsys.readouterr()
