"""Command line behavior: exit codes, stable output, file round trips."""
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import counting_build_M, haar_block_gate, uncertified_s4_expansion
from test_report import SWAP, parsed_report, reference_json

import nlgc.cli
import nlgc.search
from nlgc.cli import main
from nlgc.expansion import synthesize_group_gate
from nlgc.groups import (FiniteGroup, catalog_groups, cyclic, dihedral, save_group_file,
                         symmetric)
from nlgc.report import (build_report, canonical_json, decode_matrix, encode_matrix,
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


def test_a_gate_won_by_a_merged_plan_compiles(tmp_path, capsys):
    # side A's finest blocks [1, 2] cost 5, but S3, Q8 and D4 give no unitary
    # M; both blocks fused into one 3-block are served by projective C3xC3 at
    # order 9, where the fallback only ties and would exit 3
    gate = haar_block_gate(2, [1, 2], 3).swapped()
    out = tmp_path / "report.json"
    assert main(["compile", write_gate(tmp_path / "gap.json", gate.matrix, 3, 2),
                 "--side", "A", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert (rep["group"]["name"], rep["expansion"]["route"]) == ("C3xC3", "projective")
    assert rep["expansion"]["structure"]["sizes"] == [3]
    assert rep["blocks"]["A"]["sizes"] == [1, 2]


def test_a_max_order_beyond_the_search_reach_builds_no_more_catalog(cnot_file, tmp_path,
                                                                      monkeypatch):
    # CNOT's search reaches orders 2² and extensions 2⁴: a larger bound changes
    # nothing but meta.maxOrder, as the index builds an order only when the
    # search reaches it
    built = []      # per compile, the orders whose catalog groups it built

    def recording(order, extra):
        built[-1].append(order)
        return catalog_groups(order, extra)
    monkeypatch.setattr(nlgc.search, "catalog_groups", recording)
    default, large = tmp_path / "default.json", tmp_path / "large.json"
    for flags, out in (([], default), (["--max-order", "4096"], large)):
        monkeypatch.setattr(nlgc.search, "_builtin", None)
        built.append([])
        assert main(["compile", cnot_file, "--out", str(out), *flags]) == 0
    assert '"maxOrder": 4096' in large.read_text()
    assert large.read_text().replace('"maxOrder": 4096', '"maxOrder": 32') == default.read_text()
    assert built[0] == built[1] and len(set(built[0])) == len(built[0])
    assert 0 < max(built[0]) <= 16


def test_a_max_order_below_the_extension_order_makes_swap_fall_back(tmp_path):
    # SWAP's projective C2xC2 comes from an extension of order 8
    out = tmp_path / "report.json"
    assert main(["compile", write_gate(tmp_path / "swap.json", SWAP, 2, 2),
                 "--max-order", "4", "--out", str(out)]) == 3
    rep = json.loads(out.read_text())
    assert (rep["group"]["name"], rep["expansion"]["route"]) == ("C2xC2", "fallback")
    assert any("no group of order 8" in w for w in rep["warnings"])


def test_compile_writes_what_json_dumps_wrote(cnot_file, tmp_path, monkeypatch):
    # meta holds an int, a float, a bool and a str scalar; the group table an int array
    built = []

    def capturing(*args, **kwargs):
        built.append(build_report(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(nlgc.cli, "build_report", capturing)
    out = tmp_path / "report.json"
    assert main(["compile", cnot_file, "--out", str(out), "--seed", "3"]) == 0
    (report,) = built
    assert {type(v) for v in report["meta"].values()} == {int, float, bool, str}
    assert out.read_text() == reference_json(report)


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


def test_simulate_reports_the_protocol_it_ran(cnot_file, tmp_path, capsys):
    # the cost line and the branch file price the group that was simulated,
    # not the report's stored costEbits
    rep = tmp_path / "tampered.json"
    rep.write_text(_report_with_costs(_report(cnot_file, tmp_path), costEbits=0.25))
    branches = tmp_path / "branches.json"
    capsys.readouterr()
    assert main(["simulate", str(rep), "--out", str(branches)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ebits=1 cbits=2 group=C2 order=2"
    assert json.loads(branches.read_text())["ebits"] == 1.0


def test_simulate_matrix_compiles_on_the_fly(cnot_file, capsys):
    assert main(["simulate", cnot_file, "--random", "2", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert text.count("state ") == 2
    assert "group=C2" in text


@pytest.mark.parametrize("source", ["gate", "report"])
def test_simulate_builds_M_once_for_all_its_states(source, cnot_file, tmp_path, monkeypatch,
                                                   capsys):
    path = cnot_file
    if source == "report":
        path = str(tmp_path / "report.json")
        assert main(["compile", cnot_file, "--out", path]) == 0
    calls = counting_build_M(monkeypatch)
    assert main(["simulate", path, "--random", "4"]) == 0
    assert capsys.readouterr().out.count("deterministic=yes") == 4
    assert calls == [2]


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


def test_a_cheaper_fallback_exits_three_and_verifies(tmp_path, capsys):
    # side B finds S4 at 4.585 ebits; side A's shift/clock fallback costs 4
    gate = write_gate(tmp_path / "w2w3.json", haar_block_gate(4, [2, 3], seed=7).matrix, 4, 5)
    out = tmp_path / "report.json"
    assert main(["compile", gate, "--out", str(out)]) == 3
    rep = json.loads(out.read_text())
    assert rep["group"]["name"] == "C4xC4" and rep["expansion"]["side"] == "A"
    assert rep["costs"] == {"baselineEbits": 4.0, "costEbits": 4.0, "savingsEbits": 0.0}
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_side_b_alone_skips_the_uncertified_group(tmp_path, capsys):
    # side B's search finds S4 for the 4x5 gate above, but its M is not
    # unitary; side B's own fallback, C5xC5 at log2 25 ebits, is certified
    gate = write_gate(tmp_path / "w2w3.json", haar_block_gate(4, [2, 3], seed=7).matrix, 4, 5)
    out = tmp_path / "report.json"
    assert main(["compile", gate, "--side", "B", "--out", str(out)]) == 3
    rep = json.loads(out.read_text())
    assert rep["group"]["name"] == "C5xC5" and rep["expansion"]["fallback"]
    assert rep["costs"]["costEbits"] == round(float(np.log2(25)), 11)
    assert rep["mStatus"]["unitary"] is True and rep["protocol"]["deterministic"] is True
    assert main(["verify", str(out)]) == 0
    # the branch pass on the factor phases decoded from the report
    assert main(["simulate", str(out), "--random", "4"]) == 0
    capsys.readouterr()


def test_an_uncertified_protocol_exits_four(tmp_path, capsys, monkeypatch):
    # compile writes whatever expansion it gets: here the S4 expansion that
    # side B's search candidate assembles for the 4x5 gate, whose M is not unitary
    _, s4 = uncertified_s4_expansion()
    monkeypatch.setattr(nlgc.cli, "_compile_from_args", lambda args, bu: s4)
    gate = write_gate(tmp_path / "w2w3.json", haar_block_gate(4, [2, 3], seed=7).matrix, 4, 5)
    out = tmp_path / "report.json"
    assert main(["compile", gate, "--side", "B", "--out", str(out)]) == 4
    monkeypatch.undo()
    rep = json.loads(out.read_text())
    assert rep["group"]["name"] == "S4" and not rep["expansion"]["fallback"]
    assert rep["mStatus"]["unitary"] is False and rep["protocol"]["deterministic"] is False
    assert main(["simulate", str(out)]) == 4
    capsys.readouterr()
    # the report is consistent with itself, but its protocol is not certified
    assert main(["verify", str(out)]) == 4
    printed = capsys.readouterr().out
    assert "mStatus: ok" in printed and "certified: FAIL" in printed
    assert printed.count("FAIL") == 1


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


def _group_text(table, order=2, **fields):
    return json.dumps({"name": "G", "order": order, "table": table, **fields})


def _huge_dim_a(text):
    assert '"dimA": 2' in text
    return text.replace('"dimA": 2', '"dimA": 1e400')     # a float that parses as inf


def _report_with_costs(rep, **costs):
    return json.dumps({**rep, "costs": {**rep["costs"], **costs}})


def _report_with_table_entry(rep):
    rep["group"]["table"][0][0] = 0.4      # int() would truncate it to 0, the identity
    return json.dumps(rep)


def _report_with(rep, value, *path):
    """The report with the field at path set to value, as JSON text."""
    target = rep
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(rep)


def _report_with_spaced_key(rep):
    intertwiners = rep["expansion"]["structure"]["classes"][0]["intertwiners"]
    return _report_with(rep, {" 0": intertwiners["0"]},
                        "expansion", "structure", "classes", 0, "intertwiners")


def _swap_report_with_root_order(order):
    rep = parsed_report(SWAP)
    assert rep["group"]["factorRootOrder"] == 4
    rep["group"]["factorRootOrder"] = order
    return json.dumps(rep)


def _report_made_projective(rep):
    """The CNOT report claiming a projective route on trivial factor phases."""
    rep["group"].update(projective=True, factorPhases=[[[1.0, 0.0]] * 2] * 2)
    rep["expansion"]["route"] = "projective"
    return json.dumps(rep)


# command ({report} names the fresh CNOT report), and the bad file's
# contents made from that report
MALFORMED_FILES = {
    "ragged gate rows, compile": ("compile", lambda rep: _gate_text(matrix=_ragged_rows())),
    "ragged gate rows, simulate": ("simulate", lambda rep: _gate_text(matrix=_ragged_rows())),
    "gate mixing numbers and pairs": ("compile", lambda rep: _gate_text(matrix=_mixed_rows())),
    "gate of booleans": ("compile", lambda rep: _gate_text(
        matrix=[[bool(x) for x in row] for row in CNOT.real])),
    "dimA text, compile": ("compile", lambda rep: _gate_text(dimA="two")),
    "dimA text, schmidt": ("schmidt", lambda rep: _gate_text(dimA="two")),
    "dimA 1e400 in a gate": ("compile", lambda rep: _huge_dim_a(_gate_text())),
    "dimA 1e400 in a report": ("verify", lambda rep: _huge_dim_a(json.dumps(rep))),
    "dimA float in a gate": ("compile", lambda rep: _gate_text(dimA=2.9)),
    "dimA true in a gate": ("compile", lambda rep: _gate_text(dimA=True, dimB=4)),
    "dims float in a gate": ("schmidt", lambda rep: json.dumps(
        {"dims": [2.0, 2], "matrix": _cnot_rows()})),
    "dimA float in a report": ("verify", lambda rep: json.dumps(
        {**rep, "input": {**rep["input"], "dimA": 2.0}})),
    "state dim float": ("simulate {report} --state", lambda rep: json.dumps(
        {"dim": 4.0, "vector": [1.0, 0.0, 0.0, 0.0]})),
    "gate not UTF-8": ("compile", lambda rep: b"\xff" + _gate_text().encode()),
    "group order text": ("groups load", lambda rep: _group_text([0, 1, 1, 0], order="x")),
    "group order float": ("groups load", lambda rep: _group_text([0, 1, 1, 0], order=2.0)),
    "group identity false": ("groups load", lambda rep: _group_text([0, 1, 1, 0],
                                                                    identity=False)),
    "group table entry text": ("groups load", lambda rep: _group_text([0, 1, 1, "a"])),
    "group table entry float": ("groups load", lambda rep: _group_text([0, 1, 1, 0.9])),
    "group file not JSON": ("groups load", lambda rep: "not json"),
    "report table entry float": ("verify", _report_with_table_entry),
    "costEbits text in a report": ("verify", lambda rep: _report_with_costs(rep, costEbits="1")),
    "baselineEbits true in a report": ("verify", lambda rep: _report_with_costs(
        rep, baselineEbits=True)),
    "costEbits text, simulate": ("simulate", lambda rep: _report_with_costs(rep, costEbits="1")),
    "baselineEbits true, simulate": ("simulate", lambda rep: _report_with_costs(
        rep, baselineEbits=True)),
    "savingsEbits text, simulate": ("simulate", lambda rep: _report_with_costs(
        rep, savingsEbits="1")),
    "mStatus.deviation text in a report": ("verify", lambda rep: _report_with(
        rep, "0", "mStatus", "deviation")),
    "mStatus.deviation text, simulate": ("simulate", lambda rep: _report_with(
        rep, "0", "mStatus", "deviation")),
    "warnings text in a report": ("verify", lambda rep: _report_with(rep, "abc", "warnings")),
    "warnings of numbers in a report": ("verify", lambda rep: _report_with(
        rep, [1, 2], "warnings")),
    "warnings an object in a report": ("verify", lambda rep: _report_with(
        rep, {"a": "b"}, "warnings")),
    "no warnings in a report": ("verify", lambda rep: json.dumps(_without("warnings")(rep))),
    "residual text in a report": ("simulate", lambda rep: json.dumps(
        {**rep, "expansion": {**rep["expansion"], "residual": "0"}})),
    "unitarityDeviation text in a report": ("verify", lambda rep: json.dumps(
        {**rep, "input": {**rep["input"], "unitarityDeviation": "0"}})),
    "schmidt rank float in a report": ("verify", lambda rep: json.dumps(
        {**rep, "schmidt": {**rep["schmidt"], "rank": 2.9}})),
    "schmidt rank text in a report": ("verify", lambda rep: json.dumps(
        {**rep, "schmidt": {**rep["schmidt"], "rank": "2"}})),
    "group order off the table in a report": ("verify", lambda rep: json.dumps(
        {**rep, "group": {**rep["group"], "order": 3}})),
    "group identity off the table in a report": ("simulate", lambda rep: json.dumps(
        {**rep, "group": {**rep["group"], "identity": 1}})),
    "structure sizes float in a report": ("verify", lambda rep: _report_with(
        rep, [1, 1.7], "expansion", "structure", "sizes")),
    "structure sizes true in a report": ("verify", lambda rep: _report_with(
        rep, [True, 1], "expansion", "structure", "sizes")),
    "structure members float in a report": ("verify", lambda rep: _report_with(
        rep, [0.0], "expansion", "structure", "classes", 0, "members")),
    "intertwiner key with a space in a report": ("verify", _report_with_spaced_key),
    "blocks sizes float in a report": ("verify", lambda rep: _report_with(
        rep, [1.0, 1], "blocks", "A", "sizes")),
    "blocks classDims float in a report": ("verify", lambda rep: _report_with(
        rep, [1.0, 1], "blocks", "A", "classDims")),
    **{f"SWAP factorRootOrder {order} in a report": (
        "verify", lambda rep, order=order: _swap_report_with_root_order(order))
       for order in (5, 0, 1, 256)},
    "projective claim on trivial factor phases": ("verify", _report_made_projective),
    "factorPhases junk on an ordinary group": ("verify", lambda rep: _report_with(
        rep, "junk", "group", "factorPhases")),
    "version 99 in a report": ("verify", lambda rep: _report_with(rep, 99, "version")),
    "version 99, simulate": ("simulate", lambda rep: _report_with(rep, 99, "version")),
    "version float in a report": ("verify", lambda rep: _report_with(rep, 1.0, "version")),
    "no version in a report": ("verify", lambda rep: json.dumps(_without("version")(rep))),
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
    assert main([*command.format(report=out).split(), str(bad)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def _cli_process(*args):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "nlgc.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_huge_entries_print_only_the_error_line(cnot_file, tmp_path):
    # numpy warns on the overflow before the checks reject the NaN it makes;
    # pytest captures such warnings in process, so this runs the CLI itself
    rows = _cnot_rows()
    rows[0][0] = [1e308, 0.0]
    gate = tmp_path / "huge.json"
    gate.write_text(json.dumps({"dimA": 2, "dimB": 2, "matrix": rows}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dim": 4, "vector": [1e308, 0, 1e308, 0]}))
    for args in (["compile", str(gate)], ["simulate", cnot_file, "--state", str(state)]):
        proc = _cli_process(*args)
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:"), \
            proc.stderr


# cases of the tables above run again as a real `python -m nlgc.cli`
# process, whose stderr would also show a traceback or a numpy warning
PROCESS_CASES = {
    **{key: MALFORMED_FILES[key] for key in (
        "ragged gate rows, compile", "gate of booleans", "schmidt rank float in a report",
        "structure sizes float in a report", "SWAP factorRootOrder 5 in a report")},
    "mStatus.unitary text in a report": ("verify", lambda rep: _report_with(
        rep, "false", "mStatus", "unitary")),
    "group name 7": ("groups load", lambda rep: json.dumps({**cyclic(3).to_dict(), "name": 7})),
}


@pytest.mark.parametrize("command, make", PROCESS_CASES.values(), ids=PROCESS_CASES.keys())
def test_a_process_given_a_malformed_file_prints_one_error_line(command, make, cnot_file,
                                                                tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    assert main(["compile", cnot_file, "--out", str(out)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(make(json.loads(out.read_text())))
    monkeypatch.setenv("NLGC_CATALOG_DIR", str(tmp_path / "catalog"))
    proc = _cli_process(*command.split(), str(bad))
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:"), proc.stderr
    assert not (tmp_path / "catalog").exists()


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
    "warnings text": lambda rep: {**rep, "warnings": "abc"},
    "warnings of numbers": lambda rep: {**rep, "warnings": [1, 2]},
    "warnings an object": lambda rep: {**rep, "warnings": {"a": "b"}},
    "no warnings": _without("warnings"),
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
    bad.write_text(canonical_json(rep))     # tampers may hold encode_matrix arrays
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


def test_a_relabelled_fallback_fails_verification(cnot_file, tmp_path, capsys):
    # flag and route agree, but a fallback is the shift-and-phase expansion
    # over |G| = d_A² with V = I, and CNOT's expansion is over C2
    rep = _report(cnot_file, tmp_path)
    rep["expansion"].update(route="fallback", fallback=True)
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 4
    assert [line for line in out.splitlines() if "FAIL" in line] == ["fallbackFlag: FAIL"]


def test_a_compiled_fallback_verifies(tmp_path, capsys):
    haar = haar_block_gate(4, [4], seed=4)
    rep = _report(write_gate(tmp_path / "haar.json", haar.matrix, 4, 4), tmp_path)
    assert (rep["expansion"]["route"], rep["group"]["order"]) == ("fallback", 16)
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 0 and "fallbackFlag: ok" in out


FELL_BACK = "no admissible group found within the search bound; fell back"

# warnings that contradict the route: compile's fallback warning, word for
# word and once, belongs to a fallback and to no other route
FALLBACK_WARNING_TAMPERS = {
    "fallback without its warning": ("haar", lambda warnings, note: warnings.clear()),
    "ordinary route with the warning": ("cnot", lambda warnings, note: warnings.append(note)),
    "fallback warning twice": ("haar", lambda warnings, note: warnings.append(note)),
    "fallback warning at another cost": ("haar", lambda warnings, note: warnings.__setitem__(
        -1, note.replace("the teleportation cost", "5.000 ebits, above the teleportation "
                         "cost of 4.000"))),
}


@pytest.mark.parametrize("gate, tamper", FALLBACK_WARNING_TAMPERS.values(),
                         ids=FALLBACK_WARNING_TAMPERS.keys())
def test_a_warning_that_contradicts_the_route_fails_verification(gate, tamper, tmp_path,
                                                                 capsys):
    haar = haar_block_gate(4, [4], seed=4)
    fallback = _report(write_gate(tmp_path / "haar.json", haar.matrix, 4, 4), tmp_path)
    note = fallback["warnings"][-1]
    assert note.startswith(FELL_BACK) and note.endswith("at the teleportation cost")
    rep = fallback if gate == "haar" else _report(
        write_gate(tmp_path / "cnot.json", CNOT, 2, 2), tmp_path)
    assert _verify(rep, tmp_path, capsys)[0] == 0
    tamper(rep["warnings"], note)
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 4
    assert [line for line in out.splitlines() if "FAIL" in line] == ["fallbackFlag: FAIL"]


# a field that no longer says what the rest of the report does, with the
# exit code and the one FAIL check or error message verify must give
MISLABELS = {
    "mStatus.unitary text": ("cnot", ("mStatus", "unitary", "false"), 2,
                             "mStatus.unitary must be true or false"),
    "mStatus.unitary 1": ("cnot", ("mStatus", "unitary", 1), 2,
                          "mStatus.unitary must be true or false"),
    "projective route ordinary": ("swap", ("expansion", "route", "ordinary"), 4, "fallbackFlag"),
    "route banana": ("cnot", ("expansion", "route", "banana"), 4, "fallbackFlag"),
    "group name 7": ("cnot", ("group", "name", 7), 2, "group name must be a string"),
    "group.projective text": ("cnot", ("group", "projective", "false"), 2,
                              "group.projective must be true or false"),
}


@pytest.mark.parametrize("gate, field, code, what", MISLABELS.values(), ids=MISLABELS.keys())
def test_mislabelled_fields_fail_verification(gate, field, code, what, tmp_path, capsys):
    matrix = CNOT if gate == "cnot" else np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    rep = _report(write_gate(tmp_path / "gate.json", matrix, 2, 2), tmp_path)
    section, key, value = field
    rep[section][key] = value
    got, out, err = _verify(rep, tmp_path, capsys)
    assert got == code
    if code == 4:
        assert [line for line in out.splitlines() if "FAIL" in line] == [f"{what}: FAIL"]
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error:") and what in err, err


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
    return lambda report: report["blocks"][label].update(fields)


# CNOT has sizes [1, 1], classes [[0], [1]] and classDims [1, 1] on both sides
BLOCK_TAMPERS = {
    "blocks merged": _set_blocks("A", sizes=[2]),
    "sizes exceed dA": _set_blocks("B", sizes=[2, 1], classDims=[2, 1]),
    "empty block": _set_blocks("A", sizes=[2, 0], classDims=[2, 0]),
    "block in two classes": _set_blocks("A", classes=[[0, 1], [1]]),
    "block in no class": _set_blocks("B", classes=[[0]], classDims=[1]),
    "class dims off": _set_blocks("B", sizes=[1, 1], classDims=[2, 1]),
    "orientation missing": lambda report: report["blocks"].pop("B"),
    "class names block 7": _set_blocks("A", classes=[[0], [1, 7]]),
    "blocks is a list": lambda report: report.update(blocks=list(report["blocks"].values())),
    "empty class": _set_blocks("A", classes=[[0, 1], []], classDims=[1, 1]),
}


@pytest.mark.parametrize("tamper", BLOCK_TAMPERS.values(), ids=BLOCK_TAMPERS.keys())
def test_inconsistent_blocks_fail_verification(tamper, cnot_file, tmp_path, capsys):
    rep = _report(cnot_file, tmp_path)
    tamper(rep)
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


def _scale_intertwiners(structure):
    for cls in structure["classes"]:
        cls["intertwiners"] = {k: 7 * np.asarray(t) for k, t in cls["intertwiners"].items()}


STRUCTURE_TAMPERS = {
    "basis change moved": _shift_basis_entry,
    "basis change still unitary but mixes the blocks": _rotate_basis,
    "blocks merged": lambda structure: structure.update(sizes=[2]),
    "class names block 7": lambda structure: structure["classes"][-1]["members"].append(7),
    "intertwiners x7": _scale_intertwiners,
    "empty class": lambda structure: structure["classes"].append(
        {"members": [], "intertwiners": {}}),
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


def _set_intertwiner(member, t):
    def tamper(structure):
        structure["classes"][-1]["intertwiners"][str(member)] = encode_matrix(t)
    return tamper


def _split_last_class(structure):
    # blocks 2 and 3 carry one irrep, so two classes for them claim two
    last = structure["classes"].pop()
    structure["classes"] += [{"members": [m], "intertwiners": {str(m): encode_matrix(np.eye(2))}}
                             for m in last["members"]]


# S3's synthesized gate has blocks [1, 1, 2, 2] in classes [[0], [1], [2, 3]]
CLASS_TAMPERS = {
    "intertwiners x7": _scale_intertwiners,
    "classes merged into one with no intertwiners": lambda structure: structure.update(
        classes=[{"members": [0, 1, 2, 3], "intertwiners": {}}]),
    "a member's intertwiner dropped": lambda structure: structure["classes"][-1][
        "intertwiners"].pop("3"),
    "an intertwiner for a block of another class": _set_intertwiner(0, np.eye(1)),
    "a unitary that does not intertwine": _set_intertwiner(3, np.eye(2)),
    "an intertwiner of the wrong size": _set_intertwiner(3, np.eye(3)),
    "an equivalent class split in two": _split_last_class,
}


@pytest.mark.parametrize("tamper", CLASS_TAMPERS.values(), ids=CLASS_TAMPERS.keys())
def test_tampered_classes_fail_verification(tamper, tmp_path, capsys):
    bu = synthesize_group_gate(symmetric(3), seed=0)
    rep = _report(write_gate(tmp_path / "s3.json", bu.matrix, bu.dim_a, bu.dim_b), tmp_path)
    structure = rep["expansion"]["structure"]
    assert rep["group"]["name"] == "S3" and structure["sizes"] == [1, 1, 2, 2]
    assert [c["members"] for c in structure["classes"]] == [[0], [1], [2, 3]]
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 0 and "structure: ok" in out
    tamper(structure)
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 4
    assert [line for line in out.splitlines() if "FAIL" in line] == ["structure: FAIL"]


def _scaled(section, key, factor):
    def tamper(rep):
        rep[section][key] = factor * np.asarray(rep[section][key])
    return tamper


# a stored claim of the CNOT report, and the one check that must fail on it
CLAIM_TAMPERS = {
    "coefficients x3": (_scaled("schmidt", "coefficients", 3), "schmidtRank"),
    "savingsEbits 9": (lambda rep: rep["costs"].update(savingsEbits=9), "costs"),
    "mStatus.deviation + 1": (lambda rep: rep["mStatus"].update(
        deviation=rep["mStatus"]["deviation"] + 1), "mStatus"),
    "targets x2": (_scaled("classification", "targets", 2), "classification"),
    "projectors x0": (_scaled("classification", "projectors", 0), "classification"),
    "one projector dropped": (lambda rep: rep["classification"]["projectors"].pop(),
                              "classification"),
}


@pytest.mark.parametrize("tamper, check", CLAIM_TAMPERS.values(), ids=CLAIM_TAMPERS.keys())
def test_tampered_claims_fail_verification(tamper, check, cnot_file, tmp_path, capsys):
    rep = _report(cnot_file, tmp_path)
    assert rep["classification"]["label"] == "controlled-unitary"
    tamper(rep)
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 4
    assert [line for line in out.splitlines() if "FAIL" in line] == [f"{check}: FAIL"]


def _protocol_with(**fields):
    def tamper(rep):
        rep["protocol"].update(fields)
    return tamper


def _protocol_without(key):
    def tamper(rep):
        del rep["protocol"][key]
    return tamper


# a change to the CNOT report's protocol section, and the exit code verify must
# give: 4 with the one FAIL line "protocol: FAIL", or 2 with one error line
PROTOCOL_TAMPERS = {
    "ebits 0": (_protocol_with(ebits=0), 4),
    "cbits 99": (_protocol_with(cbits=99), 4),
    "branches 1": (_protocol_with(branches=1), 4),
    "deterministic false": (_protocol_with(deterministic=False), 4),
    "minFidelity 0.5": (_protocol_with(minFidelity=0.5), 4),
    "minFidelity 7": (_protocol_with(minFidelity=7.0), 4),
    "minFidelity 1.00001": (_protocol_with(minFidelity=1.00001), 4),
    "probabilitySum 0.9": (_protocol_with(probabilitySum=0.9), 4),
    "probabilitySum text": (_protocol_with(probabilitySum="x"), 2),
    "branches float": (_protocol_with(branches=4.0), 2),
    "deterministic text": (_protocol_with(deterministic="true"), 2),
    "ebits true": (_protocol_with(ebits=True), 2),
    "an extra field": (_protocol_with(seed=1), 2),
    "no cbits": (_protocol_without("cbits"), 2),
    "section a string": (lambda rep: rep.update(protocol="deterministic"), 2),
    "section a list": (lambda rep: rep.update(protocol=[]), 2),
    "section null": (lambda rep: rep.update(protocol=None), 0),
}


@pytest.mark.parametrize("tamper, code", PROTOCOL_TAMPERS.values(), ids=PROTOCOL_TAMPERS.keys())
def test_tampered_protocol_fails_verification(tamper, code, cnot_file, tmp_path, capsys):
    rep = _report(cnot_file, tmp_path)
    assert rep["protocol"] == {"branches": 4, "cbits": 2.0, "deterministic": True, "ebits": 1.0,
                               "minFidelity": 1.0, "probabilitySum": 1.0}
    tamper(rep)
    got, out, err = _verify(rep, tmp_path, capsys)
    assert got == code
    if code == 4:
        assert [line for line in out.splitlines() if "FAIL" in line] == ["protocol: FAIL"]
    elif code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert main(["simulate", str(tmp_path / "bad.json")]) == 2
        capsys.readouterr()
    else:
        assert "protocol: ok" in out


def _uncertified_s4_report(tmp_path, monkeypatch):
    """The report compile writes for the uncertified S4 expansion: its protocol
    verdict is false, and verify fails its certified check alone."""
    _, s4 = uncertified_s4_expansion()
    monkeypatch.setattr(nlgc.cli, "_compile_from_args", lambda args, bu: s4)
    gate = write_gate(tmp_path / "w2w3.json", haar_block_gate(4, [2, 3], seed=7).matrix, 4, 5)
    rep = _report(gate, tmp_path, "--side", "B")
    assert rep["protocol"]["deterministic"] is False
    return rep


def test_an_uncertified_report_cannot_claim_determinism(tmp_path, capsys, monkeypatch):
    rep = _uncertified_s4_report(tmp_path, monkeypatch)
    rep["protocol"].update(deterministic=True, probabilitySum=1.0, minFidelity=1.0)
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 4
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "certified: FAIL", "protocol: FAIL"]


# a fidelity |<target, normalized output>| lies in [0, 1] and a probability sum
# is a sum of squared norms, whatever the verdict
IMPOSSIBLE_PROTOCOL_NUMBERS = {"minFidelity -5": {"minFidelity": -5.0},
                               "minFidelity 1.5": {"minFidelity": 1.5},
                               "minFidelity 7": {"minFidelity": 7.0},
                               "probabilitySum -3": {"probabilitySum": -3.0}}


@pytest.mark.parametrize("fields", IMPOSSIBLE_PROTOCOL_NUMBERS.values(),
                         ids=IMPOSSIBLE_PROTOCOL_NUMBERS.keys())
def test_an_uncertified_report_cannot_store_impossible_protocol_numbers(
        fields, tmp_path, capsys, monkeypatch):
    rep = _uncertified_s4_report(tmp_path, monkeypatch)
    rep["protocol"].update(fields)
    code, out, _ = _verify(rep, tmp_path, capsys)
    assert code == 4
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "certified: FAIL", "protocol: FAIL"]


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


@pytest.mark.parametrize("name", ["../evil", "", ".", "..", "sub/evil", ["evil"], 7])
def test_groups_load_rejects_names_that_are_not_file_names(name, tmp_path, capsys,
                                                           monkeypatch):
    raw = tmp_path / "evil.json"
    raw.write_text(json.dumps({**cyclic(2).to_dict(), "name": name}))
    before = raw.read_text()
    monkeypatch.setenv("NLGC_CATALOG_DIR", str(tmp_path / "catalog"))
    assert main(["groups", "load", str(raw)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert [p.name for p in tmp_path.iterdir()] == ["evil.json"]
    assert raw.read_text() == before


def test_catalog_dir_feeds_the_search(tmp_path, capsys, monkeypatch):
    # a qutrit controlled phase needs order 3; hand the search a renamed
    # C3 through the catalog directory and check it is picked up
    w = np.exp(2j * np.pi / 3)
    m = np.diag([1, 1, 1, 1, w, w ** 2, 1, w ** 2, w]).astype(complex)
    gate = write_gate(tmp_path / "cphase.json", m, 3, 3)
    catdir = tmp_path / "catalog"
    catdir.mkdir()
    renamed = replace(cyclic(3), name="MyZ3")
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
