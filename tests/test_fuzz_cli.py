"""Mutated input files: the CLI exits 0, 2, 3 or 4 on each, never raises, and
an exit 2 prints exactly one error line."""
import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlgc.cli import main
from nlgc.groups import symmetric
from nlgc.report import canonical_json, matrix_payload, state_payload
from nlgc.schmidt import BipartiteUnitary

FUZZ = settings(max_examples=30, deadline=None, derandomize=True, database=None)

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)

RETYPED = ["x", "2", None, True, {}, [], 0, -1, 2.5, [[1, 0]]]
SPECIAL = [math.nan, math.inf, -math.inf, 1e308, -1e308]


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid documents of each kind, and the CNOT report file a state runs on."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("NLGC_CATALOG_DIR", raising=False)
        root = tmp_path_factory.mktemp("fuzz")
        gate = matrix_payload(BipartiteUnitary(CNOT, 2, 2))
        (root / "gate.json").write_text(canonical_json(gate))
        report = root / "report.json"
        assert _run(["compile", str(root / "gate.json"), "--out", str(report)])[0] == 0
        psi = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
        docs = {"gate": json.loads(canonical_json(gate)),
                "state": json.loads(canonical_json(state_payload(psi))),
                "group": symmetric(3).to_dict(),
                "report": json.loads(report.read_text())}
        yield root, docs


# the commands each kind of file is fed to; {} is the mutated file
COMMANDS = {
    "gate": [["compile", "{}"], ["schmidt", "{}"], ["simulate", "{}"]],
    "state": [["simulate", "REPORT", "--state", "{}"]],
    "group": [["groups", "load", "{}"]],
    "report": [["verify", "{}"], ["simulate", "{}"]],
}


def _slots(doc):
    """(container, key) of every value below the top-level object."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


@st.composite
def mutated(draw, doc):
    """doc with one to three of: a key or element dropped, a value of another
    type, NaN/Inf/1e308, a row made ragged, a shape changed."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        value = node[key]
        op = draw(st.sampled_from(["drop", "retype", "special", "shorten", "grow", "wrap"]))
        if op == "drop":
            del node[key]
        elif op == "retype":
            node[key] = copy.deepcopy(draw(st.sampled_from(RETYPED)))
        elif op == "special":
            node[key] = draw(st.sampled_from(SPECIAL))
        elif op == "shorten" and isinstance(value, list) and value:
            value.pop()
        elif op == "grow" and isinstance(value, list) and value:
            value.append(copy.deepcopy(value[-1]))
        else:
            node[key] = [value]
    return doc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # numpy on NaN, Inf and 1e308
@pytest.mark.parametrize("kind", COMMANDS)
@FUZZ
@given(data=st.data())
def test_mutated_files_never_raise(kind, inputs, data):
    root, docs = inputs
    doc = data.draw(mutated(docs[kind]))
    path = root / f"mutated-{kind}.json"
    path.write_text(json.dumps(doc))
    argv = data.draw(st.sampled_from(COMMANDS[kind]))
    argv = [{"{}": str(path), "REPORT": str(root / "report.json")}.get(a, a) for a in argv]
    code, err = _run(argv)
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
