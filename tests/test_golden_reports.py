"""Canonical report bytes of fixed gates, pinned by SHA-256.

A report holds every float at 12 significant digits, so a hash pins the
group, the route, the costs, the operators, the simulated branches and the
warnings at once. Noise-level floats such as the residual make the hashes
specific to a numpy and BLAS build. The block split is gauge-fixed, so it
does not depend on which basis LAPACK returns: these reports, and those of
Haar 3x3 seeds 3, 4, 5, 8 and 9, are byte-identical under one and two BLAS
threads, which a subprocess test checks. The earlier-compiles test
compiles several gates in one process and checks that nothing a compile
leaves behind in the process changes a later report.

report_differences compares two reports structurally (everything but
floats, and the costs in full) and their floats to a tolerance. It sits
beside the hashes, for changes that move only the last digits of a
report; it replaces none of them.
"""
import copy
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nlgc import (BipartiteUnitary, build_report, canonical_json,
                  compile_unitary, random_states, simulate_protocol)
from nlgc.expansion import synthesize_group_gate
from nlgc.groups import alternating, builtin_catalog


def haar_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


OMEGA = np.exp(2j * np.pi / 3)
GATES = {
    "cnot": (np.eye(4)[[0, 1, 3, 2]], 2, 2),
    "swap": (np.eye(4)[[0, 2, 1, 3]], 2, 2),
    "qutrit-cp": (np.diag([OMEGA ** (i * j) for i in range(3) for j in range(3)]), 3, 3),
    "haar3x3": (haar_unitary(9, 6), 3, 3),
    "haar4x4": (haar_unitary(16, 4), 4, 4),
}

GOLDEN_SHA256 = {
    "cnot": "78d5cb781f5f5a97028b59acd80c2433965e8c87ab02813fe7782032a1b6f870",
    "swap": "4186a33b6a16b524619f535dbf9fe56c023708c789fa9ed7111158f571537db0",
    "qutrit-cp": "70cdaedcc7f5fa5c3c6b1eb509d7a1ac172a12c5710e55d28cf9ebd404e9289b",
    "haar3x3": "ebf89476bce147c916724f533870e25b57fee4e002be011a1b79781e4c923eac",
    "haar4x4": "27ca51f684dc8fd3047fda1c0efb342a68dc97735318b67159a4a87fa2f080ec",
}


def gate(name):
    matrix, d_a, d_b = GATES[name]
    return BipartiteUnitary(np.asarray(matrix, dtype=complex), d_a, d_b)


def canonical_report(bu, **kwargs):
    exp = compile_unitary(bu, **kwargs)
    psi = random_states(exp.unitary.dim, 1, seed=0)[0]
    return canonical_json(build_report(exp, simulate_protocol(exp, psi), original=bu))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_canonical_report_matches_its_pinned_hash(name):
    assert sha256(canonical_report(gate(name))) == GOLDEN_SHA256[name]


def test_earlier_compiles_leave_later_reports_unchanged():
    cnot = gate("cnot")
    first = canonical_report(cnot)
    canonical_report(gate("haar3x3"))
    again = canonical_report(cnot)
    explicit = canonical_report(cnot, catalog=builtin_catalog(32))
    assert first == again == explicit
    assert sha256(first) == GOLDEN_SHA256["cnot"]


@pytest.mark.parametrize("name", [*sorted(GATES), "haar2x3", "synth-A4"])
def test_lazy_default_index_reports_equal_the_built_catalogs(name):
    """The default index builds each order on first use; handing it every
    group of builtin_catalog() already built changes no byte."""
    if name == "haar2x3":
        bu = BipartiteUnitary(haar_unitary(6, 2), 2, 3)
    elif name == "synth-A4":
        bu = synthesize_group_gate(alternating(4), seed=3)
    else:
        bu = gate(name)
    lazy = canonical_report(bu)
    assert lazy == canonical_report(bu, catalog=builtin_catalog())
    assert json.loads(lazy)["expansion"]["fallback"] == (name == "haar4x4")


# The section whose floats must match exactly, like every non-float value.
EXACT_SECTION = "/costs"


def report_differences(a, b, tol=1e-10):
    """JSON paths at which two reports differ: keys, lengths, strings, ints
    (the group table, blocks and classes among them), booleans and the costs
    exactly, other floats beyond tol. tol=math.inf compares the structure."""
    out = []

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict):
            if x.keys() != y.keys():
                out.append(path)
                return
            for k in x:
                walk(x[k], y[k], f"{path}/{k}")
        elif isinstance(x, list) and isinstance(y, list):
            if len(x) != len(y):
                out.append(path)
                return
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, f"{path}/{i}")
        elif (type(x) is float and type(y) is float
              and not path.startswith(EXACT_SECTION)):
            if not abs(x - y) <= tol:
                out.append(path)
        elif type(x) is not type(y) or x != y:
            out.append(path)

    walk(a, b, "")
    return out


def test_report_differences_tolerates_only_float_noise():
    report = json.loads(canonical_report(gate("qutrit-cp")))
    assert report_differences(report, copy.deepcopy(report)) == []

    nudged = copy.deepcopy(report)
    nudged["expansion"]["v"][0][0][0] += 1e-13
    nudged["expansion"]["residual"] += 1e-13
    assert report_differences(report, nudged) == []

    moved = copy.deepcopy(report)
    moved["expansion"]["v"][0][0][0] += 1e-6
    assert report_differences(report, moved) == ["/expansion/v/0/0/0"]
    assert report_differences(report, moved, tol=math.inf) == []

    rerouted = copy.deepcopy(report)
    rerouted["expansion"]["route"] = "fallback"
    assert report_differences(report, rerouted, tol=math.inf) == ["/expansion/route"]

    relabelled = copy.deepcopy(report)
    relabelled["group"]["table"][1][2] += 1
    assert report_differences(report, relabelled, tol=math.inf) == ["/group/table/1/2"]

    regrouped = copy.deepcopy(report)
    assert report["blocks"]["A"]["classes"] == [[0], [1], [2]]
    regrouped["blocks"]["A"]["classes"] = [[0], [2], [1]]
    assert report_differences(report, regrouped, tol=math.inf) == [
        "/blocks/A/classes/1/0", "/blocks/A/classes/2/0"]

    costlier = copy.deepcopy(report)
    costlier["costs"]["costEbits"] += 1e-13
    assert report_differences(report, costlier) == ["/costs/costEbits"]


DETERMINISM_SCRIPT = """
import json, sys
import numpy as np
import test_golden_reports as g
reports = {name: g.canonical_report(g.gate(name)) for name in sorted(g.GATES)}
for seed in (3, 4, 5, 8, 9):
    bu = g.BipartiteUnitary(g.haar_unitary(9, seed), 3, 3)
    reports[f"haar3x3-seed{seed}"] = g.canonical_report(bu)
json.dump(reports, sys.stdout)
"""


def test_reports_do_not_depend_on_the_blas_thread_count():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, here]))
        proc = subprocess.run([sys.executable, "-c", DETERMINISM_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=600, check=True)
        outputs.append(json.loads(proc.stdout))
    assert len(outputs[0]) == 10
    assert outputs[0] == outputs[1]
