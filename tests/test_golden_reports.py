"""Canonical report bytes of fixed gates, pinned by SHA-256.

A report holds every float at 12 significant digits, so a hash pins the
group, the route, the costs, the operators, the simulated branches and the
warnings at once. Noise-level floats such as the residual make the hashes
specific to a numpy and BLAS build; the Haar seeds are ones whose reports
agree between one and two BLAS threads. The last test compiles several
gates in one process and checks that nothing a compile leaves behind in
the process changes a later report.
"""
import hashlib

import numpy as np
import pytest

from nlgc import (BipartiteUnitary, build_report, canonical_json,
                  compile_unitary, random_states, simulate_protocol)
from nlgc.groups import builtin_catalog


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
    "cnot": "6bf496c3a015be5e98c7fb572a457025065e9c298789342a36869fa0ad42f84a",
    "swap": "98b236d5a77347c849dbf2849b15eadf74e55547b9cb7ad43b2009fda6ae832b",
    "qutrit-cp": "9a15acb1cfb8e908d77f9b810bb3aa5401318527c3f86f42ca3139ffbceeae4a",
    "haar3x3": "844df00dd8c21f6976d8b215d605e22bcce6165f0b13b4b220f59dc249427ae5",
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
