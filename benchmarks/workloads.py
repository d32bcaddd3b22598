"""Seeded inputs of the benchmark workloads and their expected costs.

The seed only draws matrices: local dressings, Haar-random gates and the
random W of synthesized gates. The list of gate kinds in a workload is
fixed, so every seed asks for the same kind and amount of work. Expected
costs come from outside the compiler: known answers for the named gates,
2*log2(min(dA, dB)) for Haar gates, and for synthesized gates the bounds
log2(Schmidt rank), computed here with numpy's SVD, and log2|G|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("small-gates", "synth-12", "dense-random")

# Seconds one pass of each workload takes on the reference host (2-vCPU
# Xeon VM, Python 3.11, numpy 2.4, one BLAS thread), CLI slots included. A
# run does the number of whole passes that lasts --seconds there, so every
# run of a workload does the same work and holds the same mix of gates.
PASS_SECONDS = {"small-gates": 12.0, "synth-12": 48.0, "dense-random": 27.0}
# Points per pass at which a workload sends one gate through `nlgc
# compile`, `verify` and `simulate` and times a fresh `import nlgc`.
SLOTS_PER_PASS = {"small-gates": 3, "synth-12": 6, "dense-random": 6}


@dataclass
class Gate:
    gate_id: str
    matrix: np.ndarray
    dim_a: int
    dim_b: int
    cost_min: float            # ebits the result may not undercut
    cost_max: float            # ebits the result may not exceed
    compile_exit: int = 0      # expected exit code of `nlgc compile`


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def schmidt_rank(matrix: np.ndarray, dim_a: int, dim_b: int) -> int:
    """Operator Schmidt rank by realignment and SVD, independent of nlgc."""
    r = matrix.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3)
    s = np.linalg.svd(r.reshape(dim_a * dim_a, dim_b * dim_b), compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0]))


def _named_gates():
    w = np.exp(2j * np.pi / 3)
    return [
        ("cnot", np.eye(4)[[0, 1, 3, 2]], 2, 2, 1.0),
        ("cz", np.diag([1, 1, 1, -1]), 2, 2, 1.0),
        ("swap", np.eye(4)[[0, 2, 1, 3]], 2, 2, 2.0),
        ("qutrit-cp", np.diag([w ** (i * j) for i in range(3) for j in range(3)]),
         3, 3, math.log2(3)),
        ("qutrit-ctrl-z", np.diag([1, 1, 1, -1, 1, -1]), 3, 2, 1.0),
    ]


def small_gates(seed: int, dressings: int = 2) -> list[Gate]:
    """Local dressings (a x b) G (c x d) of gates with known costs."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for rep in range(dressings):
        for name, g, da, db, cost in _named_gates():
            a, b, c, d = (haar_unitary(n, rng) for n in (da, db, da, db))
            m = np.kron(a, b) @ np.asarray(g, dtype=complex) @ np.kron(c, d)
            out.append(Gate(f"{name}#{rep}", m, da, db, cost, cost))
    return out


DENSE_DIMS = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 4)]


def dense_random(seed: int, draws: int = 3) -> list[Gate]:
    """Haar gates; they cost exactly 2*log2(min(dA, dB)), with fallback at 4x4."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for rep in range(draws):
        for da, db in DENSE_DIMS:
            cost = 2 * math.log2(min(da, db))
            # only 4x4 exhausts the catalog search and falls back (exit code 3)
            out.append(Gate(f"haar{da}x{db}#{rep}", haar_unitary(da * db, rng), da, db,
                            cost, cost, 3 if (da, db) == (4, 4) else 0))
    return out


def _synth_groups(nlgc):
    """(group, draws): one draw of the groups of order 2 to 4 and 10 to 12,
    two of the seven groups of order 6 to 9."""
    g = nlgc.groups
    mid = [g.symmetric(3), g.cyclic(6), g.dihedral(4), g.quaternion(),
           g.direct_product(g.cyclic(2), g.cyclic(4)), g.cyclic(8),
           g.direct_product(g.cyclic(3), g.cyclic(3))]
    return ([(g.cyclic(n), 1) for n in (2, 3, 4)] + [(x, 2) for x in mid]
            + [(g.dihedral(5), 1), (g.cyclic(11), 1), (g.alternating(4), 1)])


def synth_12(seed: int, nlgc) -> list[Gate]:
    """Gates synthesized from a fixed set of catalog groups of order <= 12.

    The set keeps one group of each order 10, 11 and 12, which do most of
    the work, the cyclic groups of order 2 to 4, and two draws each of
    seven groups of order 6 to 9 whose gates take about the same time, so
    that the median latency falls among fourteen close neighbours rather
    than on one sample. The seed only draws W.
    """
    rng = np.random.default_rng([seed, 3])
    out = []
    for group, draws in _synth_groups(nlgc):
        for rep in range(draws):
            while True:
                try:
                    bu = nlgc.synthesize_group_gate(group, seed=int(rng.integers(2 ** 31)))
                    break
                except nlgc.InconsistencyError:
                    continue          # near-singular draw: take the next one
            rank = schmidt_rank(bu.matrix, bu.dim_a, bu.dim_b)
            out.append(Gate(f"synth-{group.name}#{rep}", bu.matrix, bu.dim_a, bu.dim_b,
                            math.log2(rank), math.log2(group.order)))
    return out


def build(workload: str, seed: int, nlgc, tiny: bool = False) -> list[Gate]:
    """The gate list one pass of the workload runs, in order."""
    if workload == "small-gates":
        gates = small_gates(seed)
    elif workload == "dense-random":
        gates = dense_random(seed)
    elif workload == "synth-12":
        gates = synth_12(seed, nlgc)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return gates[:1] if tiny else gates


def slot_gates(workload: str, gates: list[Gate], slots: int) -> list[Gate]:
    """The gate each CLI slot of a pass sends through the nlgc CLI.

    Every slot takes the pass's first gate, so the CLI samples of a run are
    alike; in dense-random the last slot takes the first 4x4 gate instead,
    whose `nlgc compile` must fall back and exit 3.
    """
    out = [gates[0]] * slots
    fallback = [g for g in gates if g.compile_exit == 3]
    if workload == "dense-random" and fallback and slots > 1:
        out[-1] = fallback[0]
    return out
