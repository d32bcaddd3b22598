"""Print the SHA-256 of every bench report and of a fixed set of CLI reports.

Usage: python tools/report_digests.py

One sorted `key sha256 exit` line per report:

- the in-process reports of the three bench workloads at seeds 1 to 3,
  144 in all, each made by benchmarks/pipeline.py's in_process from the
  gates of benchmarks/workloads.py and the states benchmarks/run.py draws
  for them; exit is 0 when every check of that pipeline passes,
  verify_report's among them, and 1 otherwise
- the reports of 35 `nlgc compile` processes: CNOT, SWAP, Haar 3x3 (seed
  6), Haar 4x4 (seed 4) and the 3x2 controlled phase, each with no flag,
  `--seed 5`, `--side A`, `--side B`, `--no-projective` and `--max-order 8`,
  and with no flag under an NLGC_CATALOG_DIR that holds a relabelled D4,
  which the catalog drops, and C2xC2xC2xC2, which it keeps; exit is the
  process's exit code, and sha256 is that of its report file

The script exits 1 when an in-process report fails a check. A change
keeps every report byte when this output is the same before and after
it. The digests of larger gates depend on the CPU's BLAS kernels, so
compare two runs on one host, under one BLAS thread count, rather than
pinning them.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "benchmarks")]

import nlgc  # noqa: E402
import pipeline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
CLI_FLAGS = {"default": [], "seed5": ["--seed", "5"], "sideA": ["--side", "A"],
             "sideB": ["--side", "B"], "no-projective": ["--no-projective"],
             "max-order8": ["--max-order", "8"]}


def in_process_lines() -> list[str]:
    lines = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            gates = workloads.build(workload, seed, nlgc)
            rng = np.random.default_rng([seed, 4])      # as benchmarks/run.py draws them
            states = {g.gate_id: pipeline.random_states(g, rng, pipeline.STATES) for g in gates}
            for gate in gates:
                rec = pipeline.in_process(nlgc, gate, states[gate.gate_id], tracing.NullTracer())
                lines.append(f"{workload}/seed{seed}/{gate.gate_id} {rec['sha256']} "
                             f"{1 if rec['failures'] else 0}")
    return lines


def cli_gates() -> dict:
    named = {name: (m, da, db) for name, m, da, db, _ in workloads._named_gates()}
    haar = workloads.haar_unitary
    return {"cnot": named["cnot"], "swap": named["swap"],
            "haar3x3": (haar(9, np.random.default_rng(6)), 3, 3),
            "haar4x4": (haar(16, np.random.default_rng(4)), 4, 4),
            "ctrl-phase3x2": named["qutrit-ctrl-z"]}


def catalog_dir(workdir: str) -> str:
    """A group catalog directory holding D4 with its elements renumbered and C2^4."""
    path = os.path.join(workdir, "catalog")
    os.makedirs(path)
    d4, c2 = nlgc.groups.dihedral(4), nlgc.groups.cyclic(2)
    p = np.random.default_rng(0).permutation(d4.order)
    table = np.empty_like(d4.table)
    table[p[:, None], p] = p[d4.table]
    c2x4 = nlgc.groups.direct_product(nlgc.groups.direct_product(c2, c2),
                                      nlgc.groups.direct_product(c2, c2))
    for g in (nlgc.FiniteGroup("D4relabelled", table), c2x4):
        nlgc.groups.save_group_file(g, os.path.join(path, f"{g.name}.json"))
    return path


def cli_lines(workdir: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get(
        "PYTHONPATH")])))
    runs = [(tag, flags, env) for tag, flags in CLI_FLAGS.items()]
    runs.append(("catalog-dir", [], dict(env, NLGC_CATALOG_DIR=catalog_dir(workdir))))
    lines = []
    for name, (matrix, d_a, d_b) in cli_gates().items():
        gate_path = os.path.join(workdir, f"{name}.json")
        with open(gate_path, "w", encoding="utf-8") as fh:
            json.dump({"dimA": d_a, "dimB": d_b, "matrix": [
                [[z.real, z.imag] for z in row] for row in np.asarray(matrix, dtype=complex)]}, fh)
        for tag, flags, run_env in runs:
            out = os.path.join(workdir, f"{name}-{tag}.report.json")
            code = subprocess.run([sys.executable, "-m", "nlgc.cli", "compile", gate_path,
                                   "--out", out, *flags], env=run_env,
                                  capture_output=True).returncode
            digest = "-"
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"cli/{name}/{tag} {digest} {code}")
    return lines


def main() -> int:
    lines = in_process_lines()
    failed = any(not line.endswith(" 0") for line in lines)
    with tempfile.TemporaryDirectory() as workdir:
        lines += cli_lines(workdir)
    print("\n".join(sorted(lines)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
