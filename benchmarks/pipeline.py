"""One certified gate, in process or through nlgc CLI processes, with checks.

The in-process pipeline is what a library user runs to get a certified
result: compile_unitary, exhaustive branch simulation on k states,
build_report + canonical_json, and verify_report on the parsed JSON. The
CLI round trip is `nlgc compile`, `nlgc verify` and `nlgc simulate
--random k`, each a fresh process. Every output is checked against the
gate's expected cost and against a reconstruction of the gate from the
report that uses numpy only.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time

import numpy as np

STATES = 4                 # states simulated per gate (k)
RESIDUAL_TOL = 1e-8
DETERMINISM_TOL = 1e-9
COST_TOL = 1e-9
PROCESS_TIMEOUT_S = 150


def cost_failure(gate, cost: float) -> str | None:
    if gate.cost_min - COST_TOL <= cost <= gate.cost_max + COST_TOL:
        return None
    if gate.cost_min == gate.cost_max:
        return f"cost {cost!r} ebits, expected {gate.cost_max!r}"
    return f"cost {cost!r} ebits outside [{gate.cost_min!r}, {gate.cost_max!r}]"


def _complex(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def report_failures(gate, report: dict) -> list[str]:
    """Checks of a parsed report that do not use nlgc.

    The gate is rebuilt as sum_f (V U(f)) (x) W(f) from the report's
    matrices, in the orientation of the report's side, and compared with
    the input gate.
    """
    out = []
    cost = report["costs"]["costEbits"]
    msg = cost_failure(gate, cost)
    if msg:
        out.append(msg)
    exp = report["expansion"]
    if not exp["residual"] <= RESIDUAL_TOL:
        out.append(f"reported residual {exp['residual']!r}")
    v = _complex(exp["v"])
    u_ops = _complex(exp["uOps"])
    w_ops = _complex(exp["wOps"])
    target = gate.matrix
    if exp["side"] == "B":
        da, db = gate.dim_a, gate.dim_b
        target = target.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, -1)
    rebuilt = sum(np.kron(v @ u, w) for u, w in zip(u_ops, w_ops))
    residual = float(np.linalg.norm(target - rebuilt))
    if not residual <= RESIDUAL_TOL:
        out.append(f"gate rebuilt from the report is off by {residual:.3e}")
    return out


def random_states(gate, rng: np.random.Generator, count: int) -> np.ndarray:
    dim = gate.dim_a * gate.dim_b
    raw = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _framed(psi: np.ndarray, gate, side: str) -> np.ndarray:
    """A state of the user orientation, in the orientation of the expansion."""
    if side == "A":
        return psi
    return psi.reshape(gate.dim_a, gate.dim_b).T.reshape(-1)


def _branch_failure(trace) -> str | None:
    probs = np.asarray(trace.branch_probabilities)
    fids = np.asarray(trace.branch_fidelities)
    live = probs > 1e-12
    if not trace.deterministic:
        return "protocol flagged non-deterministic"
    if not abs(probs.sum() - 1.0) <= DETERMINISM_TOL:
        return f"branch probabilities sum to {probs.sum()!r}"
    if not np.all(fids[live] >= 1.0 - DETERMINISM_TOL):
        return f"branch fidelity {fids[live].min()!r} below 1"
    return None


def in_process(nlgc, gate, states, tracer) -> dict:
    """Run and check one gate through the in-process certified pipeline."""
    rec = {"gate": gate.gate_id, "step": "gate", "failures": [], "cost": None,
           "sha256": None}
    start = time.perf_counter()
    with tracer.span("gate", "bench"):
        _certify(nlgc, gate, states, rec)
    rec["wall_s"] = time.perf_counter() - start
    return rec


def _certify(nlgc, gate, states, rec) -> None:
    try:
        t0 = time.perf_counter()
        bu = nlgc.BipartiteUnitary(gate.matrix, gate.dim_a, gate.dim_b)
        exp = nlgc.compile_unitary(bu)
        t1 = time.perf_counter()
        traces = [nlgc.simulate_protocol(exp, _framed(psi, gate, exp.side))
                  for psi in states]
        text = nlgc.canonical_json(nlgc.build_report(exp, traces[0], original=bu))
        report = json.loads(text)
        verified, checks = nlgc.verify_report(report)
        t2 = time.perf_counter()
    except Exception as exc:   # a raising gate is a failed operation
        rec["failures"].append(f"raised {type(exc).__name__}: {exc}")
        return
    rec.update(compile_s=t1 - t0, latency_s=t2 - t0, cost=exp.cost_ebits,
               sha256=hashlib.sha256(text.encode()).hexdigest())
    fails = rec["failures"]
    msg = cost_failure(gate, exp.cost_ebits)
    if msg:
        fails.append(msg)
    if not exp.residual <= RESIDUAL_TOL:
        fails.append(f"residual {exp.residual!r}")
    fails.extend(filter(None, (_branch_failure(t) for t in traces)))
    if not verified:
        fails.append("verify_report failed: "
                     + ", ".join(k for k, ok in checks.items() if not ok))
    fails.extend(report_failures(gate, report))


def _run(cmd, env) -> tuple[int, str, float]:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, "", time.perf_counter() - t0
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def cli_roundtrip(gate, workdir: str, tag: str, command, env, scale_after) -> list[dict]:
    """`nlgc compile`, `verify`, `simulate` on one gate file; one record each.

    command(subcommand) gives the argument list that starts one nlgc CLI
    process. scale_after() is called right after each process, and what it
    returns is the record's time scale. A round trip stops after a failed
    compile.
    """
    gate_path = os.path.join(workdir, f"{tag}-gate.json")
    report_path = os.path.join(workdir, f"{tag}-report.json")
    with open(gate_path, "w", encoding="utf-8") as fh:
        json.dump({"dimA": gate.dim_a, "dimB": gate.dim_b,
                   "matrix": [[[z.real, z.imag] for z in row] for row in gate.matrix]}, fh)

    code, _, wall = _run(command("compile") + [gate_path, "--out", report_path], env)
    rec = {"gate": gate.gate_id, "step": "compile", "wall_s": wall, "scale": scale_after(),
           "failures": [], "cost": None, "sha256": None}
    out = [rec]
    if code != gate.compile_exit:
        rec["failures"].append(f"nlgc compile exited {code}, expected {gate.compile_exit}")
        return out
    try:
        with open(report_path, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        rec["failures"].append(f"unreadable report: {exc}")
        return out
    rec["cost"] = report["costs"]["costEbits"]
    rec["sha256"] = hashlib.sha256(raw).hexdigest()
    rec["failures"].extend(report_failures(gate, report))
    if not (report.get("protocol") or {}).get("deterministic"):
        rec["failures"].append("report protocol is not deterministic")

    code, stdout, wall = _run(command("verify") + [report_path], env)
    rec = {"gate": gate.gate_id, "step": "verify", "wall_s": wall, "scale": scale_after(),
           "failures": []}
    if code != 0 or not stdout.rstrip().endswith("verified"):
        rec["failures"].append(f"nlgc verify exited {code}")
    out.append(rec)

    code, stdout, wall = _run(command("simulate") + [report_path, "--random", str(STATES)], env)
    rec = {"gate": gate.gate_id, "step": "simulate", "wall_s": wall, "scale": scale_after(),
           "failures": []}
    certified = stdout.count("deterministic=yes")
    if code != 0 or certified != STATES:
        rec["failures"].append(f"nlgc simulate exited {code} with {certified} of "
                               f"{STATES} states deterministic")
    out.append(rec)
    return out
