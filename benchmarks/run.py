"""Benchmark of certified nlgc compiles, end to end and per layer.

Run from the root of the repository:

  python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1
  python3 benchmarks/run.py --smoke

NAME is small-gates, synth-12 or dense-random (see benchmarks/README.md).
Load comes from this one process in a closed loop: the next gate starts
when the previous one is certified, and nlgc CLI processes run one at a
time. The loop runs whole passes over the workload's gate list: as many
as last S seconds on the reference host, so every run of a workload does
the same work. Times are scaled to host speed references (speed.py).

--trace 0 prints the end-to-end metrics. --trace 1 runs one pass
untraced, in a fresh process, and the same pass traced, with every public
nlgc layer function wrapped; it prints the per-layer metrics and writes
the spans to .bench_out/. The last line of standard output is the result
as one JSON object; the line before it holds run metadata. A tree without
src/nlgc exits with code 2 and prints no result.
"""
from __future__ import annotations

import os
import sys

# Fixed before numpy loads; every child process inherits it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("NLGC_CATALOG_DIR", None)   # the catalog stays the built-in one

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import pipeline  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import nlgc; "
                "print(repr(time.perf_counter() - t)); print(nlgc.__file__)")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def import_nlgc():
    if not os.path.isfile(os.path.join(SRC, "nlgc", "__init__.py")):
        raise BenchError(f"no nlgc sources under {SRC}")
    sys.path.insert(0, SRC)
    import nlgc
    if not os.path.abspath(nlgc.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported nlgc from {nlgc.__file__}, not from {SRC}")
    return nlgc


def setup_time() -> float:
    """`import nlgc` time of one fresh process, as a user's script pays it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not lines[1].startswith(SRC):
        raise BenchError(f"import probe failed: {proc.stderr.strip()[-300:]}")
    return float(lines[0])


def _slots(n_items: int, n_slots: int) -> set[int]:
    """Indices, spread evenly over a pass, after which an extra step runs."""
    return {round((j + 1) * n_items / n_slots) - 1 for j in range(min(n_slots, n_items))}


def measure(nlgc, workload: str, gates, seed: int, passes: int, tiny: bool,
            tracer, workdir: str, probes: bool) -> dict:
    """Closed loop over whole passes of the gate list.

    At slots spread evenly over a pass, so that they sample the same
    stretch of time as the gates, one gate goes through the nlgc CLI and,
    when probes is set, a fresh process times `import nlgc`. With probes
    the host speed references (speed.py) also run around every timed
    sample, and each record keeps its scale, nominal / mean reference;
    traced passes and the untraced pass they are compared with leave the
    references out and keep scale 1.
    """
    rng = np.random.default_rng([seed, 4])
    states = {g.gate_id: pipeline.random_states(g, rng, pipeline.STATES) for g in gates}
    env = child_env()
    traced = isinstance(tracer, tracing.Tracer)
    spans_files = []

    def command(sub: str) -> list[str]:
        if not traced:
            return [sys.executable, "-m", "nlgc.cli", sub]
        spans_files.append(os.path.join(workdir, f"spans-{len(spans_files)}.json"))
        return [sys.executable, os.path.join(HERE, "cli_shim.py"), spans_files[-1], sub]

    process_refs = []

    def process_scale() -> float:
        """Scale of the process that just ended, from the process references
        right before and right after it."""
        if not probes:
            return 1.0
        process_refs.append(speed.process_s(env))
        return speed.PROCESS_NOMINAL_S / ((process_refs[-2] + process_refs[-1]) / 2)

    n_slots = 1 if tiny else workloads.SLOTS_PER_PASS[workload]
    slot_at = sorted(_slots(len(gates), n_slots))
    slot_gate = dict(zip(slot_at, workloads.slot_gates(workload, gates, len(slot_at))))
    records, setup = [], []
    t0 = time.perf_counter()
    for p in range(passes):
        for i, gate in enumerate(gates):
            before = speed.kernel_s() if probes else 0.0
            rec = pipeline.in_process(nlgc, gate, states[gate.gate_id], tracer)
            rec["scale"] = (speed.KERNEL_NOMINAL_S / ((before + speed.kernel_s()) / 2)
                            if probes else 1.0)
            recs = [rec]
            if i in slot_gate:
                if probes:
                    process_refs[:] = [speed.process_s(env)]
                recs += pipeline.cli_roundtrip(slot_gate[i], workdir, f"p{p}s{i}",
                                               command, env, process_scale)
                if probes:
                    probe = setup_time()
                    setup.append([probe, process_scale()])
            for r in recs:
                r["pass"] = p
            records.extend(recs)
    wall = time.perf_counter() - t0

    children = []
    for path in spans_files:
        with open(path, encoding="utf-8") as fh:
            children.append(json.load(fh))
    return {"records": records, "setup_s": setup, "passes": passes, "wall_s": wall,
            "rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "children": children}


def _ok(rec) -> bool:
    return not rec["failures"]


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(res: dict, scaled: bool = True) -> tuple[dict, dict]:
    """The end-to-end metrics, and the per-gate latencies behind them.

    With scaled, times are scaled to the host speed references measured
    around their samples (see speed.py); without, they are raw wall times.
    """
    def t(r, key):
        return r[key] * r["scale"] if scaled else r[key]

    recs = res["records"]
    steps = {s: [t(r, "wall_s") for r in recs if r["step"] == s and _ok(r)]
             for s in ("compile", "verify", "simulate")}
    gate_recs = [r for r in recs if r["step"] == "gate"]
    good = [r for r in gate_recs if _ok(r)]
    per_gate = {}
    for r in good:
        per_gate.setdefault(r["gate"], []).append(t(r, "latency_s"))
    setup = [raw * scale if scaled else raw for raw, scale in res["setup_s"]]
    values = {
        "setup_s": (_median(setup), "s"),
        "gates_per_s": (len(good) / sum(t(r, "wall_s") for r in gate_recs), "gates/s"),
        "gate_p50_s": (_median([t(r, "latency_s") for r in good]), "s"),
        "compile_p50_s": (_median([t(r, "compile_s") for r in good]), "s"),
        "peak_rss_mb": (res["rss_self_mb"], "MB"),
        "ebits_total": (_ebits(recs), "ebits"),
        "cli_compile_p50_s": (_median(steps["compile"]), "s"),
        "cli_verify_p50_s": (_median(steps["verify"]), "s"),
        "cli_simulate_p50_s": (_median(steps["simulate"]), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, per_gate


def _ebits(recs) -> float:
    """Summed cost of the first pass: the quality of the generated protocols."""
    return sum(r["cost"] for r in recs
               if r["pass"] == 0 and r["step"] == "gate" and r.get("cost") is not None)


def outcome(gates, results) -> dict:
    """Counts, failures and the oracle comparison over one or more runs."""
    recs = [r for res in results for r in res["records"]]
    failed = [r for r in recs if not _ok(r)]
    ebits = _ebits(results[0]["records"])
    lo = sum(g.cost_min for g in gates)
    hi = sum(g.cost_max for g in gates)
    hashes, stable = {}, True
    for r in results[0]["records"]:
        if r.get("sha256"):
            key = r["gate"] if r["step"] == "gate" else f"{r['gate']} (nlgc {r['step']})"
            stable &= hashes.setdefault(key, r["sha256"]) == r["sha256"]
    return {
        "correct": not failed and lo - 1e-9 <= ebits <= hi + 1e-9,
        "attempted": len(recs),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(recs),
        "failures": [f"{r['gate']} {r['step']}: {'; '.join(r['failures'])}"
                     for r in failed][:20],
        "oracle_ebits_total": [lo, hi],
        "report_sha256": hashes,
        "report_bytes_stable_across_passes": stable,
    }


def metadata(workload: str, seed: int, seconds: float, nlgc_version: str) -> dict:
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "nlgc": nlgc_version, "src_lines": src_lines, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": int(BLAS_THREADS), "states_per_gate": pipeline.STATES}


def _print_result(meta: dict, out: dict, metrics: dict) -> None:
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


def _one_pass_untraced(args) -> dict:
    """Measure one untraced pass in a fresh process, for the tracing overhead."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--phase"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"untraced pass failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args) -> None:
    """One workload: end-to-end metrics untraced, per-layer metrics traced."""
    plain = _one_pass_untraced(args) if args.trace else None
    nlgc = import_nlgc()
    gates = workloads.build(args.workload, args.seed, nlgc, args.tiny)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracing.install(tracer)
    seconds = 0 if args.trace or args.phase else args.seconds
    passes = max(1, math.ceil(seconds / workloads.PASS_SECONDS[args.workload]))
    with tempfile.TemporaryDirectory(dir=_out_dir()) as workdir:
        res = measure(nlgc, args.workload, gates, args.seed, passes, args.tiny,
                      tracer, workdir, probes=not (args.trace or args.phase))
    if args.phase:
        print(json.dumps(res))
        return
    out = outcome(gates, [res] + ([plain] if plain else []))
    meta = metadata(args.workload, args.seed, seconds, nlgc.__version__)
    meta.update({k: out[k] for k in ("fail_ratio", "failures", "oracle_ebits_total",
                                     "report_sha256", "report_bytes_stable_across_passes")})
    meta.update(passes=res["passes"], gates_per_pass=len(gates), wall_s=res["wall_s"])
    if not args.trace:
        metrics, per_gate = end_to_end(res)
        raw, raw_per_gate = end_to_end(res, scaled=False)
        records_path = os.path.join(_out_dir(), f"records-{args.workload}-seed{args.seed}.json")
        with open(records_path, "w", encoding="utf-8") as fh:
            json.dump(res, fh)
        meta.update(gate_latency_s=per_gate, raw_gate_latency_s=raw_per_gate,
                    raw_metrics={k: m["value"] for k, m in raw.items()},
                    host_speed=_host_speed(res), setup_probes_s=res["setup_s"],
                    gate_samples=sum(map(len, per_gate.values())),
                    records_file=os.path.relpath(records_path, ROOT))
        _print_result(meta, out, metrics)
        return

    cli_s = {}
    for r in res["records"]:
        if r["step"] != "gate":
            cli_s[r["step"]] = cli_s.get(r["step"], 0.0) + r["wall_s"]
    cli_import = sum(c["import_s"] for c in res["children"])
    per_layer = tracing.layer_metrics([tracer.spans] + [c["spans"] for c in res["children"]],
                                      cli_s, cli_import)
    covered = sum(per_layer[f"{layer}.self_s"] for layer in tracing.LAYERS)
    per_layer.update({
        "trace.wall_s": res["wall_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.overhead_s": res["wall_s"] - plain["wall_s"],
        "trace.coverage": (covered + cli_import) / res["wall_s"],
    })
    trace_path = os.path.join(_out_dir(), f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"processes": [{"role": "bench", "spans": tracer.spans}]
                   + [{"role": "cli", **c} for c in res["children"]]}, fh)
    meta["trace_file"] = os.path.relpath(trace_path, ROOT)
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    _print_result(meta, out, {k: {"value": v, "unit": units.get(k, "")}
                              for k, v in per_layer.items()})


def _host_speed(res: dict) -> dict:
    """Median and range of the host speed, nominal reference time over
    measured, for the in-process kernel and the process reference."""
    out = {}
    for kind, steps in (("kernel", ("gate",)), ("process", ("compile", "verify", "simulate"))):
        scales = [r["scale"] for r in res["records"] if r["step"] in steps]
        if scales:
            out[kind] = {"median": _median(scales), "min": min(scales), "max": max(scales)}
    return out


def _out_dir() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


def _benchmark_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def _child_result(workload: str, seed: int, seconds: float, trace: int,
                  tiny: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd + (["--tiny"] if tiny else []), capture_output=True,
                          text=True, env=child_env(), timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} --trace {trace} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def run_all(args) -> None:
    """Every workload in turn, one fresh process each, as one table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        result = _child_result(workload, args.seed, args.seconds, args.trace, args.tiny)
        for key in ("attempted", "failed"):
            total[key] += result[key]
        total["correct"] &= result["correct"]
        for name, m in result["metrics"].items():
            print(f"{workload:14s} {name:34s} {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(total))


def run_smoke() -> None:
    """One tiny input per workload: every named metric, with its unit, and
    no layer self time above the traced wall time."""
    spec = _benchmark_spec()
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _child_result(workload, 0, 0, trace, True)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in metrics.items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics or units differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed")
            if trace:
                wall = metrics["trace.wall_s"]["value"]
                for k, m in metrics.items():
                    if k.endswith("self_s") and m["value"] > wall:
                        problems.append(f"{workload}: {k} {m['value']} > wall {wall}")
            print(f"smoke {workload} trace {trace}: {len(metrics)} metrics", flush=True)
    if problems:
        raise BenchError("smoke check failed:\n  " + "\n  ".join(problems))
    print("smoke ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload on one tiny input")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--phase", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            run_smoke()
        elif args.workload is None:
            parser.error("--workload is required")
        elif args.workload == "all":
            run_all(args)
        else:
            run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
