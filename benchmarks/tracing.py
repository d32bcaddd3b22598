"""Span tracing of the nlgc layers from outside the package.

install() wraps every public module-level function of the layer modules
and rebinds the wrapper in every nlgc namespace that holds the original
object, because ``from .sbd import finest_sbd`` copies the binding into
the importing module. Spans (id, parent id, name, layer, start, end, info)
stay in memory until the run writes them out. layer_metrics() turns the
spans of one or more processes into the per-layer metrics of the
benchmark; a layer's self time is its span durations minus the durations
of their direct child spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

LAYERS = ("schmidt", "sbd", "groups", "representations", "search",
          "expansion", "protocol", "report", "cli")

# Extra facts read from a call's arguments or result, stored on its span.
_ARG_INFO = {
    "commutant_basis": lambda args, kwargs: {
        "rows": 2 * len(args[0]) * args[0][0].shape[0] ** 2},
}
_RESULT_INFO = {
    "schmidt_decompose": lambda r: {"terms": len(r)},
    "gram_set": lambda r: {"count": len(r)},
    "compile_unitary": lambda r: {"fallback": int(bool(r.fallback))},
    "simulate_protocol": lambda r: {"branches": len(r.branch_outcomes)},
    "canonical_json": lambda r: {"bytes": len(r.encode())},
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), parent, name, layer, time.perf_counter(), 0.0, {}]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        s = self.open(name, layer)
        try:
            yield s[6]
        finally:
            self.close(s)


class NullTracer:
    """Stand-in used by untraced runs: spans cost nothing and record nothing."""

    def span(self, name: str, layer: str):
        return contextlib.nullcontext({})


def _wrap_function(fn, layer: str, tracer: Tracer):
    name = fn.__name__
    arg_info = _ARG_INFO.get(name)
    result_info = _RESULT_INFO.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, layer)
        try:
            if arg_info is not None:
                span[6].update(arg_info(args, kwargs))
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[6]["error"] = type(exc).__name__
            raise
        finally:
            tracer.close(span)
        if result_info is not None:
            span[6].update(result_info(result))
        return result
    return wrapper


def _wrap_generator(fn, layer: str, tracer: Tracer):
    """search_group yields candidates lazily: one span per next() call."""
    name = fn.__name__ + ".next"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def stepped():
            info = {"first": 1}
            try:
                while True:
                    span = tracer.open(name, layer)
                    span[6].update(info)
                    info = {}
                    try:
                        item = next(inner)
                    except StopIteration:
                        span[6]["exhausted"] = 1
                        return
                    except BaseException as exc:
                        span[6]["error"] = type(exc).__name__
                        raise
                    finally:
                        tracer.close(span)
                    span[6]["yielded"] = 1
                    yield item
            finally:
                inner.close()
        return stepped()
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module in every namespace."""
    import nlgc
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module("nlgc." + layer)
        except ModuleNotFoundError:
            continue     # a layer folded into another module reads as zero
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or id(obj) in wrapped):
                continue
            make = _wrap_generator if inspect.isgeneratorfunction(obj) else _wrap_function
            wrapped[id(obj)] = make(obj, layer, tracer)
    for mod in [nlgc, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(mod, attr, wrapped[id(obj)])


def _self_times(spans):
    """Per span: duration, self time, parent name, and whether no ancestor
    span has the same name (so inclusive times are not counted twice)."""
    by_id = {s[0]: s for s in spans}
    child_sum = {}
    for s in spans:
        if s[1] >= 0:
            child_sum[s[1]] = child_sum.get(s[1], 0.0) + (s[5] - s[4])
    out = []
    for s in spans:
        dur = s[5] - s[4]
        parent = by_id.get(s[1])
        outermost = True
        p = parent
        while p is not None:
            if p[2] == s[2]:
                outermost = False
                break
            p = by_id.get(p[1])
        out.append((s, dur, dur - child_sum.get(s[0], 0.0),
                    parent[2] if parent else None, outermost))
    return out


class _Totals:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}       # outermost spans only
        self.self_fn: dict[str, float] = {}
        self.self_layer: dict[str, float] = {}
        self.info: dict[tuple, float] = {}
        self.info_max: dict[tuple, float] = {}
        self.errors: dict[str, int] = {}
        self.recompute = 0.0
        self.spans = 0

    def add(self, spans) -> None:
        for s, dur, self_t, parent_name, outermost in _self_times(spans):
            name, layer, info = s[2], s[3], s[6]
            self.spans += 1
            self.calls[name] = self.calls.get(name, 0) + 1
            if outermost:
                self.incl[name] = self.incl.get(name, 0.0) + dur
            self.self_fn[name] = self.self_fn.get(name, 0.0) + self_t
            self.self_layer[layer] = self.self_layer.get(layer, 0.0) + self_t
            for k, v in info.items():
                if k == "error":
                    self.errors[name] = self.errors.get(name, 0) + 1
                    continue
                self.info[(name, k)] = self.info.get((name, k), 0) + v
                self.info_max[(name, k)] = max(self.info_max.get((name, k), 0), v)
            if parent_name == "build_report" and layer in ("schmidt", "sbd"):
                self.recompute += dur


def layer_metrics(span_sets, cli_process_s: dict, cli_import_s: float) -> dict:
    """Per-layer metric values from the spans of every traced process.

    span_sets holds one span list per process; cli_process_s maps each nlgc
    subcommand to the summed wall time of its traced processes, and
    cli_import_s is the summed ``import nlgc.cli`` time inside them.
    """
    t = _Totals()
    for spans in span_sets:
        t.add(spans)
    c, i, f, own = t.calls, t.incl, t.info, t.self_fn
    nxt = "search_group.next"
    yielded = f.get((nxt, "yielded"), 0)
    exhausted = f.get((nxt, "exhausted"), 0)
    # a search that stopped before exhaustion had its last candidate accepted
    accepted = f.get((nxt, "first"), 0) - exhausted - t.errors.get(nxt, 0)
    layer = t.self_layer
    return {
        "schmidt.calls": c.get("schmidt_decompose", 0),
        "schmidt.self_s": layer.get("schmidt", 0.0),
        "schmidt.terms_total": f.get(("schmidt_decompose", "terms"), 0),
        "sbd.finest_calls": c.get("finest_sbd", 0),
        "sbd.split_self_s": own.get("finest_sbd", 0.0),
        "sbd.commutant_s": i.get("commutant_basis", 0.0),
        "sbd.commutant_calls": c.get("commutant_basis", 0),
        "sbd.commutant_rows_max": t.info_max.get(("commutant_basis", "rows"), 0),
        "sbd.classify_s": i.get("classify_equivalence", 0.0),
        "sbd.gram_count_total": f.get(("gram_set", "count"), 0),
        "sbd.self_s": layer.get("sbd", 0.0),
        "groups.catalog_builds": c.get("builtin_catalog", 0),
        "groups.catalog_s": i.get("builtin_catalog", 0.0),
        "groups.isomorphism_calls": c.get("are_isomorphic", 0),
        "groups.isomorphism_s": i.get("are_isomorphic", 0.0),
        "groups.self_s": layer.get("groups", 0.0),
        "representations.irreps_calls": c.get("irreps_of", 0),
        "representations.irreps_s": i.get("irreps_of", 0.0),
        "representations.projective_calls": c.get("projective_irreps_from_extension", 0),
        "representations.projective_s": i.get("projective_irreps_from_extension", 0.0),
        "representations.gauge_s": i.get("gauge_normalize", 0.0),
        "representations.self_s": layer.get("representations", 0.0),
        "search.self_s": layer.get("search", 0.0),
        "search.candidates": yielded,
        "search.accepted_ratio": accepted / yielded if yielded else 0.0,
        "search.exhausted_sides": exhausted,
        "expansion.compile_self_s": own.get("compile_unitary", 0.0),
        "expansion.construct_V_s": i.get("construct_V", 0.0),
        "expansion.assemble_U_s": i.get("assemble_U", 0.0),
        "expansion.compute_W_s": i.get("compute_W", 0.0),
        "expansion.classify_s": i.get("classify", 0.0),
        "expansion.candidates_built": c.get("construct_V", 0),
        "expansion.build_failures": sum(t.errors.get(n, 0) for n in
                                        ("construct_V", "assemble_U", "compute_W")),
        "expansion.fallbacks": f.get(("compile_unitary", "fallback"), 0),
        "expansion.self_s": layer.get("expansion", 0.0),
        "protocol.simulate_calls": c.get("simulate_protocol", 0),
        "protocol.simulate_s": i.get("simulate_protocol", 0.0),
        "protocol.branches_total": f.get(("simulate_protocol", "branches"), 0),
        "protocol.build_M_s": i.get("build_M", 0.0),
        "protocol.self_s": layer.get("protocol", 0.0),
        "report.build_s": i.get("build_report", 0.0),
        "report.recompute_s": t.recompute,
        "report.serialize_s": i.get("canonical_json", 0.0),
        "report.bytes_total": f.get(("canonical_json", "bytes"), 0),
        "report.verify_s": i.get("verify_report", 0.0),
        "report.self_s": layer.get("report", 0.0),
        "cli.compile_process_s": cli_process_s.get("compile", 0.0),
        "cli.verify_process_s": cli_process_s.get("verify", 0.0),
        "cli.simulate_process_s": cli_process_s.get("simulate", 0.0),
        "cli.import_s": cli_import_s,
        "cli.self_s": layer.get("cli", 0.0),
        "bench.self_s": layer.get("bench", 0.0),
        "trace.spans": t.spans,
    }
