"""Machine-readable compilation reports with reproducible bytes.

Every float is canonicalized to 12 significant digits before serialization
and keys are emitted sorted, so identical inputs and seeds produce byte
identical reports. Reports embed enough data (group table, factor phases,
V, U(f), W(f), basis change) to rebuild the expansion without recompiling.
"""
from __future__ import annotations

import json

import numpy as np

from ._canonical import _dump
from ._linalg import dagger, frobenius, unitarity_deviation
from .errors import ValidationError, json_bool, json_int, json_number, malformed
from .expansion import _FELL_BACK, GroupExpansion, _fallback_warning, classify
from .groups import FactorSystem, FiniteGroup
from .protocol import DETERMINISM_TOL
from .representations import Representation
from .sbd import BLOCK_TOL, BlockStructure, inequivalent
from .schmidt import BipartiteUnitary, schmidt_decompose

REPORT_FORMAT = "nlgc-report"
REPORT_VERSION = 1


def encode_matrix(m) -> np.ndarray:
    """A complex array as a float array of [re, im] pairs; canonical_json rounds it."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1)


def decode_matrix(rows, shape: tuple) -> np.ndarray:
    """The complex array a JSON array holds: all entries numbers, or all
    [re, im] pairs. shape is the expected shape, None on an axis of any
    length; anything else raises ValidationError."""
    try:
        a = np.asarray(rows)
    except ValueError as exc:       # ragged, or numbers mixed with pairs
        raise ValidationError(
            "matrix is ragged or mixes numbers with [re, im] pairs") from exc
    if a.dtype.kind not in "iuf":
        raise ValidationError("matrix entries must be numbers or [re, im] pairs")
    pairs = a.ndim == len(shape) + 1 and a.shape[-1] == 2
    if pairs:
        a = a.astype(float).view(complex)[..., 0]       # a new complex array
    if a.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, a.shape)):
        raise ValidationError(f"matrix has shape {a.shape}, expected {shape}")
    return a if pairs else a.astype(complex)


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), str keys, floats to 12
    digits; _canonical writes the text."""
    return _dump(obj, 0) + "\n"


def matrix_payload(bu: BipartiteUnitary) -> dict:
    return {"dimA": bu.dim_a, "dimB": bu.dim_b, "matrix": encode_matrix(bu.matrix)}


@malformed("matrix file")
def parse_matrix_payload(data: dict, dims: tuple[int, int] | None = None) -> BipartiteUnitary:
    if "matrix" not in data:
        raise ValidationError("matrix file needs a 'matrix' field")
    m = decode_matrix(data["matrix"], (None, None))
    if dims is not None:
        d_a, d_b = dims
    elif "dimA" in data and "dimB" in data:
        d_a, d_b = json_int(data["dimA"], "dimA"), json_int(data["dimB"], "dimB")
    elif "dims" in data:
        d_a, d_b = (json_int(x, "dims") for x in data["dims"])
    else:
        raise ValidationError(
            "matrix file needs explicit dimensions (dimA/dimB or dims); the "
            "factorization of the matrix size is ambiguous")
    return BipartiteUnitary(m, d_a, d_b)


def state_payload(psi: np.ndarray) -> dict:
    psi = np.asarray(psi).reshape(-1)
    return {"dim": int(psi.size), "vector": encode_matrix(psi)}


@malformed("state file")
def parse_state_payload(data: dict) -> np.ndarray:
    if "vector" not in data:
        raise ValidationError("state file needs a 'vector' field")
    vec = decode_matrix(data["vector"], (None,))
    if "dim" in data and json_int(data["dim"], "dim") != vec.size:
        raise ValidationError("state length disagrees with its declared dim")
    return vec


def _structure_payload(bs: BlockStructure) -> dict:
    return {
        "basisChange": encode_matrix(bs.basis_change),
        "sizes": list(bs.block_sizes),
        "classes": [
            {"members": list(members),
             "intertwiners": {str(m): encode_matrix(t) for m, t in sorted(inter.items())}}
            for members, inter in bs.classes
        ],
    }


def _block_index(key: str) -> int:
    """An intertwiner key: the decimal text of a block index, as _structure_payload writes it."""
    if str(int(key)) != key:
        raise ValidationError(f"intertwiner key must be a block index, not {key!r}")
    return int(key)


def _ints(values, what: str) -> list[int]:
    return [json_int(v, what) for v in values]


def _structure_from_payload(data: dict, d_a: int) -> BlockStructure:
    classes = [(_ints(c["members"], "expansion.structure members"),
                {_block_index(k): decode_matrix(v, (None, None))
                 for k, v in c["intertwiners"].items()})
               for c in data["classes"]]
    return BlockStructure(decode_matrix(data["basisChange"], (d_a, d_a)),
                          _ints(data["sizes"], "expansion.structure.sizes"), classes)


def build_report(exp: GroupExpansion, trace=None, meta: dict | None = None,
                 original: BipartiteUnitary | None = None) -> dict:
    """Full, self-contained description of one compilation result.

    original is the gate in its user orientation; when omitted it is
    recovered from the expansion (undoing the B-side swap if needed). The
    blocks section is the per-orientation block summary compile_unitary
    computed; nothing is recomputed here.
    """
    if original is None:
        original = exp.unitary if exp.side == "A" else exp.unitary.swapped()
    u = original.matrix
    classification = {"label": exp.classification,
                      **{key: encode_matrix(w) for key, w in exp.details.items()}}
    factor = exp.factor
    trivial = factor.is_trivial
    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "meta": dict(meta or {}),
        "input": {
            "dimA": original.dim_a,
            "dimB": original.dim_b,
            "frobeniusNorm": float(frobenius(u)),
            "unitarityDeviation": float(original.deviation),
            "matrix": encode_matrix(u),
        },
        "schmidt": {
            "rank": len(exp.schmidt),
            "coefficients": [float(c) for c in exp.schmidt.coefficients],
        },
        "blocks": json.loads(json.dumps(exp.blocks, default=dict)),     # plain dicts and lists
        "group": {
            "name": exp.group.name,
            "order": exp.group.order,
            "identity": int(exp.group.identity),
            "table": exp.group.table.copy(),
            "projective": not trivial,
            "factorRootOrder": 1 if trivial else factor.root_order,
            "factorPhases": None if trivial else encode_matrix(factor.phases),
        },
        "expansion": {
            "side": exp.side,
            "route": exp.route,
            "fallback": exp.fallback,
            "v": encode_matrix(exp.v),
            "uOps": encode_matrix(exp.u_rep.matrices),
            "wOps": encode_matrix(exp.w_ops),
            "wCoeffs": encode_matrix(exp.w_coeffs),
            "structure": _structure_payload(exp.structure),
            "residual": float(exp.residual),
        },
        "costs": {
            "costEbits": float(exp.cost_ebits),
            "baselineEbits": float(exp.baseline_ebits),
            "savingsEbits": float(exp.savings_ebits),
        },
        "classification": classification,
        "mStatus": {"unitary": exp.m_unitary, "deviation": exp.m_deviation},
        "protocol": None if trace is None else trace.summary(),
        "warnings": list(exp.warnings),
    }
    return report


_PROTOCOL_FIELDS = {"branches": json_int, "deterministic": json_bool, "minFidelity": json_number,
                    "probabilitySum": json_number, "ebits": json_number, "cbits": json_number}


def _stored_derived(report: dict) -> dict:
    """The costs, residual and M status a report stores, keyed by the GroupExpansion
    properties that derive them, and its protocol summary, None or the ProtocolTrace
    summary's six fields; a value of the wrong JSON type raises ValidationError."""
    costs = {"cost_ebits": "costEbits", "baseline_ebits": "baselineEbits",
             "savings_ebits": "savingsEbits"}
    protocol = report["protocol"]
    if protocol is not None:
        if not (isinstance(protocol, dict) and protocol.keys() == _PROTOCOL_FIELDS.keys()):
            raise ValidationError("protocol must be null or an object of the fields "
                                  + ", ".join(_PROTOCOL_FIELDS))
        protocol = {key: read(protocol[key], f"protocol.{key}")
                    for key, read in _PROTOCOL_FIELDS.items()}
    return dict({name: json_number(report["costs"][key], key) for name, key in costs.items()},
                residual=json_number(report["expansion"]["residual"], "residual"),
                m_unitary=json_bool(report["mStatus"]["unitary"], "mStatus.unitary"),
                m_deviation=json_number(report["mStatus"]["deviation"], "mStatus.deviation"),
                protocol=protocol)


def _protocol_consistent(p: dict | None, exp: GroupExpansion) -> bool:
    """A stored protocol summary p has |G|² branches, the expansion's cost in
    ebits and twice that in cbits, each to 1e-9, a least fidelity in
    [0, 1 + 1e-6] (each is |<target, normalized output>|) and a probability
    sum of at least 0 (a sum of squared norms). A deterministic verdict needs
    a unitary M, a probability sum within 1e-6 of 1 and a least fidelity of at
    least 1 - 1e-6. A verdict of false is refuted by a unitary M with both
    numbers within a tenth of DETERMINISM_TOL of 1: a run judged so missed one
    of them by more than DETERMINISM_TOL, which 12-digit rounding cannot hide."""
    if p is None:
        return True
    tol = 1e-6 if p["deterministic"] else DETERMINISM_TOL / 10
    certain = bool(exp.m_unitary and abs(p["probabilitySum"] - 1.0) <= tol
                   and p["minFidelity"] >= 1.0 - tol)
    return bool(p["branches"] == exp.group.order ** 2 and abs(p["ebits"] - exp.cost_ebits) <= 1e-9
                and abs(p["cbits"] - 2 * p["ebits"]) <= 1e-9 and certain == p["deterministic"]
                and 0 <= p["minFidelity"] <= 1 + 1e-6 and p["probabilitySum"] >= 0)


@malformed("report")
def expansion_from_report(report: dict) -> GroupExpansion:
    """Rebuild a working expansion from its serialized report.

    The expansion derives its residual and M from the decoded data, never
    from the stored values, which _stored_derived only type-checks here.
    The classification witnesses become its details, each decoded with the
    rank it is stored with. A missing or mis-shaped field, a version other
    than REPORT_VERSION, and group.projective, factorPhases (null unless
    projective) or factorRootOrder that the factor phases contradict raise
    ValidationError.
    """
    return _read_report(report)[0]


def _read_report(report: dict) -> tuple[GroupExpansion, dict]:
    """expansion_from_report's expansion, and _stored_derived's values read in the same pass."""
    if not isinstance(report, dict) or report.get("format") != REPORT_FORMAT:
        raise ValidationError("not a compilation report")
    if json_int(report["version"], "version") != REPORT_VERSION:
        raise ValidationError(f"report version must be {REPORT_VERSION}")
    inp, grp, exp_data = report["input"], report["group"], report["expansion"]
    d_a, d_b = json_int(inp["dimA"], "dimA"), json_int(inp["dimB"], "dimB")
    original = BipartiteUnitary(decode_matrix(inp["matrix"], (d_a * d_b,) * 2), d_a, d_b)
    side = exp_data["side"]
    if side not in ("A", "B"):
        raise ValidationError("malformed report: side must be A or B")
    bu = original if side == "A" else original.swapped()
    group = FiniteGroup(grp["name"], grp["table"])
    if (json_int(grp["order"], "order"), json_int(grp["identity"], "identity")) != (
            group.order, group.identity):
        raise ValidationError("declared group order or identity does not match the table")
    n, d_a, d_b = group.order, bu.dim_a, bu.dim_b
    projective = json_bool(grp["projective"], "group.projective")
    if projective:
        factor = FactorSystem(decode_matrix(grp["factorPhases"], (n, n)))
        factor.validate(group)
    elif grp["factorPhases"] is not None:
        raise ValidationError("factorPhases must be null on a group that is not projective")
    else:
        factor = FactorSystem.trivial(n)
    if (projective, json_int(grp["factorRootOrder"], "factorRootOrder")) != (
            not factor.is_trivial, factor.root_order):
        raise ValidationError("group.projective or factorRootOrder contradicts the factor phases")
    u_rep = Representation(group, factor, decode_matrix(exp_data["uOps"], (n, d_a, d_a)))
    u_rep.validate()
    stored = _stored_derived(report)
    warnings = report["warnings"]
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise ValidationError("warnings must be a list of strings")
    witnesses = {key: np.asarray(w) for key, w in report["classification"].items()
                 if key != "label"}
    return GroupExpansion(
        schmidt=schmidt_decompose(bu),
        structure=_structure_from_payload(exp_data["structure"], d_a),
        v=decode_matrix(exp_data["v"], (d_a, d_a)), u_rep=u_rep,
        w_ops=decode_matrix(exp_data["wOps"], (n, d_b, d_b)), side=side,
        w_coeffs=decode_matrix(exp_data["wCoeffs"], (None, None)),
        route=exp_data["route"],
        classification=report["classification"]["label"],
        details={key: decode_matrix(w, (None,) * (w.ndim - 1)) for key, w in witnesses.items()},
        warnings=warnings, blocks=report["blocks"]), stored


def _partition_consistent(sizes, classes, d_a: int) -> bool:
    """The block sizes are positive and split d_a, and the classes (non-empty
    lists of block indices) partition the blocks."""
    members = sorted(m for c in classes for m in c)
    return (min(sizes) >= 1 and sum(sizes) == d_a and all(classes)
            and members == list(range(len(sizes))))


def _blocks_consistent(blocks: dict, dims: dict) -> bool:
    """Each orientation's summary partitions its d_A into blocks and classes
    and gives each class the size of its representative, the first member.
    An entry that is not an integer raises ValidationError."""
    for label, d_a in dims.items():
        if label not in blocks:
            return False
        what = f"blocks.{label}"
        sizes = _ints(blocks[label]["sizes"], f"{what}.sizes")
        classes = [_ints(c, f"{what}.classes") for c in blocks[label]["classes"]]
        if (not _partition_consistent(sizes, classes, d_a)
                or _ints(blocks[label]["classDims"], f"{what}.classDims")
                != [sizes[c[0]] for c in classes]):
            return False
    return True


def _structure_consistent(exp: GroupExpansion) -> bool:
    """The stored basis change S is unitary, its sizes and classes partition
    d_A, and X_j = S†(V†A_j)S is block diagonal over the Schmidt terms A_j of
    the report's own unitary. Each class stores one unitary T per member, and
    no other, with T X_rep T† = X_member on the blocks of every X_j; the
    relation is linear in A_j, so a mixing of tied Schmidt terms keeps it.
    No unitary may map the representative of one class onto that of another."""
    bs = exp.structure
    if not (unitarity_deviation(bs.basis_change) <= 1e-8
            and _partition_consistent(bs.block_sizes, [members for members, _ in bs.classes],
                                      exp.unitary.dim_a)):
        return False
    x, slices = bs.transformed(dagger(exp.v) @ exp.schmidt.a_ops), bs.block_slices()
    if not bs.outside_blocks(x) <= 1e-6:
        return False
    reps = [x[:, slices[members[0]], slices[members[0]]] for members, _ in bs.classes]
    for (members, inter), rep in zip(bs.classes, reps):
        if sorted(inter) != sorted(members):
            return False
        for m, t in inter.items():
            if not (t.shape == rep.shape[1:] == (bs.block_sizes[m],) * 2
                    and unitarity_deviation(t) <= 1e-8
                    and np.abs(t @ rep @ dagger(t) - x[:, slices[m], slices[m]]).max() <= 1e-6):
                return False
    return inequivalent(reps, BLOCK_TOL)


def _w_coeffs_consistent(exp: GroupExpansion) -> bool:
    """wOps[f] = sum_j wCoeffs[j, f] B_j over the Schmidt terms of the report's own unitary.
    Rounding that unitary fixes B only up to a unitary mixing of equal-coefficient terms,
    so each such group compares the Gram matrices of its coefficient rows, which it keeps."""
    dec, c = exp.schmidt, exp.w_coeffs
    b = dec.b_ops.reshape(len(dec), -1)
    w = exp.w_ops.reshape(len(exp.w_ops), -1)
    p = b.conj() @ w.T          # coordinates of wOps in the orthonormal B_j
    outside = frobenius(w.T - b.T @ p)
    if c.shape != p.shape or not outside <= 1e-6 * max(1.0, frobenius(w)):
        return False
    s = dec.coefficients
    cuts = [0, *(np.flatnonzero(np.diff(s) < -1e-6 * s[0]) + 1).tolist(), len(s)]
    return all(np.abs(dagger(c[i:j]) @ c[i:j] - dagger(p[i:j]) @ p[i:j]).max() <= 1e-6
               for i, j in zip(cuts, cuts[1:]))


def _close(stored: np.ndarray, claimed: np.ndarray) -> bool:
    """A stored array has the recomputed one's shape and entries within 1e-6; NaN fails."""
    return stored.shape == claimed.shape and bool((np.abs(stored - claimed) <= 1e-6).all())


@malformed("report")
def verify_report(report: dict, tol: float = 1e-9) -> tuple[bool, dict]:
    """Re-check a report's claims from its own embedded data: (all passed,
    {check name: passed}).

    Rebuilds the expansion, which derives its residual, M status and costs,
    and compares each with the value stored in the report, as it does
    classify's label and witness data at tol and the Schmidt rank and
    coefficients of the report's own unitary. V and M must be unitary, the
    W coefficients must rebuild wOps from the Schmidt terms, the fallback
    flag must match the route, which is projective, ordinary on a trivial
    factor system, or fallback with |G| = d_A² and V = I exactly, the
    warnings must hold compile's fallback warning, once and word for word,
    on a fallback and no warning of its opening words on any other route, the
    block summaries must fit the input dimensions, the stored structure must
    block-diagonalize V†A_j with one unitary intertwiner per class member
    and none between two classes, and a stored protocol summary must agree
    with the expansion and with its own verdict (_protocol_consistent).
    What expansion_from_report rejects, a value of the wrong JSON type and
    a protocol section that is not null or the six fields of a trace
    summary raise ValidationError.
    """
    checks: dict[str, bool] = {}
    exp, stored = _read_report(report)
    stored_dev = json_number(report["input"]["unitarityDeviation"], "unitarityDeviation")
    stored_norm = json_number(report["input"]["frobeniusNorm"], "frobeniusNorm")
    stored_rank = json_int(report["schmidt"]["rank"], "schmidt.rank")
    route_ok = exp.route == "projective" or (
        exp.route == "ordinary" and exp.factor.is_trivial) or (
        exp.route == "fallback" and exp.group.order == exp.v.size     # d_A²
        and np.array_equal(exp.v, np.eye(len(exp.v))))
    notes = [w for w in exp.warnings if w.startswith(_FELL_BACK)]
    checks["fallbackFlag"] = bool(report["expansion"]["fallback"] is exp.fallback and route_ok
                                  and notes == ([_fallback_warning(exp)] if exp.fallback else []))
    d_a, d_b = exp.unitary.dim_a, exp.unitary.dim_b
    checks["blocks"] = _blocks_consistent(
        exp.blocks, {"A": d_a, "B": d_b} if exp.side == "A" else {"A": d_b, "B": d_a})
    checks["structure"] = _structure_consistent(exp)

    dev = exp.unitary.deviation
    checks["inputUnitary"] = bool(dev <= 1e-8)
    checks["inputDigest"] = bool(abs(dev - stored_dev) <= 1e-6
                                 and abs(frobenius(exp.unitary.matrix) - stored_norm) <= 1e-6)
    checks["vUnitary"] = bool(unitarity_deviation(exp.v) <= 1e-8)
    checks["wCoeffs"] = _w_coeffs_consistent(exp)

    checks["residual"] = bool(exp.residual <= max(1e-8, stored["residual"] + 1e-9))
    checks["mStatus"] = bool(exp.m_unitary == stored["m_unitary"]
                             and abs(exp.m_deviation - stored["m_deviation"]) <= 1e-6)
    checks["certified"] = exp.m_unitary
    checks["protocol"] = _protocol_consistent(stored["protocol"], exp)
    checks["costs"] = all(abs(stored[key] - getattr(exp, key)) <= 1e-9
                          for key in ("cost_ebits", "baseline_ebits", "savings_ebits"))
    classification, details = classify(exp, tol)
    checks["classification"] = bool(
        classification == exp.classification
        and exp.details.keys() == details.keys()
        and all(_close(exp.details[k], w) for k, w in details.items()))

    checks["schmidtRank"] = bool(len(exp.schmidt) == stored_rank and _close(
        decode_matrix(report["schmidt"]["coefficients"], (None,)), exp.schmidt.coefficients))
    return all(checks.values()), checks
