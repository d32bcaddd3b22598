"""Machine-readable compilation reports with reproducible bytes.

Every float is canonicalized to 12 significant digits before serialization
and keys are emitted sorted, so identical inputs and seeds produce byte
identical reports. Reports embed enough data (group table, factor phases,
V, U(f), W(f), basis change) to rebuild the expansion without recompiling.
"""
from __future__ import annotations

import json

import numpy as np

from ._linalg import dagger, frobenius, unitarity_deviation
from .errors import ValidationError, malformed
from .expansion import GroupExpansion, expansion_claims
from .groups import FactorSystem, FiniteGroup
from .representations import Representation
from .sbd import BlockStructure, EquivalenceClass
from .schmidt import BipartiteUnitary, schmidt_decompose

REPORT_FORMAT = "nlgc-report"
REPORT_VERSION = 1


def _round_sig(x: float) -> float:
    out = float("%.12g" % x)
    return 0.0 if out == 0.0 else out


def encode_matrix(m) -> list:
    """A complex array as nested [re, im] pairs; canonical_json rounds them."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def decode_matrix(rows, shape: tuple) -> np.ndarray:
    """The complex array a JSON array holds: all entries numbers, or all
    [re, im] pairs. shape is the expected shape, None on an axis of any
    length; anything else raises ValidationError."""
    try:
        a = np.asarray(rows)
    except ValueError as exc:       # ragged, or numbers mixed with pairs
        raise ValidationError(
            "matrix is ragged or mixes numbers with [re, im] pairs") from exc
    if a.dtype.kind not in "biuf":
        raise ValidationError("matrix entries must be numbers or [re, im] pairs")
    if a.ndim == len(shape) + 1 and a.shape[-1] == 2:
        a = a.astype(float).view(complex)[..., 0]
    if a.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, a.shape)):
        raise ValidationError(f"matrix has shape {a.shape}, expected {shape}")
    return a.astype(complex)


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round_sig(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return [_round_sig(obj.real), _round_sig(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, indent=2) + "\n"


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
        d_a, d_b = int(data["dimA"]), int(data["dimB"])
    elif "dims" in data:
        d_a, d_b = (int(x) for x in data["dims"])
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
    if "dim" in data and int(data["dim"]) != vec.size:
        raise ValidationError("state length disagrees with its declared dim")
    return vec


def _structure_payload(bs: BlockStructure) -> dict:
    return {
        "basisChange": encode_matrix(bs.basis_change),
        "sizes": list(bs.block_sizes),
        "classes": [
            {"members": list(c.members),
             "intertwiners": {str(m): encode_matrix(t)
                              for m, t in sorted(c.intertwiners.items())}}
            for c in bs.classes
        ],
    }


def _structure_from_payload(data: dict, d_a: int) -> BlockStructure:
    classes = [
        EquivalenceClass(
            members=list(c["members"]),
            intertwiners={int(k): decode_matrix(v, (None, None))
                          for k, v in c["intertwiners"].items()})
        for c in data["classes"]
    ]
    return BlockStructure(decode_matrix(data["basisChange"], (d_a, d_a)),
                          [int(s) for s in data["sizes"]], classes)


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
    classification = {"label": exp.classification}
    if "projectors" in exp.details:
        classification["projectors"] = [encode_matrix(p) for p in exp.details["projectors"]]
        classification["targets"] = [encode_matrix(t) for t in exp.details["targets"]]
    if "wFactorPhases" in exp.details:
        classification["wFactorPhases"] = encode_matrix(exp.details["wFactorPhases"])
        classification["wNorms"] = encode_matrix(exp.details["wNorms"])
    factor = exp.factor
    trivial = factor is None or factor.is_trivial
    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "meta": dict(meta or {}),
        "input": {
            "dimA": original.dim_a,
            "dimB": original.dim_b,
            "frobeniusNorm": float(frobenius(u)),
            "unitarityDeviation": float(unitarity_deviation(u)),
            "matrix": encode_matrix(u),
        },
        "schmidt": {
            "rank": len(exp.schmidt),
            "coefficients": [float(c) for c in exp.schmidt.coefficients],
        },
        "blocks": exp.blocks,
        "group": {
            "name": exp.group.name,
            "order": exp.group.order,
            "identity": int(exp.group.identity),
            "table": [[int(x) for x in row] for row in exp.group.table],
            "projective": not trivial,
            "factorRootOrder": 1 if trivial else int(factor.root_order),
            "factorPhases": None if trivial else encode_matrix(factor.phases),
        },
        "expansion": {
            "side": exp.side,
            "route": exp.route,
            "fallback": exp.fallback,
            "v": encode_matrix(exp.v),
            "uOps": [encode_matrix(m) for m in exp.u_rep.matrices],
            "wOps": [encode_matrix(m) for m in exp.w_ops],
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
        "mStatus": {"unitary": bool(exp.m_unitary),
                    "deviation": float(exp.m_deviation)},
        "protocol": None if trace is None else trace.summary(),
        "warnings": list(exp.warnings),
    }
    return report


@malformed("report")
def expansion_from_report(report: dict) -> GroupExpansion:
    """Rebuild a working expansion from its serialized report.

    A missing or mis-shaped field raises ValidationError.
    """
    if not isinstance(report, dict) or report.get("format") != REPORT_FORMAT:
        raise ValidationError("not a compilation report")
    inp, grp, exp_data = report["input"], report["group"], report["expansion"]
    d_a, d_b = int(inp["dimA"]), int(inp["dimB"])
    original = BipartiteUnitary(decode_matrix(inp["matrix"], (d_a * d_b,) * 2), d_a, d_b)
    side = exp_data["side"]
    if side not in ("A", "B"):
        raise ValidationError("malformed report: side must be A or B")
    bu = original if side == "A" else original.swapped()
    group = FiniteGroup(grp["name"], grp["table"])
    n, d_a, d_b = group.order, bu.dim_a, bu.dim_b
    if grp["projective"]:
        factor = FactorSystem(decode_matrix(grp["factorPhases"], (n, n)),
                              int(grp["factorRootOrder"]))
        factor.validate(group)
    else:
        factor = FactorSystem.trivial(n)
    u_rep = Representation(group, factor, decode_matrix(exp_data["uOps"], (n, d_a, d_a)))
    u_rep.validate()
    return GroupExpansion(
        unitary=bu, schmidt=schmidt_decompose(bu),
        structure=_structure_from_payload(exp_data["structure"], d_a),
        group=group, factor=factor, v=decode_matrix(exp_data["v"], (d_a, d_a)),
        u_rep=u_rep, w_ops=decode_matrix(exp_data["wOps"], (n, d_b, d_b)), side=side,
        w_coeffs=decode_matrix(exp_data["wCoeffs"], (None, None)),
        cost_ebits=float(report["costs"]["costEbits"]),
        baseline_ebits=float(report["costs"]["baselineEbits"]),
        residual=float(exp_data["residual"]),
        m_unitary=bool(report["mStatus"]["unitary"]),
        m_deviation=float(report["mStatus"]["deviation"]),
        route=exp_data["route"],
        classification=report["classification"]["label"],
        warnings=list(report.get("warnings", [])),
        blocks=report["blocks"])


def _partition_consistent(sizes, classes, d_a: int) -> bool:
    """The block sizes are positive and split d_a, and the classes (lists of
    block indices) partition the blocks."""
    members = sorted(m for c in classes for m in c)
    return min(sizes) >= 1 and sum(sizes) == d_a and members == list(range(len(sizes)))


def _blocks_consistent(blocks: dict, dims: dict) -> bool:
    """Each orientation's summary partitions its d_A into blocks and classes
    and gives each class the size of its representative, the first member."""
    for label, d_a in dims.items():
        if label not in blocks:
            return False
        sizes, classes = blocks[label]["sizes"], blocks[label]["classes"]
        if (not _partition_consistent(sizes, classes, d_a)
                or blocks[label]["classDims"] != [sizes[c[0]] for c in classes]):
            return False
    return True


def _structure_consistent(exp: GroupExpansion) -> bool:
    """The stored basis change S is unitary, its sizes and classes partition
    d_A, and S†(V†A_j)S is block diagonal over the Schmidt terms A_j of the
    report's own unitary."""
    bs = exp.structure
    return bool(unitarity_deviation(bs.basis_change) <= 1e-8
                and _partition_consistent(bs.block_sizes, [c.members for c in bs.classes],
                                          exp.unitary.dim_a)
                and bs.off_block_mass([dagger(exp.v) @ a for a in exp.schmidt.a_ops]) <= 1e-6)


def _w_coeffs_consistent(exp: GroupExpansion) -> bool:
    """wOps[f] = sum_j wCoeffs[j, f] B_j over the Schmidt terms of the report's own unitary.
    Rounding that unitary fixes B only up to a unitary mixing of equal-coefficient terms,
    so each such group compares the Gram matrices of its coefficient rows, which it keeps."""
    dec, c = exp.schmidt, exp.w_coeffs
    b = np.array(dec.b_ops).reshape(len(dec), -1)
    w = exp.w_ops.reshape(len(exp.w_ops), -1)
    p = b.conj() @ w.T          # coordinates of wOps in the orthonormal B_j
    outside = np.linalg.norm(w.T - b.T @ p)
    if c.shape != p.shape or not outside <= 1e-6 * max(1.0, np.linalg.norm(w)):
        return False
    s = np.asarray(dec.coefficients)
    groups = np.split(np.arange(len(s)), np.flatnonzero(np.diff(s) < -1e-6 * s[0]) + 1)
    return all(np.max(np.abs(dagger(c[g]) @ c[g] - dagger(p[g]) @ p[g])) <= 1e-6 for g in groups)


@malformed("report")
def verify_report(report: dict, tol: float = 1e-9) -> tuple[bool, dict]:
    """Re-check a report's claims from its own embedded data.

    Rebuilds the expansion, recomputes its claims with expansion_claims (the
    residual, the M unitarity status, the cost accounting and the
    classification label), and compares each against the stored values. V
    must be unitary, the W coefficients must rebuild wOps from the Schmidt
    terms, the fallback flag must match the route, the block summaries
    must be consistent with the input dimensions, and the stored structure
    must block-diagonalize V†A_j; the blocks themselves are not recomputed.
    """
    checks: dict[str, bool] = {}
    exp = expansion_from_report(report)
    stored_dev = float(report["input"]["unitarityDeviation"])
    stored_norm = float(report["input"]["frobeniusNorm"])
    stored_rank = int(report["schmidt"]["rank"])
    checks["fallbackFlag"] = report["expansion"]["fallback"] is exp.fallback
    checks["blocks"] = _blocks_consistent(exp.blocks, {
        "A": int(report["input"]["dimA"]), "B": int(report["input"]["dimB"])})
    checks["structure"] = _structure_consistent(exp)
    u = exp.unitary.matrix

    dev = unitarity_deviation(u)
    checks["inputUnitary"] = bool(dev <= 1e-8)
    checks["inputDigest"] = bool(abs(dev - stored_dev) <= 1e-6
                                 and abs(frobenius(u) - stored_norm) <= 1e-6)
    checks["vUnitary"] = bool(unitarity_deviation(exp.v) <= 1e-8)
    checks["wCoeffs"] = _w_coeffs_consistent(exp)

    claims = expansion_claims(exp, tol)
    checks["residual"] = bool(claims["residual"] <= max(1e-8, exp.residual + 1e-9))
    checks["mStatus"] = bool(claims["m_unitary"] == exp.m_unitary
                             and abs(claims["m_deviation"] - exp.m_deviation) <= 1e-6)
    checks["costs"] = bool(abs(claims["cost_ebits"] - exp.cost_ebits) <= 1e-9
                           and abs(claims["baseline_ebits"] - exp.baseline_ebits) <= 1e-9)
    checks["classification"] = claims["classification"] == exp.classification

    checks["schmidtRank"] = bool(len(exp.schmidt) == stored_rank)
    return all(checks.values()), checks
