"""The canonical JSON text of a report value, which report.canonical_json returns.

The text is what json.dumps(value, sort_keys=True, indent=2) writes once
every key is a str and every float is rounded to 12 significant digits.
Kept apart from report.py, which builds, reads and checks reports: with
bytecode writing off every process compiles the package, and the memory
of compiling its largest module sets the peak memory of import nlgc.
"""
from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii

import numpy as np


def _round_sig(x: float) -> float:
    out = float("%.12g" % x)
    return 0.0 if out == 0.0 else out


def _layout(shape: tuple, level: int) -> str:
    """json.dumps(indent=2)'s layout of an array at this level, a %s per entry."""
    if not shape or shape[0] == 0:
        return "[]" if shape else "%s"
    pad = "\n" + "  " * (level + 1)
    return f"[{pad}{(',' + pad).join([_layout(shape[1:], level + 1)] * shape[0])}\n{'  ' * level}]"


def _float_tokens(a: np.ndarray) -> list[str]:
    # The %.12g tokens are the repr of the rounded floats once .0 is appended
    # to a token with no '.' or 'e': 12 digits is below DBL_DIG = 15, so the
    # shortest round-trip string of float(token) has the token's digits, and
    # %g and repr both write decimal exponents -4..11 in fixed notation. Not
    # so for nan and inf, from 1e12, which %g writes in scientific notation
    # and repr not before 1e16, nor for subnormals, which lose digits; an
    # array with a nan, inf, e+ or e-3xx token (1e-300 and below) parses its
    # tokens back and writes them as json.dumps does.
    text = " ".join(["%.12g"] * a.size) % tuple((a.ravel() + 0.0).tolist())   # -0.0 as 0.0
    if "n" in text or "e+" in text or "e-3" in text and re.search(r"e-3\d\d", text):
        return [repr(x) if x - x == 0 else json.dumps(x) for x in map(float, text.split())]
    return [t if "." in t or "e" in t else t + ".0" for t in text.split()]


def _dump_float(x, level: int) -> str:
    x = _round_sig(float(x))
    return repr(x) if x - x == 0 else json.dumps(x)     # NaN and Inf as json.dumps writes them


def _dump_array(a: np.ndarray, level: int) -> str:
    kind = a.dtype.kind
    if kind in "iu":
        return _layout(a.shape, level) % tuple(a.ravel().tolist())
    if kind == "f":
        return _layout(a.shape, level) % tuple(_float_tokens(a))
    return _dump(a.tolist(), level)


def _dump_dict(d: dict, level: int) -> str:
    keyed = {str(k): v for k, v in d.items()}
    if not keyed:
        return "{}"
    pad = "\n" + "  " * (level + 1)
    return "{%s%s\n%s}" % (pad, ("," + pad).join(
        [_quoted(k) + ": " + _dump(keyed[k], level + 1) for k in sorted(keyed)]), "  " * level)


def _dump_list(items, level: int) -> str:
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[%s%s\n%s]" % (pad, ("," + pad).join([_dump(v, level + 1) for v in items]),
                            "  " * level)


def _dump_complex(z, level: int) -> str:
    return _dump_list([z.real, z.imag], level)


_quoted = encode_basestring_ascii       # json.dumps of a str
# np.floating and np.complexfloating cover long doubles, whose .item() is themselves
_WRITERS = {dict: _dump_dict, list: _dump_list, tuple: _dump_list, float: _dump_float,
            np.ndarray: _dump_array, np.float64: _dump_float, np.floating: _dump_float,
            complex: _dump_complex, np.complexfloating: _dump_complex,
            str: lambda s, level: _quoted(s), int: lambda i, level: int.__repr__(i),
            bool: lambda b, level: "true" if b else "false", type(None): lambda n, level: "null",
            np.generic: lambda x, level: _dump(x.item(), level),
            object: lambda o, level: json.dumps(o)}     # raises json.dumps's TypeError


def _dump(obj, level: int) -> str:
    # the exact type picks the writer, else the first type of its MRO that has one
    write = _WRITERS.get(type(obj)) or next(
        _WRITERS[t] for t in type(obj).__mro__ if t in _WRITERS)
    return write(obj, level)
