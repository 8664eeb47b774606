"""Artifact I/O: bit-exact JSON for tensors and reports, atomic writes, CSV.

Numbers are serialized with the '%.17g' format, which carries enough digits
to round-trip any float64 exactly; the stdlib json encoder prints shortest
round-trip reprs instead, so a small emitter is used to keep the byte-level
contract. Complex entries serialize as [re, im] pairs.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .core import (COMPLEX, Hypermatrix, REAL, SymTensor, sym_packed_length)


def format_number(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    s = "%.17g" % x
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def scalar_to_json(x, field: str):
    if field == COMPLEX:
        z = complex(x)
        return [z.real, z.imag]
    return float(np.real(x))


def _scalar_from_json(v, field: str):
    if field == COMPLEX:
        if isinstance(v, (list, tuple)):
            return complex(float(v[0]), float(v[1]))
        return complex(float(v), 0.0)
    if isinstance(v, (list, tuple)):
        raise ValueError("complex entry in a real tensor file")
    return float(v)


def array_to_json(a: np.ndarray) -> list:
    """Nested lists with complex leaves as [re, im]."""
    if np.iscomplexobj(a):
        stacked = np.stack([np.real(a), np.imag(a)], axis=-1)
        return stacked.tolist()
    return np.asarray(a, dtype=np.float64).tolist()


def tensor_to_json(A: Hypermatrix) -> dict:
    flat = A.data.ravel()
    data = [scalar_to_json(x, A.field) for x in flat]
    return {"shape": list(A.shape), "field": A.field, "data": data}


def tensor_from_json(obj: dict) -> Hypermatrix:
    shape = tuple(int(n) for n in obj["shape"])
    field = obj["field"]
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field {field!r}")
    flat = [_scalar_from_json(v, field) for v in obj["data"]]
    if len(flat) != math.prod(shape):
        raise ValueError(
            f"data length {len(flat)} does not match shape {shape}")
    dtype = np.complex128 if field == COMPLEX else np.float64
    return Hypermatrix(np.array(flat, dtype=dtype).reshape(shape), field)


def sym_to_json(S: SymTensor) -> dict:
    packed = [scalar_to_json(x, S.field) for x in S.packed]
    return {"symmetric": True, "dim": S.dim, "order": S.order,
            "field": S.field, "packed": packed}


def sym_from_json(obj: dict) -> SymTensor:
    n, d, field = int(obj["dim"]), int(obj["order"]), obj["field"]
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field {field!r}")
    packed = [_scalar_from_json(v, field) for v in obj["packed"]]
    if len(packed) != sym_packed_length(n, d):
        raise ValueError(
            f"packed length {len(packed)} does not match dim={n} order={d}")
    dtype = np.complex128 if field == COMPLEX else np.float64
    return SymTensor(n, d, field, np.array(packed, dtype=dtype))


def load_tensor(path: str) -> Hypermatrix | SymTensor:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if obj.get("symmetric"):
        return sym_from_json(obj)
    return tensor_from_json(obj)


def save_tensor(path: str, value: Hypermatrix | SymTensor) -> None:
    obj = sym_to_json(value) if isinstance(value, SymTensor) else tensor_to_json(value)
    atomic_write_text(path, dumps_canonical(obj) + "\n")


def dumps_canonical(obj) -> str:
    """Deterministic JSON with '%.17g' floats; dict order is preserved."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: list[str]) -> None:
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_number(float(obj)))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, item) in enumerate(obj.items()):
            if k:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"non-string JSON key {key!r}")
            out.append(json.dumps(key))
            out.append(":")
            _emit(item, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(format_number(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")
