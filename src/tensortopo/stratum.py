"""Stratum descriptors and their descriptor grammar.

Grammar: ``kind:key=value;key=value;...`` with kinds

    rank, brank, mrank    (ordinary tensors; keys r, shape, field)
    sym-rank, sym-mrank   (symmetric tensors; keys d, n, r, field)

``r`` is a single integer except for mrank, where it is a comma-separated
tuple matching the shape length. Examples::

    rank:r=2;shape=3,3,3;field=real
    mrank:r=2,2,2;shape=3,3,3;field=complex
    sym-rank:d=4;n=4;r=2;field=real

Parse errors carry the character position of the offending token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import COMPLEX, REAL, Hypermatrix, SymTensor
from .errors import StratumSyntaxError

KINDS = ("rank", "brank", "mrank", "sym-rank", "sym-mrank")
_SYM_KINDS = ("sym-rank", "sym-mrank")


@dataclass(frozen=True)
class StratumDescriptor:
    """Which set of tensors we are working in.

    For ordinary kinds ``shape`` is set and ``rank`` is an int (tuple for
    mrank). For symmetric kinds ``dim``/``order`` are set and ``rank`` is an
    int. ``field`` is "real" or "complex".
    """

    kind: str
    field: str
    rank: int | tuple[int, ...]
    shape: tuple[int, ...] | None = None
    dim: int | None = None
    order: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown stratum kind {self.kind!r}")
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field {self.field!r}")
        if self.kind in _SYM_KINDS:
            if self.dim is None or self.order is None or self.shape is not None:
                raise ValueError("symmetric strata need dim and order, not shape")
            if self.dim < 1 or self.order < 1:
                raise ValueError("dim and order must be positive")
            if not isinstance(self.rank, int) or self.rank < 0:
                raise ValueError("symmetric rank must be a nonnegative int")
        else:
            if self.shape is None or self.dim is not None or self.order is not None:
                raise ValueError("ordinary strata need a shape")
            if any(s < 1 for s in self.shape):
                raise ValueError("shape entries must be positive")
            if self.kind == "mrank":
                if not isinstance(self.rank, tuple) or len(self.rank) != len(self.shape):
                    raise ValueError("mrank needs one rank per mode")
                total = math.prod(self.rank)
                for r, n in zip(self.rank, self.shape):
                    if r < 0 or r > n:
                        raise ValueError(f"mode rank {r} out of range for dimension {n}")
                    if r * r > total:
                        raise ValueError(
                            f"inadmissible multilinear rank {self.rank}: "
                            "r_i <= prod of the others must hold")
            elif not isinstance(self.rank, int) or self.rank < 0:
                raise ValueError("rank must be a nonnegative int")

    def value(self, row):
        """The tensor one row of a stack of this stratum's values stands
        for: a Hypermatrix, or a SymTensor given its packed entries."""
        if self.dim is None:
            return Hypermatrix(row, self.field)
        return SymTensor(self.dim, self.order, self.field, row)

    def check(self, value) -> None:
        """ValueError, naming the expected and the given form, unless
        ``value`` has the form of this stratum's values: a Hypermatrix of
        its shape and field, or a SymTensor of its dim, order and field."""
        if self.dim is None:
            ok = (isinstance(value, Hypermatrix) and value.shape == self.shape
                  and value.field == self.field)
            want = f"a {self.field} Hypermatrix of shape {self.shape}"
        else:
            ok = (isinstance(value, SymTensor) and value.field == self.field
                  and (value.dim, value.order) == (self.dim, self.order))
            want = f"a {self.field} SymTensor of dim {self.dim} and order {self.order}"
        if not ok:
            raise ValueError(f"{self} takes {want}, not {_form(value)}")

    def stack(self, values) -> np.ndarray:
        """The stack whose rows ``value`` turns into ``values``, each of
        which must pass ``check``."""
        for v in values:
            self.check(v)
        return np.stack([v.data if self.dim is None else v.packed for v in values])

    def canonical(self) -> str:
        return format_stratum(self)

    def __str__(self) -> str:
        return self.canonical()


def _form(value) -> str:
    """The form of a value, as StratumDescriptor.check names it."""
    if isinstance(value, Hypermatrix):
        return f"a {value.field} Hypermatrix of shape {value.shape}"
    if isinstance(value, SymTensor):
        return f"a {value.field} SymTensor of dim {value.dim} and order {value.order}"
    return f"a {type(value).__name__}"


def format_stratum(s: StratumDescriptor) -> str:
    if s.kind in _SYM_KINDS:
        return f"{s.kind}:d={s.order};n={s.dim};r={s.rank};field={s.field}"
    if s.kind == "mrank":
        r = ",".join(str(x) for x in s.rank)
    else:
        r = str(s.rank)
    shape = ",".join(str(x) for x in s.shape)
    return f"{s.kind}:r={r};shape={shape};field={s.field}"


def _parse_int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise StratumSyntaxError(f"expected an integer, got {text!r}", pos) from None


def _parse_int_tuple(text: str, pos: int) -> tuple[int, ...]:
    parts = text.split(",")
    out = []
    offset = pos
    for p in parts:
        if p == "":
            raise StratumSyntaxError("empty integer in list", offset)
        out.append(_parse_int(p, offset))
        offset += len(p) + 1
    return tuple(out)


def parse_stratum(text: str) -> StratumDescriptor:
    """Parse a stratum descriptor; raise StratumSyntaxError with position."""
    if ":" not in text:
        raise StratumSyntaxError("expected 'kind:key=value;...'", 0)
    kind, _, rest = text.partition(":")
    if kind not in KINDS:
        raise StratumSyntaxError(
            f"unknown stratum kind {kind!r} (expected one of {', '.join(KINDS)})", 0)
    pos = len(kind) + 1
    pairs: dict[str, tuple[str, int]] = {}
    for chunk in rest.split(";"):
        if chunk == "":
            raise StratumSyntaxError("empty key=value entry", pos)
        if "=" not in chunk:
            raise StratumSyntaxError(f"expected '=' in {chunk!r}", pos)
        key, _, value = chunk.partition("=")
        if key in pairs:
            raise StratumSyntaxError(f"duplicate key {key!r}", pos)
        pairs[key] = (value, pos + len(key) + 1)
        pos += len(chunk) + 1

    sym = kind in _SYM_KINDS
    expected = {"d", "n", "r", "field"} if sym else {"r", "shape", "field"}
    for key, (_, kpos) in pairs.items():
        if key not in expected:
            raise StratumSyntaxError(
                f"unknown key {key!r} for kind {kind!r} "
                f"(expected {', '.join(sorted(expected))})", kpos - len(key) - 1)
    for key in expected:
        if key not in pairs:
            raise StratumSyntaxError(f"missing key {key!r} for kind {kind!r}", len(text))

    fvalue, fpos = pairs["field"]
    if fvalue not in (REAL, COMPLEX):
        raise StratumSyntaxError(
            f"field must be 'real' or 'complex', got {fvalue!r}", fpos)

    try:
        if sym:
            d = _parse_int(*pairs["d"])
            n = _parse_int(*pairs["n"])
            r = _parse_int(*pairs["r"])
            return StratumDescriptor(kind=kind, field=fvalue, rank=r, dim=n, order=d)
        shape = _parse_int_tuple(*pairs["shape"])
        rvalue, rpos = pairs["r"]
        if kind == "mrank":
            rank: int | tuple[int, ...] = _parse_int_tuple(rvalue, rpos)
        else:
            rank = _parse_int(rvalue, rpos)
        return StratumDescriptor(kind=kind, field=fvalue, rank=rank, shape=shape)
    except ValueError as exc:
        raise StratumSyntaxError(str(exc), len(kind) + 1) from None
