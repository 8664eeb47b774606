"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class TensorTopoError(Exception):
    """Base class for all package-specific errors."""


class ToleranceError(TensorTopoError):
    """A numerical read is too ambiguous to act on (margin/gap failure)."""


class DegenerateError(TensorTopoError):
    """The requested decomposition does not exist over the requested field.

    Typical case: a real 2x2 slice pencil whose eigenvalues form a complex
    conjugate pair, so no real rank-2 decomposition exists.
    """


class DifferentComponents(TensorTopoError):
    """Two points lie in distinct components: their component labels, which
    a path inside the stratum cannot change, differ.

    Carries the two ComponentLabels so callers can report them.
    """

    def __init__(self, label_a, label_b, detail: str = ""):
        self.label_a = label_a
        self.label_b = label_b
        self.detail = detail
        msg = f"endpoints carry different component labels: {label_a} vs {label_b}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class RetryExhausted(TensorTopoError):
    """Detour retries hit the recursion depth cap without a verified path."""


class UnsupportedStratumError(TensorTopoError):
    """No sampler/classifier/connector is implemented for this stratum."""


class StratumSyntaxError(TensorTopoError):
    """A stratum descriptor failed to parse. Carries the character position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"stratum descriptor error at position {position}: {message}")


def caught(check, *args) -> TensorTopoError | None:
    """The TensorTopoError that ``check(*args)`` raises, or None when it
    returns: how a batched routine keeps one verdict per tensor while each
    rule and its message are written once, for one tensor."""
    try:
        check(*args)
    except TensorTopoError as exc:
        return exc
    return None


def rejected(mask, error) -> list:
    """Per row of a boolean mask, None where it is False and ``error(k)``
    where row k is True: how a batched routine writes each rule once, as an
    array predicate whose message is formatted only for the rows it
    rejects."""
    out: list = [None] * len(mask)
    for k in np.flatnonzero(mask).tolist():
        out[k] = error(k)
    return out


def settled(verdict):
    """The inverse of ``caught`` for one verdict of a batched routine: the
    verdict, or the error it holds raised."""
    if isinstance(verdict, Exception):
        raise verdict
    return verdict
