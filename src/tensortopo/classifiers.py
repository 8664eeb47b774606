"""Connected-component invariants per stratum.

Each classifier returns a ComponentLabel; labels are hashable, serialize as
{"kind": ..., "value": ...}, and two tensors in the same stratum can only be
joined by an in-stratum path when their labels agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import (Kind222, brank3_conj_pair, classify_222,
                      rank2_decompose)
from .core import (DEFAULT_TOL, Hypermatrix, REAL,
                   SymRankDecomposition, SymTensor, TolerancePolicy, flatten,
                   numerical_rank, sym_diagonal_sum, sym_embed)
from .errors import ToleranceError, UnsupportedStratumError
from .stratum import StratumDescriptor


@dataclass(frozen=True)
class ComponentLabel:
    """kind: "single" | "sign" | "signature" | "sign-triple"."""

    kind: str
    value: str | int | None = None

    def __str__(self) -> str:
        if self.kind == "single":
            return "single"
        return f"{self.kind}:{self.value}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "value": self.value}


SINGLE = ComponentLabel("single")


def _sign_char(x: float) -> str:
    return "+" if x > 0 else "-"


def sign_label(x: float) -> ComponentLabel:
    return ComponentLabel("sign", _sign_char(x))


def sign_triple_label(s12: float, s13: float, s23: float) -> ComponentLabel:
    value = _sign_char(s12) + _sign_char(s13) + _sign_char(s23)
    if value.count("-") % 2 != 0:
        raise ValueError(
            f"impossible sign triple {value}: pairwise products of three "
            "signs always multiply to +")
    return ComponentLabel("sign-triple", value)


def sym_sign_rank1(S: SymTensor, tol: TolerancePolicy = DEFAULT_TOL) -> ComponentLabel:
    """Sign of the diagonal sum; separates the two components for even order.

    The diagonal sum of lambda * v^(x d) is lambda * sum(v_i^d), and the sum
    of even powers of a nonzero vector is strictly positive, so the sign is
    the sign of lambda and never vanishes on the stratum.
    """
    if S.field != REAL or S.order % 2 != 0:
        raise UnsupportedStratumError(
            "diagonal-sum sign classifier needs a real symmetric tensor of even order")
    phi = float(sym_diagonal_sum(S))
    if abs(phi) <= tol.eps_rel * max(S.norm(), 1e-300):
        raise ToleranceError(
            f"diagonal sum {phi:.3e} vanishes within tolerance; "
            "input is not in the rank-one stratum")
    return sign_label(phi)


def sym_signature(D: SymRankDecomposition, tol: TolerancePolicy = DEFAULT_TOL
                  ) -> ComponentLabel:
    """Number of positive coefficients; the r+1 classes for real even order.

    Coefficients are read with vectors unit-normalized, which makes the signs
    well-defined because even powers kill the vector-sign freedom.
    """
    if D.field != REAL or D.order % 2 != 0:
        raise UnsupportedStratumError(
            "signature classifier needs a real decomposition of even order")
    count = 0
    for lam, v in zip(D.coefficients, D.vectors):
        nv = float(np.linalg.norm(v))
        if nv == 0.0 or abs(lam) * nv ** D.order == 0.0:
            raise ToleranceError("zero term in decomposition; signature undefined")
        if float(lam) > 0:
            count += 1
    return ComponentLabel("signature", count)


def det_sign_mrank(A: Hypermatrix, mode: int,
                   tol: TolerancePolicy = DEFAULT_TOL) -> ComponentLabel:
    """Sign of the determinant of the mode-i flattening (square case only)."""
    M = flatten(A, mode)
    if M.shape[0] != M.shape[1]:
        raise UnsupportedStratumError(
            f"mode-{mode} flattening {M.shape} is not square; "
            "the determinant-sign classifier does not apply")
    r, _ = numerical_rank(M, tol)
    if r < M.shape[0]:
        raise ToleranceError(
            f"mode-{mode} flattening is numerically singular; "
            "determinant sign is undefined here")
    sign, _ = np.linalg.slogdet(M)
    return sign_label(float(sign))


def orientation_area(x: np.ndarray) -> float:
    """det[Re x | Im x] for a 2-dimensional complex vector."""
    return float(np.real(x[0]) * np.imag(x[1]) - np.real(x[1]) * np.imag(x[0]))


def classify_brank3_222(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL
                        ) -> ComponentLabel:
    """Pairwise orientation signs of the conjugate-pair decomposition.

    Writing A = T + conj(T) with T = x (x) y (x) z, each mode factor spans an
    oriented real plane with area form w = det[Re | Im]; w rescales by |c|^2
    under complex scaling and flips under conjugation, so the three pairwise
    products sign(w_x w_y), sign(w_x w_z), sign(w_y w_z) are well-defined.
    They take exactly four joint values (their product is always +).
    """
    cls = classify_222(A, tol)
    if cls.kind is not Kind222.BORDER_RANK3:
        raise ToleranceError(
            f"classification is {cls.kind.value}, not border-rank3; "
            "the sign-triple label does not apply")
    term = brank3_conj_pair(A, tol)
    areas = []
    for mode, x in enumerate(term.factors, start=1):
        w = orientation_area(x)
        if abs(w) < tol.gap_min:
            raise ToleranceError(
                f"mode-{mode} orientation area {w:.3e} is below gap_min; "
                "too close to the stratum boundary to classify")
        areas.append(w)
    return sign_triple_label(areas[0] * areas[1], areas[0] * areas[2],
                             areas[1] * areas[2])


def _sym_matrix_signature(S: SymTensor, r: int,
                          tol: TolerancePolicy) -> ComponentLabel:
    """Signature of a rank-r symmetric matrix, from its eigenvalues."""
    M = sym_embed(S).data
    lam = np.linalg.eigvalsh(M)
    scale = float(np.max(np.abs(lam)))
    if scale == 0.0:
        raise ToleranceError("zero matrix has no signature")
    tau = scale * M.shape[0] * tol.eps_rel
    pos = int(np.sum(lam > tau))
    neg = int(np.sum(lam < -tau))
    if pos + neg != r:
        raise ToleranceError(
            f"eigenvalue signature ({pos}, {neg}) does not witness rank {r}")
    return ComponentLabel("signature", pos)


def mrank_saturation(stratum: StratumDescriptor) -> str:
    """One of "none", "saturated-square", "mixed" for a real mrank stratum.

    "saturated-square": some r_i equals the product of the others and every
    mode has n_j = r_j, so the mode-i flattening of the tensor itself is
    square and its determinant sign is the component invariant. "mixed":
    the rank condition holds but some mode has ambient room; the component
    count there is an open experimental question, not a classifier.
    """
    if square_mode(stratum) is None:
        return "none"
    if all(n == r for n, r in zip(stratum.shape, stratum.rank)):
        return "saturated-square"
    return "mixed"


def square_mode(stratum: StratumDescriptor) -> int | None:
    """1-based mode whose flattening is square in the saturated case."""
    ranks = stratum.rank
    total = math.prod(ranks)
    for i, r in enumerate(ranks):
        if r * r == total and stratum.shape[i] == r:
            return i + 1
    return None


def classify(stratum: StratumDescriptor, value,
             tol: TolerancePolicy = DEFAULT_TOL) -> ComponentLabel:
    """Component label from the stratum's record (see kinds.py).

    ``value`` is the tensor (Hypermatrix or SymTensor); strata whose
    invariant needs a decomposition witness accept a SymRankDecomposition.
    Strata the underlying results leave unclassified raise
    UnsupportedStratumError rather than guessing.
    """
    return kinds.kind_of(stratum).classify(stratum, value, tol)


def _sym_rank2_witness(S: SymTensor, tol: TolerancePolicy) -> SymRankDecomposition:
    """Recover the two-term symmetric decomposition from the embedding.

    The rank-two decomposition of the embedded tensor is unique up to order,
    so for a symmetric input each term must itself be symmetric: all mode
    factors of a term agree up to sign, which even powers absorb.
    """
    t1, t2 = rank2_decompose(sym_embed(S), tol)
    coefficients = []
    vectors = []
    for term in (t1, t2):
        base = term.factors[0]
        lam = term.scalar
        for f in term.factors[1:]:
            align = float(np.real(np.vdot(base, f)))
            if abs(abs(align) - 1.0) > 1e-6:
                raise ToleranceError(
                    "rank-two terms of a symmetric tensor should have "
                    "collinear factors; input is not symmetric rank two")
            if align < 0:
                lam = -lam
        coefficients.append(float(np.real(lam)))
        vectors.append(base)
    return SymRankDecomposition(S.order, tuple(coefficients), tuple(vectors), S.field)


# The kind records are built from the invariants above, so they come last.
from . import kinds  # noqa: E402
