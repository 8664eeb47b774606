"""Connected-component invariants per stratum.

Each classifier returns a ComponentLabel; labels are hashable, serialize as
{"kind": ..., "value": ...}, and two tensors in the same stratum can only be
joined by an in-stratum path when their labels agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import (_conj_pair_terms, classify_222, hyperdet_signs,
                      rank2_decompositions)
from .core import (COMPLEX, DEFAULT_TOL, Hypermatrix, REAL, RankOneFactors,
                   SymRankDecomposition, SymTensor, TolerancePolicy,
                   _sym_index_tables, flatten, flattening_det_signs,
                   numerical_rank, row_norms, sym_embed_stack)
from .errors import (ToleranceError, UnsupportedStratumError, rejected,
                     settled)
from .geometry import flip_exponent
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
    the sign of lambda and never vanishes on the stratum. The one-tensor
    case of sym_signs_rank1.
    """
    if S.field != REAL or S.order % 2 != 0:
        raise UnsupportedStratumError(
            "diagonal-sum sign classifier needs a real symmetric tensor of even order")
    return settled(sym_signs_rank1(S.packed[None], S.dim, S.order, tol)[0])


def sym_signs_rank1(packed: np.ndarray, n: int, d: int,
                    tol: TolerancePolicy = DEFAULT_TOL) -> list:
    """sym_sign_rank1 for every row of a real (K, L) packed stack of order
    d, with one gather of the diagonal entries: per tensor its label, or the
    ToleranceError that refuses a diagonal sum within eps_rel ||S|| of 0.
    Each sum adds the diagonal entries in index order, as sym_diagonal_sum
    adds them."""
    _, position, weights = _sym_index_tables(n, d)
    diagonal = packed[:, position[np.arange(n) * sum(n ** k for k in range(d))]]
    phi = 0.0
    for column in diagonal.T:
        phi = phi + column
    norms = np.sqrt(np.sum(weights * np.abs(packed) ** 2, axis=1))
    labels = rejected(np.abs(phi) <= tol.eps_rel * np.maximum(norms, 1e-300),
                      lambda k: ToleranceError(
                          f"diagonal sum {phi[k]:.3e} vanishes within tolerance; "
                          "input is not in the rank-one stratum"))
    return [label or sign_label(x) for label, x in zip(labels, phi.tolist())]


def sym_term_coefficients(decompositions: list) -> np.ndarray:
    """The (K, r) term coefficients lambda_k |v_k|^d of K decompositions
    with r terms each: the coefficients of their unit vectors."""
    lam = np.array([D.coefficients for D in decompositions])
    vectors = np.array([D.vectors for D in decompositions])
    norms = row_norms(vectors.reshape(-1, vectors.shape[-1])).reshape(lam.shape)
    return lam * norms ** decompositions[0].order


def sym_signatures(coefficients: np.ndarray) -> list:
    """sym_signature for every row of a (K, r) array of term coefficients
    of unit vectors (sym_term_coefficients, or a symmetric term-sum path's
    witnesses): per row its label, or the ToleranceError that refuses a
    zero term. A term that is not a nonzero number, such as the NaN of a
    vector of norm 0 divided by its norm, is a zero term."""
    labels = rejected(~(np.abs(coefficients) > 0.0).all(axis=1), lambda k: ToleranceError(
        "zero term in decomposition; signature undefined"))
    named: dict = {}
    for k, positive in enumerate(np.sum(coefficients > 0.0, axis=1).tolist()):
        if labels[k] is None:
            labels[k] = named.setdefault(positive, ComponentLabel("signature", positive))
    return labels


def sym_signature(D: SymRankDecomposition, tol: TolerancePolicy = DEFAULT_TOL
                  ) -> ComponentLabel:
    """Number of positive coefficients; the r+1 classes for real even order.

    Coefficients are read with vectors unit-normalized, which makes the signs
    well-defined because even powers kill the vector-sign freedom. The
    one-decomposition case of sym_signatures.
    """
    if D.field != REAL or D.order % 2 != 0:
        raise UnsupportedStratumError(
            "signature classifier needs a real decomposition of even order")
    return settled(sym_signatures(sym_term_coefficients([D]))[0])


def det_sign_mrank(A: Hypermatrix, mode: int,
                   tol: TolerancePolicy = DEFAULT_TOL) -> ComponentLabel:
    """Sign of the determinant of the mode-i flattening (square case only),
    read as flattening_det_signs reads a stack."""
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
    return sign_label(flattening_det_signs(A.data[None], [mode])[0][0])


def orientation_area(x: np.ndarray):
    """det[Re x | Im x] for a 2-dimensional complex vector, or, given a
    (K, 2) stack, for each of its rows as an array."""
    w = (np.real(x[..., 0]) * np.imag(x[..., 1])
         - np.real(x[..., 1]) * np.imag(x[..., 0]))
    return float(w) if np.ndim(x) == 1 else w


def _area_errors(areas: np.ndarray, tol: TolerancePolicy) -> list:
    """Per row of a (K, 3) array of orientation areas, the ToleranceError
    naming the first mode whose area is below gap_min in size, or None."""
    small = np.abs(areas) < tol.gap_min
    first = small.argmax(axis=1)
    return rejected(small.any(axis=1), lambda k: ToleranceError(
        f"mode-{first[k] + 1} orientation area {areas[k, first[k]]:.3e} is "
        "below gap_min; too close to the stratum boundary to classify"))


def _not_border_rank3(A: Hypermatrix, tol: TolerancePolicy) -> ToleranceError:
    """The refusal of an input the band test does not call border-rank3,
    worded with classify_222's kind (classify_222 raises ValueError on an
    input that is not a real 2x2x2 tensor)."""
    return ToleranceError(
        f"classification is {classify_222(A, tol).kind.value}, not border-rank3; "
        "the sign-triple label does not apply")


def _brank3_read(data: np.ndarray, tol: TolerancePolicy, signs) -> tuple:
    """The one conjugate-pair pass of brank3_labels and
    brank3_labelled_terms: the labels (or refusals) of a real (K, 2, 2, 2)
    stack; the indices of its rows below the band; and for those rows the
    unit factors and coefficients of the terms whose first factor has
    positive orientation."""
    signs = hyperdet_signs(data, tol) if signs is None else np.asarray(signs)
    below = np.flatnonzero(signs < 0)
    factors, coefficients, errors = _conj_pair_terms(
        data if below.size == len(data) else data[below], tol)
    areas = orientation_area(factors.reshape(-1, 2)).reshape(-1, 3)
    # the conjugate term, whose first factor has positive orientation
    conjugate = areas[:, 0] < 0
    if conjugate.any():
        areas[conjugate] *= -1.0
        factors[conjugate] = np.conj(factors[conjugate])
        coefficients[conjugate] = np.conj(coefficients[conjugate])
    products = areas[:, [0, 0, 1]] * areas[:, [1, 2, 2]]
    triples = (products > 0) @ np.array([4, 2, 1])
    labels = rejected(signs >= 0, lambda k: _not_border_rank3(Hypermatrix(data[k], REAL), tol))
    named: dict = {}
    for row, (k, error, triple) in enumerate(zip(
            below.tolist(), [e1 or e2 for e1, e2 in zip(errors, _area_errors(areas, tol))],
            triples.tolist())):
        if error is None and triple not in named:
            named[triple] = sign_triple_label(*products[row])
        labels[k] = error or named[triple]
    return labels, below, factors, coefficients


def brank3_labels(data: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL,
                  signs: np.ndarray | None = None) -> list:
    """classify_brank3_222 for every tensor of a real (K, 2, 2, 2) stack,
    with one conjugate-pair pass (certify.conj_pair_stack, one batched
    pencil SVD): per tensor its label, or the ToleranceError it raises, with
    the same message. ``signs`` are the stack's hyperdet_signs when the
    caller has read them; otherwise they are read here, with one
    hyperdet222 call. Tensors with one sign triple share one label."""
    return _brank3_read(data, tol, signs)[0]


def brank3_labelled_terms(data: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL
                          ) -> list:
    """Per tensor of a real (K, 2, 2, 2) stack, from the one conjugate-pair
    pass of brank3_labels: its label and the complex rank-one term
    T = c x (x) y (x) z with A = T + conj(T) whose first factor has positive
    orientation (x, y, z unit, c the fitted coefficient), as a pair, or the
    ToleranceError that refuses its label. These are the witnesses
    connect_brank3_222 takes."""
    labels, below, factors, coefficients = _brank3_read(data, tol, None)
    for row, k in enumerate(below.tolist()):
        if not isinstance(labels[k], Exception):
            labels[k] = (labels[k], RankOneFactors(
                complex(coefficients[row]), tuple(factors[row]), COMPLEX))
    return labels


def classify_brank3_222(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL
                        ) -> ComponentLabel:
    """Pairwise orientation signs of the conjugate-pair decomposition.

    Writing A = T + conj(T) with T = c x (x) y (x) z, each mode factor spans
    an oriented real plane with area form w(v) = det[Re v | Im v] =
    Im(conj(v_0) v_1); w rescales by |c|^2 under complex scaling and flips
    under conjugation, so the three pairwise products sign(w_x w_y),
    sign(w_x w_z), sign(w_y w_z) are well-defined. They take exactly four
    joint values (their product is always +).

    The factors come in closed form from the mode-1 slice pencil (de Silva
    & Lim 2008, the negative-hyperdeterminant case). With S0 = A[0] and
    S1 = A[1], S_i = c x_i y z^T + conj(c x_i y z^T), so

        x_1 S0 - x_0 S1 = conj(c) (x_1 conj(x_0) - x_0 conj(x_1)) conj(y) conj(z)^T.

    Hence det(beta*S0 - alpha*S1) vanishes at (alpha, beta) = x and at
    conj(x): for hyperdeterminant < 0 it has one pair of conjugate roots,
    and the unit root is x up to phase. At that root the pencil M is rank
    one, and its leading singular pair u, v gives y ~ conj(u) and
    z ~ conj(v). Taking the other root conjugates all three factors, which
    leaves every pairwise product unchanged. One batched 2x2 SVD per stack
    replaces the complex rank-two decomposition of brank3_conj_pair, and
    every check of that route stays: the classify_222 band, pencil-root
    separation, the rank-one ratio of M, a rebuild of A within 1e-8 ||A||
    and a per-mode unit-factor area of at least gap_min (see
    certify.conj_pair_stack). This is the one-tensor case of brank3_labels,
    which labels a whole path grid with one such SVD.

    The band is tested on the hyperdeterminant alone: below -eps_rel ||A||^4
    no flattening has rank one (Det vanishes to second order on rank one),
    so classify_222 would say border-rank3. It runs only to word a refusal.
    """
    if A.shape != (2, 2, 2) or A.field != REAL:
        raise _not_border_rank3(A, tol)
    return settled(brank3_labels(A.data[None], tol)[0])


def sym_matrix_signatures(packed: np.ndarray, n: int, r: int,
                          tol: TolerancePolicy = DEFAULT_TOL) -> list:
    """Signature of the rank-r symmetric n x n matrix of every row of a
    (K, L) packed stack, from its eigenvalues (one batched eigvalsh): per
    matrix its label, or the ToleranceError that refuses it. An eigenvalue
    counts when it exceeds n * eps_rel times the largest in size."""
    lam = np.linalg.eigvalsh(sym_embed_stack(packed, n, 2))
    scale = np.max(np.abs(lam), axis=1, keepdims=True)
    tau = scale * n * tol.eps_rel
    labels = []
    for top, pos, neg in zip(scale[:, 0].tolist(), np.sum(lam > tau, axis=1).tolist(),
                             np.sum(lam < -tau, axis=1).tolist()):
        if top == 0.0:
            labels.append(ToleranceError("zero matrix has no signature"))
        elif pos + neg != r:
            labels.append(ToleranceError(
                f"eigenvalue signature ({pos}, {neg}) does not witness rank {r}"))
        else:
            labels.append(ComponentLabel("signature", pos))
    return labels


def mrank_sign_mode(stratum: StratumDescriptor) -> int | None:
    """The 1-based mode whose determinant sign labels a real multilinear
    rank's two components, or None where the stratum is connected.

    Over R, a mode i is square when n_i = r_i = prod_{j != i} r_j; a mode j
    is roomy when n_j > r_j. The answer is the first square mode i when
    every roomy mode j has an even ``geometry.flip_exponent(r, i, j)``,
    and None otherwise (and over C, where every stratum is connected).

    Derivation. Let U_j be the mode-j column space of a member A, of
    dimension r_j, and F_j an orthonormal frame of it. Compressing each
    roomy mode onto its frame, A x_j F_j^T, leaves the mode-i flattening
    r_i x prod_{j != i} r_j, square, and invertible: it is the mode-i
    flattening of A restricted to the tensor product of the U_j. Another
    frame F_j g_j (g_j orthogonal) multiplies the flattening on the right
    by g_j Kronecker the identity of the other modes k != i, j, so it
    multiplies the determinant by det(g_j)^{e_j} with
    e_j = prod_{k not in {i, j}} r_k = flip_exponent(r, i, j). A mode with
    n_j = r_j has U_j = R^{n_j} with its fixed orientation and needs no
    frame.
    - When every e_j is even, the sign does not depend on the frames. It
      is then continuous on the stratum, never zero, and takes both values
      (reflect mode i): at least two components.
      ``connect_mrank`` joins every pair of one sign, so the count is 2.
    - When some e_j is odd, carrying U_j's frame around an orientation
      loop (``geometry.OrientationLoop``) returns it reflected and flips
      the sign inside the stratum, so ``connect_mrank`` joins every pair:
      the count is 1.
    With no roomy mode, the first case is the saturated square one, where
    the read is the determinant sign of A's own flattening.

    PAPER.md holds only the source paper's abstract, whose exception
    clause ("unless n_i = r_i = prod_{j != i} r_j") covers both cases. So
    these counts are derived here, not quoted, and the census is there to
    refute them. Both the 2 and the 1 rest on sample-checked paths until
    whole paths are certified between their samples.
    """
    i = square_mode(stratum)
    if stratum.field != REAL or i is None:
        return None
    if any(n > r and flip_exponent(stratum.rank, i - 1, j) % 2
           for j, (n, r) in enumerate(zip(stratum.shape, stratum.rank))):
        return None
    return i


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
    """Component label from the stratum's record (see kinds.py): its judge
    and labels on a one-value stack.

    ``value`` is the tensor (Hypermatrix or SymTensor) of the stratum's
    form (ValueError otherwise); a SymRankDecomposition is judged as its
    tensor and labelled with itself as the witness. A value the judge
    refuses raises ToleranceError naming the stratum and the judge's note,
    a refused label raises its refusal, and a stratum without a component
    invariant raises UnsupportedStratumError rather than guessing.
    """
    witness = value if isinstance(value, SymRankDecomposition) else None
    stack = stratum.stack([value if witness is None else value.tensor()])
    kind = kinds.kind_of(stratum)
    verdicts = kind.judge(stratum, stack, tol)
    if not verdicts.ok[0]:
        note = verdicts.notes[0]
        raise ToleranceError(
            f"not a member of {stratum}: flattening ranks "
            f"{tuple(verdicts.ranks[0].tolist())}" + (f"; {note}" if note else ""))
    (label,) = kind.labels(stratum, stack, [witness], tol)
    if label is None:
        raise UnsupportedStratumError(f"no component invariant for {stratum}")
    return settled(label)


def _sym_rank2_witnesses(packed: np.ndarray, n: int, d: int, field: str,
                         tol: TolerancePolicy) -> list:
    """Recover the two-term symmetric decomposition of every row of a
    (K, L) packed stack from its embedding, with one stacked rank-two
    decomposition: per tensor its decomposition, or the ToleranceError or
    DegenerateError that refuses it.

    The rank-two decomposition of the embedded tensor is unique up to order,
    so for a symmetric input each term must itself be symmetric: all mode
    factors of a term agree up to a unit scalar (a sign over R, a phase over
    C), which moves into the coefficient.
    """
    return [terms if isinstance(terms, Exception) else _collinear_terms(terms, d, field)
            for terms in rank2_decompositions(sym_embed_stack(packed, n, d), tol)]


def _collinear_terms(terms: tuple, d: int, field: str):
    """The SymRankDecomposition of rank-one terms whose mode factors agree
    up to unit scalars, or the ToleranceError when some do not."""
    coefficients = []
    vectors = []
    for term in terms:
        base = term.factors[0]
        lam = term.scalar
        for f in term.factors[1:]:
            align = np.vdot(base, f)
            if abs(abs(align) - 1.0) > 1e-6:
                return ToleranceError(
                    "rank-two terms of a symmetric tensor should have "
                    "collinear factors; input is not symmetric rank two")
            lam = lam * (align / abs(align))
        coefficients.append(float(np.real(lam)) if field == REAL
                            else complex(lam))
        vectors.append(base)
    return SymRankDecomposition(d, tuple(coefficients), tuple(vectors), field)


def _sym_rank2_witness(S: SymTensor, tol: TolerancePolicy) -> SymRankDecomposition:
    """The two-term symmetric decomposition of S: the one-tensor case of
    _sym_rank2_witnesses."""
    return settled(_sym_rank2_witnesses(S.packed[None], S.dim, S.order, S.field, tol)[0])


# The kind records are built from the invariants above, so they come last.
from . import kinds  # noqa: E402
