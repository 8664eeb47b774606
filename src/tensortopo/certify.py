"""Rank certificates: rank-one tests, the 2x2x2 hyperdeterminant, and
rank-two decomposition via the slice pencil.

The degree-4 hyperdeterminant of a real 2x2x2 tensor separates the two
generic regimes: positive on rank-two tensors, negative on the real
border-rank-three stratum, zero on the boundary. It coincides with the
discriminant of det(beta*S0 - alpha*S1) where S0, S1 are the mode-1 slices,
which is also how rank-two decompositions are computed, and how the
conjugate pair of the negative regime is read in closed form.

The hyperdeterminant and the rank-two decomposition run on a whole stack of
same-shape tensors at once: ``rank2_certify`` gives every sample of a path
grid its verdict with one batched LAPACK call per step (the least-squares
fit of the term coefficients included), ``rank2_decompositions`` gives a
stack's terms the same way, and ``rank2_decompose`` is its one-tensor case.
Each tensor of a stack gets the bits it gets alone:
elementwise steps round as numpy's scalar arithmetic rounds (its array loops
may fuse the multiply and add of a complex product, so ``_mul`` spells that
product out). Every check is written once, as an array predicate over the
stack whose message is formatted only for the rows it rejects
(``errors.rejected``); a later check sees only the rows the earlier ones
passed, so each tensor gets the first refusal, and its message, that it
gets alone.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (COMPLEX, DEFAULT_TOL, Hypermatrix, RankOneFactors, REAL,
                   TolerancePolicy, _mul, _ranks, fix_phase, flatten,
                   flatten_stack, mode_multiply_stack, numerical_rank,
                   outer_product, outer_stack, row_norms)
from .errors import DegenerateError, ToleranceError, rejected, settled
from .geometry import check_orthonormal, dominant_frames, tucker_stack


def _rank_one_stack(data: np.ndarray, field: str, tol: TolerancePolicy
                    ) -> tuple[np.ndarray, np.ndarray, list]:
    """is_rank_one for every tensor of a (K, ...) stack, with batched SVDs
    per mode: a (K,) mask of the tensors that are rank one, then the witness
    scalars (K,) and unit factors, one (K, n_i) array per mode (garbage where
    not rank one; both None when no tensor is)."""
    K = data.shape[0]
    ok = np.vecdot(data.reshape(K, -1), data.reshape(K, -1)).real != 0.0
    factors = []
    for mode in range(1, data.ndim):
        M = flatten_stack(data, mode)
        ok &= _ranks(np.linalg.svd(M, compute_uv=False), max(M.shape[1:]), tol) == 1
        if not ok.any():
            return ok, None, None
        U, _, _ = np.linalg.svd(M, full_matrices=False)
        factors.append(fix_phase(U[:, :, 0]))
    # frobenius_inner(A, unit witness), rounded as for one tensor
    unit = (outer_stack(factors) * 1.0).reshape(K, -1)
    flat = data.reshape(K, -1)
    scalars = np.sum(flat * (unit if field == REAL else np.conj(unit)), axis=1)
    return ok, scalars, factors


def is_rank_one(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL
                ) -> tuple[bool, RankOneFactors | None]:
    """True iff A is nonzero and every flattening has numerical rank one.

    On success also returns a witness: unit factors recovered from leading
    singular vectors (first significant component positive real) and the
    scalar carrying magnitude and phase. The one-tensor case of
    _rank_one_stack.
    """
    ok, scalars, factors = _rank_one_stack(A.data[None], A.field, tol)
    if not ok[0]:
        return False, None
    scalar = float(scalars[0]) if A.field == REAL else complex(scalars[0])
    return True, RankOneFactors(scalar, tuple(f[0] for f in factors), A.field)


def hyperdet222(A):
    """Cayley's degree-4 invariant of a real 2x2x2 tensor, or, given a real
    (K, 2, 2, 2) array, the K invariants of its tensors as an array."""
    if isinstance(A, Hypermatrix):
        if A.shape != (2, 2, 2) or A.field != REAL:
            raise ValueError("hyperdet222 needs a real tensor of shape (2, 2, 2)")
        a = A.data
    else:
        a = np.asarray(A)
        if a.ndim != 4 or a.shape[1:] != (2, 2, 2) or a.dtype != np.float64:
            raise ValueError("hyperdet222 needs a real (K, 2, 2, 2) array")
    a000, a001, a010, a011, a100, a101, a110, a111 = a.reshape(a.shape[:-3] + (8,)).T
    square_terms = ((a000 * a000) * (a111 * a111) + (a001 * a001) * (a110 * a110)
                    + (a010 * a010) * (a101 * a101) + (a100 * a100) * (a011 * a011))
    pair_terms = (a000 * a001 * a110 * a111 + a000 * a010 * a101 * a111
                  + a000 * a100 * a011 * a111 + a001 * a010 * a101 * a110
                  + a001 * a100 * a011 * a110 + a010 * a100 * a011 * a101)
    quad_terms = a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111
    det = square_terms - 2.0 * pair_terms + 4.0 * quad_terms
    return float(det) if a.ndim == 3 else det


def _band(scale: float, tol: TolerancePolicy) -> float:
    """classify_222's decision band |Det| <= eps_rel * ||A||^4 for a tensor
    of norm ``scale`` (degree matching: Det is quartic in the entries)."""
    return tol.eps_rel * scale ** 4


def hyperdet_signs(data: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Per tensor of a real (K, 2, 2, 2) stack, the sign of its
    hyperdeterminant outside classify_222's band, and 0 inside it, as a
    (K,) array: one hyperdet222 call for the stack. The band takes each
    norm's fourth power as Python's pow does, which numpy's array power
    does not always match."""
    det = hyperdet222(data)
    tau = np.array([_band(scale, tol) for scale in row_norms(data).tolist()])
    return np.where(det > tau, 1, np.where(det < -tau, -1, 0))


class Kind222(enum.Enum):
    ZERO = "zero"
    RANK1 = "rank1"
    RANK2 = "rank2"
    BORDER_RANK3 = "border-rank3"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class Classification222:
    kind: Kind222
    hyperdet: float


def classify_222(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL) -> Classification222:
    """Five-way classification of a real 2x2x2 tensor by hyperdeterminant sign.

    The decision band is |Det| <= eps_rel * ||A||^4 (see _band). Inside the
    band, inputs with a rank-deficient flattening are genuine rank <= 2; the
    rest sit numerically on the discriminant and are reported as Boundary
    rather than guessed.
    """
    if A.shape != (2, 2, 2) or A.field != REAL:
        raise ValueError("classify_222 needs a real tensor of shape (2, 2, 2)")
    scale = A.norm()
    if scale == 0.0:
        return Classification222(Kind222.ZERO, 0.0)
    det = hyperdet222(A)
    ok, _ = is_rank_one(A, tol)
    if ok:
        return Classification222(Kind222.RANK1, det)
    tau = _band(scale, tol)
    if det < -tau:
        return Classification222(Kind222.BORDER_RANK3, det)
    if det > tau:
        return Classification222(Kind222.RANK2, det)
    flat_ranks = [numerical_rank(flatten(A, m), tol)[0] for m in (1, 2, 3)]
    if min(flat_ranks) <= 1:
        return Classification222(Kind222.RANK2, det)
    return Classification222(Kind222.BOUNDARY, det)


def _abs(x):
    """|x| elementwise, rounded as abs() of one numpy scalar rounds it."""
    return np.hypot(x.real, x.imag) if np.iscomplexobj(x) else np.abs(x)


# det(beta*S0 - alpha*S1) = a alpha^2 + b alpha beta + c beta^2 is a sum of
# products of core entries (flat index 4*i + 2*j + k of core[i, j, k]):
# a = det S1, b = -trace(adj(S0) S1), c = det S0, in this order of products
_PENCIL_LEFT = np.array([4, 5, 3, 1, 2, 0, 0, 1])
_PENCIL_RIGHT = np.array([7, 6, 4, 6, 5, 7, 3, 2])
_PENCIL_SIGN = np.array([1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0])


def _pencil_coefficients(core: np.ndarray) -> tuple:
    """(a, b, c) with det(beta*S0 - alpha*S1) = a alpha^2 + b alpha beta + c beta^2,
    for a 2x2x2 core or, elementwise, for each core of a (K, 2, 2, 2) stack."""
    flat = core.reshape(core.shape[:-3] + (8,))
    p = _mul(flat[..., _PENCIL_LEFT] * _PENCIL_SIGN, flat[..., _PENCIL_RIGHT]).T
    return p[0] - p[1], -(p[2] + p[3] + p[4] + p[5]), p[6] - p[7]


def _projective_roots(a, b, c, field: str, tol: TolerancePolicy):
    """Unit-normalized projective roots (alpha, beta) of a x^2 + b xy + c y^2
    for each entry of the (K,) coefficient arrays: a (K, 2, 2) array indexed
    (pencil, root, coordinate), and per pencil the error it raises, or None.

    The error is DegenerateError over the reals when the roots are complex,
    and ToleranceError when the two roots are closer than gap_min in chordal
    distance (including double roots and the identically-zero pencil).
    """
    coefficients = np.stack((a, b, c))
    scale = _abs(coefficients).max(axis=0)
    with np.errstate(all="ignore"):
        a, b, c = coefficients / scale
        disc = _mul(b, b) - _mul(_mul(4.0, a), c)
        if field == REAL:
            sq = np.sqrt(disc)
            sgn = np.where(b * sq >= 0.0, 1.0, -1.0)
        else:
            sq = np.array([cmath.sqrt(z) for z in disc.tolist()], dtype=np.complex128)
            sgn = np.where(_mul(np.conj(b), sq).real >= 0.0, 1.0, -1.0)
        t = -(b + _mul(sgn, sq)) / 2.0
        raw = np.stack((t, a, c, t), axis=-1).reshape(-1, 2, 2)
        a_zero = a == 0.0
        if a_zero.any() or (t == 0.0).any():
            t_zero = ~a_zero & (t == 0.0)
            raw[a_zero, 0] = (1.0, 0.0)
            raw[a_zero, 1] = np.stack((-c[a_zero], b[a_zero]), axis=-1)
            raw[t_zero] = (0.0, 1.0)
        # np.linalg.norm of one 2-vector is a dot product; so is this matmul
        if field == COMPLEX:
            re, im = np.ascontiguousarray(raw.real), np.ascontiguousarray(raw.imag)
            sq_norm = (np.matmul(re[..., None, :], re[..., :, None])
                       + np.matmul(im[..., None, :], im[..., :, None]))
        else:
            sq_norm = np.matmul(raw[..., None, :], raw[..., :, None])
        roots = fix_phase(raw / np.sqrt(sq_norm[..., 0]))
    x, y = roots[:, 0], roots[:, 1]
    separation = _abs(_mul(x[:, 0], y[:, 1]) - _mul(y[:, 0], x[:, 1]))
    # each pencil's first refusal, in rule order
    errors = [e1 or e2 or e3 or e4 for e1, e2, e3, e4 in zip(
        rejected(scale == 0.0, lambda k: ToleranceError(
            "slice pencil determinant vanishes identically")),
        rejected(a_zero & (b == 0.0), lambda k: ToleranceError(
            "slice pencil has a double root at infinity")),
        rejected((disc < 0.0) & ~a_zero if field == REAL else np.zeros_like(a_zero),
                 lambda k: DegenerateError(
                     "slice pencil has complex roots: real rank exceeds two "
                     "(negative hyperdeterminant regime)")),
        _separation_errors(separation, tol))]
    return roots, errors


def _separation_errors(separation: np.ndarray, tol: TolerancePolicy) -> list:
    """Per pair of unit pencil roots, the ToleranceError when they are not
    gap_min apart (or not roots at all: a pencil that vanishes has NaN
    roots), or None."""
    return rejected(~(separation >= tol.gap_min), lambda k: ToleranceError(
        f"slice pencil roots separated by {separation[k]:.3e} < gap_min; "
        "rank-two decomposition is not identifiable here"))


def _rank_one_matrix_factors(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Unit row/column factors u, w of each numerically rank-one matrix
    M = s * u w^T of a (K, m, n) stack, with one batched SVD, and per matrix
    the ToleranceError when its singular values are not those of a rank-one
    matrix to a 1e-6 ratio, or None."""
    U, sigma, Vh = np.linalg.svd(M)
    top, second = sigma[:, 0], sigma[:, 1]
    return U[..., 0], Vh[..., 0, :], rejected(
        (top == 0.0) | (second > 1e-6 * top), lambda k: ToleranceError(
            "pencil slice expected to be rank one is not "
            f"(sigma ratio {second[k] / max(top[k], 1e-300):.3e})"))


def _normalized_terms(lam: np.ndarray, lifted: list, field: str) -> list:
    """Both terms of every tensor of a stack with the factor norms and
    phases pushed into the scalar, the factors unit: ``lam`` holds the
    (n, 2) term coefficients and ``lifted`` the (n, 2, n_i) factors per
    mode. Per tensor a pair of RankOneFactors, each with the bits that
    normalizing its one term alone gives it (norms as np.linalg.norm, the
    products as numpy's scalar products, see _mul)."""
    n = len(lam)
    scalar, rows, out = lam.reshape(-1), np.arange(2 * n), []
    for V in lifted:
        V = V.reshape(2 * n, -1)
        nv = row_norms(V)
        u = V / nv[:, None]
        fixed = fix_phase(u)
        # fix_phase's pivot: the first entry above 1e-8 times the largest
        mag = np.abs(u)
        pivot = (mag > 1e-8 * mag.max(axis=1, keepdims=True)).argmax(axis=1)
        top = fixed[rows, pivot]
        with np.errstate(divide="ignore", invalid="ignore"):
            phase = np.where(top != 0, u[rows, pivot] / top, 1.0)
        scalar = _mul(_mul(scalar, nv), phase)
        out.append(fixed.reshape(n, 2, -1))
    scalar = scalar.reshape(n, 2)
    return [tuple(RankOneFactors(float(scalar[i, k].real) if field == REAL else scalar[i, k],
                                 tuple(f[i, k] for f in out), field) for k in (0, 1))
            for i in range(n)]


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(M: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(M[k], y[k], rcond=None)[0] for every k of a (K, m, n)
    stack and its (K, m) right-hand sides, as one (K, n) array: one call of
    the batched LAPACK kernel np.linalg.lstsq wraps (its gelsd gufunc), with
    lstsq's cutoff rcond = eps * max(m, n) and signature, so each row has
    the bits lstsq gives it alone."""
    m, n = M.shape[-2:]
    complex_ = np.iscomplexobj(M) or np.iscomplexobj(y)
    with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(M, y[..., None], np.finfo(np.float64).eps * max(m, n),
                                signature="DDd->Ddid" if complex_ else "ddd->ddid")[0]
    return x[..., 0]


def _rank2_terms(data: np.ndarray, ranks, tol: TolerancePolicy) -> tuple:
    """Per tensor of a (K, ...) stack the ToleranceError or DegenerateError
    rank2_decompose raises on it, or None; then None when no tensor passes,
    else the passing tensors' indices, their (n, 2) term coefficients and,
    per mode, their (n, 2, n_i) factors, lifted through the Tucker frames
    but not normalized.

    Each step runs on the tensors that passed the steps before it, so each
    tensor gets the first error in rank2_decompose's order. ``ranks[k]`` is
    tensor k's multilinear rank read (see tucker_stack), or None.
    """
    d, field = data.ndim - 1, COMPLEX if np.iscomplexobj(data) else REAL
    if d < 3:
        raise ValueError("rank2_decompose needs an order >= 3 tensor")
    outcome: list = [None] * len(data)
    live = np.arange(len(data))
    # per live tensor: its frames per mode (None where uncompressed), then
    # the stages' arrays, all cut down together as tensors fail
    state: dict = {"frames": [None] * d}

    def settle(errors: list) -> bool:
        """Record the errors of the live tensors and drop those tensors from
        every state array; False when none is left."""
        nonlocal live
        if not any(errors):
            return True
        keep = np.array([e is None for e in errors], dtype=bool)
        for i, e in zip(live.tolist(), errors):
            if e is not None:
                outcome[i] = e
        live = live[keep]
        for key, value in state.items():
            state[key] = ([None if F is None else F[keep] for F in value]
                          if isinstance(value, list) else value[keep])
        return live.size > 0

    if data.shape[1:] == (2,) * d:
        state["core"] = data
    else:
        frames, state["core"], errors = tucker_stack(data, (2,) * d, ranks, tol)
        state["frames"] = frames
        if not settle(errors):
            return outcome, None
        for F in state["frames"]:
            check_orthonormal(F)
    # group modes {1}, {2}, {3..d}; compress the grouped mode back to 2
    state["core"] = state["core"].reshape(live.size, 2, 2, -1)
    if d > 3:
        state["tail"], errors = dominant_frames(state["core"], 3, 2, None, tol)
        if not settle(errors):
            return outcome, None
        check_orthonormal(state["tail"])
        state["core"] = mode_multiply_stack(
            state["core"], [None, None, np.conj(np.swapaxes(state["tail"], 1, 2))])

    state["roots"], errors = _projective_roots(
        *_pencil_coefficients(state["core"]), field, tol)
    if not settle(errors):
        return outcome, None
    # term k's first factor is root k; the pencil at the other root is rank
    # one, and its singular vectors are the term's next two factors
    other = state["roots"][:, ::-1, :, None, None]
    core = state["core"]
    pencil = other[:, :, 1] * core[:, None, 0] - other[:, :, 0] * core[:, None, 1]
    u2, u3, errors = _rank_one_matrix_factors(pencil.reshape(-1, 2, 2))
    state["u2"], state["u3"] = u2.reshape(-1, 2, 2), u3.reshape(-1, 2, 2)
    if not settle([e0 or e1 for e0, e1 in zip(errors[0::2], errors[1::2])]):
        return outcome, None

    n = live.size
    u1, u2, u3 = state["roots"], state["u2"], state["u3"]
    basis = outer_stack([u1.reshape(-1, 2), u2.reshape(-1, 2),
                          u3.reshape(-1, 2)]).reshape(n, 2, -1)
    state["lam"] = _lstsq_stack(np.swapaxes(basis, 1, 2),
                                state["core"].reshape(n, -1))
    state["factors"] = [u1, u2, u3]
    if d > 3:
        # each term's trailing factor must be rank one over modes 3..d
        tails = np.matmul(state["tail"][:, None], u3[..., None])
        ok, scalars, tail_factors = _rank_one_stack(
            tails.reshape((2 * n,) + (2,) * (d - 2)), field, tol)
        if scalars is not None:
            state["lam"] = _mul(state["lam"], scalars.reshape(n, 2))
            state["factors"] = [u1, u2] + [f.reshape(n, 2, 2) for f in tail_factors]
        if not settle(rejected(~(ok[0::2] & ok[1::2]), lambda k: ToleranceError(
                "grouped trailing factor is not rank one; "
                "input is not a rank-two tensor"))):
            return outcome, None
    state["lifted"] = [f if F is None else np.matmul(F[:, None], f[..., None])[..., 0]
                       for f, F in zip(state["factors"], state["frames"])]

    n, lam, lifted, A = live.size, state["lam"], state["lifted"], data[live]
    recon = sum(lam[:, k].reshape((n,) + (1,) * d)
                * outer_stack([f[:, k] for f in lifted]) for k in (0, 1))
    residual = np.linalg.norm((recon - A).reshape(n, -1), axis=1)
    scale = np.linalg.norm(A.reshape(n, -1), axis=1)
    errors = rejected(residual > 1e-8 * np.maximum(scale, 1e-300), lambda k: ToleranceError(
        f"rank-two reconstruction misses the input by {residual[k]:.3e} "
        "relative to norm; input is not numerically rank two"))
    for row, i in enumerate(live.tolist()):
        outcome[i] = errors[row]
    kept = np.array([e is None for e in errors], dtype=bool)
    if not kept.any():
        return outcome, None
    return outcome, (live[kept], lam[kept], [f[kept] for f in lifted])


def rank2_certify(data: np.ndarray, ranks, tol: TolerancePolicy = DEFAULT_TOL) -> list:
    """rank2_decompose's verdict on every tensor of a (K, ...) stack, in one
    batched pass: per tensor None where it returns, else the ToleranceError
    or DegenerateError it raises, with the same message. ``ranks[k]`` is
    tensor k's multilinear rank read (mrank's), which the Tucker step's
    ambiguity test takes in place of reading it again."""
    if len(data) == 0:
        return []
    return _rank2_terms(data, ranks, tol)[0]


def rank2_decompositions(data: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL
                         ) -> list:
    """rank2_decompose for every tensor of a (K, ...) stack, in one batched
    pass: per tensor its two normalized terms, or the ToleranceError or
    DegenerateError it raises, with the same message."""
    outcome, passed = _rank2_terms(data, None, tol)
    if passed is not None:
        live, lam, lifted = passed
        field = COMPLEX if np.iscomplexobj(data) else REAL
        for i, terms in zip(live.tolist(), _normalized_terms(lam, lifted, field)):
            outcome[i] = terms
    return outcome


def rank2_decompose(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL
                    ) -> tuple[RankOneFactors, RankOneFactors]:
    """Split a rank-two tensor into its two rank-one terms.

    Pipeline: Tucker-compress to the 2x...x2 core, group modes {1},{2},{3..d},
    compress the grouped mode back to 2, solve the 2x2 slice pencil, read each
    term's first factor off a pencil root and the remaining factors off the
    rank-one matrix left by the other root, then lift through the frames.
    The one-tensor case of rank2_decompositions.

    Real inputs in the negative-hyperdeterminant regime raise DegenerateError;
    pencil roots closer than gap_min raise ToleranceError.
    """
    return settled(rank2_decompositions(A.data[None], tol)[0])


class DecompositionCount(enum.Enum):
    UNIQUE_UP_TO_PERMUTATION = "unique-up-to-permutation"
    CONTINUUM_OR_DEGENERATE = "continuum-or-degenerate"


def count_rank2_decompositions(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL
                               ) -> tuple[DecompositionCount, tuple]:
    """Decide whether the rank-two decomposition is unique up to ordering.

    Returns (verdict, orderings). When unique, orderings lists both orderings
    of the term pair (the fiber of the 2! covering); otherwise it is empty.
    Never raises: every degenerate or boundary input maps to
    CONTINUUM_OR_DEGENERATE.
    """
    try:
        t1, t2 = rank2_decompose(A, tol)
    except (ToleranceError, DegenerateError, ValueError):
        return DecompositionCount.CONTINUUM_OR_DEGENERATE, ()
    return DecompositionCount.UNIQUE_UP_TO_PERMUTATION, ((t1, t2), (t2, t1))


def conj_pair_stack(data: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL
                    ) -> tuple[np.ndarray, list]:
    """conj_pair_factors for every tensor of a real (K, 2, 2, 2) stack, in
    one batched pass: the unit factors as a (K, 3, 2) array, row k holding
    x, y, z of tensor k, and per tensor None where conj_pair_factors
    returns, else the ToleranceError it raises, with the same message.

    Each check runs on the tensors that passed the checks before it, so each
    tensor gets the first error in conj_pair_factors' order; the factor rows
    of a tensor that fails mean nothing. The pencil SVDs are one batched
    call (see _rank_one_matrix_factors).
    """
    factors, _coefficients, errors = _conj_pair_terms(data, tol)
    return factors, errors


def _conj_pair_terms(data: np.ndarray, tol: TolerancePolicy) -> tuple:
    """conj_pair_stack's factors and errors, with the (K,) coefficients c
    of the terms c x (x) y (x) z between them (zero where a tensor fails
    before its rebuild)."""
    K = len(data)
    factors = np.zeros((K, 3, 2), dtype=np.complex128)
    coefficients = np.zeros(K, dtype=np.complex128)
    if K == 0:
        return factors, coefficients, []
    a, b, c = _pencil_coefficients(data)
    # a alpha^2 + b alpha beta + c beta^2 with b^2 < 4ac has the root
    # (t, a), t = -(b + i sqrt(4ac - b^2)) / 2, and its conjugate
    gap = 4.0 * a * c - b * b
    root = np.stack((-(b + 1j * np.sqrt(np.where(0.0 > gap, 0.0, gap))) / 2.0,
                     a.astype(np.complex128)), axis=-1)
    with np.errstate(invalid="ignore"):  # a zero root, refused below
        x = root / row_norms(root)[:, None]
    del root
    # |det[x | conj(x)]| = 2 |Im(x_0 conj(x_1))|
    errors = _separation_errors(
        2.0 * np.abs(_mul(x[:, 0], np.conj(x[:, 1])).imag), tol)

    def live() -> np.ndarray:
        return np.array([e is None for e in errors], dtype=bool)

    rows = np.flatnonzero(live())
    if rows.size:
        S, x = (data, x) if rows.size == K else (data[rows], x[rows])
        u, v, found = _rank_one_matrix_factors(x[:, 1, None, None] * S[:, 0]
                                               - x[:, 0, None, None] * S[:, 1])
        factors[rows, 0], factors[rows, 1], factors[rows, 2] = x, np.conj(u), np.conj(v)
        for k, e in zip(rows.tolist(), found):
            errors[k] = e
        del S, u, v
    rows = np.flatnonzero(live())
    if rows.size:
        S, n = data if rows.size == K else data[rows], len(rows)
        E = outer_stack([factors[rows, m] for m in range(3)])
        # A = c E + conj(c E) with ||E|| = 1, so <E, A> = c + conj(c h) with
        # h = sum(E^2), and |h| < 1 unless a factor is real up to phase
        p = np.vecdot(E.reshape(n, 8), S.reshape(n, 8))
        h = np.sum((E * E).reshape(n, 8), axis=1)
        # a numpy scalar's ** 2 is libm's pow, which an array's square does
        # not always match
        h2 = np.array([w ** 2 for w in _abs(h).tolist()])
        coef = (p - np.conj(_mul(h, p))) / (1.0 - h2)
        coefficients[rows] = coef
        # c E in place of E, which is not needed again
        rebuilt = 2.0 * np.real(np.multiply(coef[:, None, None, None], E, out=E))
        rebuilt -= S
        residual = row_norms(rebuilt)
        missed = rejected(
            ~(residual <= 1e-8 * np.maximum(row_norms(S), 1e-300)),
            lambda k: ToleranceError(
                f"conjugate-pair reconstruction misses the input by "
                f"{residual[k]:.3e}; input is not numerically border rank three"))
        for k, e in zip(rows.tolist(), missed):
            errors[k] = e
    return factors, coefficients, errors


def conj_pair_factors(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit factors x, y, z of a term T = c x (x) y (x) z with
    A = T + conj(T), for real 2x2x2 inputs with negative hyperdeterminant,
    read in closed form off the mode-1 slice pencil (derived in
    classifiers.classify_brank3_222). The one-tensor case of
    conj_pair_stack.

    The roots of det(beta*S0 - alpha*S1) are x and conj(x) up to scalars;
    at x the pencil M = beta*S0 - alpha*S1 is rank one, proportional to
    conj(y) conj(z)^T. Raises ToleranceError when the two roots are closer
    than gap_min, when M is not rank one to a 1e-6 singular-value ratio, or
    when 2 Re(c x (x) y (x) z), with c fitted, misses A by more than
    1e-8 ||A||.
    """
    if A.shape != (2, 2, 2) or A.field != REAL:
        raise ValueError("conj_pair_factors needs a real tensor of shape (2, 2, 2)")
    factors, errors = conj_pair_stack(A.data[None], tol)
    settled(errors[0])
    x, y, z = factors[0]
    return x, y, z


def brank3_conj_pairs(data: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> list:
    """brank3_conj_pair for every tensor of a real (K, 2, 2, 2) stack, with
    one batched complex rank-two decomposition (rank2_certify's): per tensor
    its term, or the ToleranceError or DegenerateError it raises, with the
    same message."""
    out: list = []
    for A, terms in zip(data, rank2_decompositions(data.astype(np.complex128), tol)):
        if isinstance(terms, Exception):
            out.append(terms)
            continue
        t1, t2 = terms
        conj_residual = float(np.linalg.norm(
            (outer_product(t2).data - np.conj(outer_product(t1).data)).ravel()))
        if conj_residual > 1e-8 * max(float(np.linalg.norm(A.ravel())), 1e-300):
            out.append(DegenerateError(
                "complex rank-two terms are not a conjugate pair; "
                "the input is not in the negative-hyperdeterminant regime"))
            continue
        x1 = t1.scalar * t1.factors[0]
        w = float(np.real(x1[0]) * np.imag(x1[1]) - np.real(x1[1]) * np.imag(x1[0]))
        out.append(t1 if w > 0 else t2)
    return out


def brank3_conj_pair(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL) -> RankOneFactors:
    """Complex rank-one term T with A = T + conj(T), for real 2x2x2 inputs
    with negative hyperdeterminant: the one-tensor case of
    brank3_conj_pairs.

    The returned term is the one whose first factor has positive orientation
    det[Re x | Im x] > 0; the conjugate term is implicit.
    """
    if A.shape != (2, 2, 2) or A.field != REAL:
        raise ValueError("brank3_conj_pair needs a real tensor of shape (2, 2, 2)")
    return settled(brank3_conj_pairs(A.data[None], tol)[0])
