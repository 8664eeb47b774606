"""Rank certificates: rank-one tests, the 2x2x2 hyperdeterminant, and
rank-two decomposition via the slice pencil.

The degree-4 hyperdeterminant of a real 2x2x2 tensor separates the two
generic regimes: positive on rank-two tensors, negative on the real
border-rank-three stratum, zero on the boundary. It coincides with the
discriminant of det(beta*S0 - alpha*S1) where S0, S1 are the mode-1 slices,
which is also how rank-two decompositions are computed, and how the
conjugate pair of the negative regime is read in closed form.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (COMPLEX, DEFAULT_TOL, Hypermatrix, RankOneFactors, REAL,
                   TolerancePolicy, fix_phase, flatten, frobenius_inner,
                   mode_multiply, numerical_rank, outer_product)
from .errors import DegenerateError, ToleranceError
from .geometry import TuckerRep, dominant_subspace, tucker_compress


def is_rank_one(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL
                ) -> tuple[bool, RankOneFactors | None]:
    """True iff A is nonzero and every flattening has numerical rank one.

    On success also returns a witness: unit factors recovered from leading
    singular vectors (first significant component positive real) and the
    scalar carrying magnitude and phase.
    """
    if A.norm() == 0.0:
        return False, None
    factors = []
    for mode in range(1, A.order + 1):
        M = flatten(A, mode)
        r, _ = numerical_rank(M, tol)
        if r != 1:
            return False, None
        U, _, _ = np.linalg.svd(M, full_matrices=False)
        factors.append(fix_phase(U[:, 0]))
    unit = RankOneFactors(1.0, tuple(factors), A.field)
    scalar = frobenius_inner(A.data, unit.tensor().data)
    if A.field == REAL:
        scalar = float(np.real(scalar))
    return True, RankOneFactors(scalar, tuple(factors), A.field)


def hyperdet222(A: Hypermatrix) -> float:
    """Cayley's degree-4 invariant of a real 2x2x2 tensor."""
    if A.shape != (2, 2, 2) or A.field != REAL:
        raise ValueError("hyperdet222 needs a real tensor of shape (2, 2, 2)")
    a = A.data
    a000, a001 = a[0, 0, 0], a[0, 0, 1]
    a010, a011 = a[0, 1, 0], a[0, 1, 1]
    a100, a101 = a[1, 0, 0], a[1, 0, 1]
    a110, a111 = a[1, 1, 0], a[1, 1, 1]
    square_terms = (a000 ** 2 * a111 ** 2 + a001 ** 2 * a110 ** 2
                    + a010 ** 2 * a101 ** 2 + a100 ** 2 * a011 ** 2)
    pair_terms = (a000 * a001 * a110 * a111 + a000 * a010 * a101 * a111
                  + a000 * a100 * a011 * a111 + a001 * a010 * a101 * a110
                  + a001 * a100 * a011 * a110 + a010 * a100 * a011 * a101)
    quad_terms = a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111
    return float(square_terms - 2.0 * pair_terms + 4.0 * quad_terms)


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

    The decision band is |Det| <= eps_rel * ||A||^4 (degree matching: Det is
    quartic in the entries). Inside the band, inputs with a rank-deficient
    flattening are genuine rank <= 2; the rest sit numerically on the
    discriminant and are reported as Boundary rather than guessed.
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
    tau = tol.eps_rel * scale ** 4
    if det < -tau:
        return Classification222(Kind222.BORDER_RANK3, det)
    if det > tau:
        return Classification222(Kind222.RANK2, det)
    flat_ranks = [numerical_rank(flatten(A, m), tol)[0] for m in (1, 2, 3)]
    if min(flat_ranks) <= 1:
        return Classification222(Kind222.RANK2, det)
    return Classification222(Kind222.BOUNDARY, det)


def _pencil_coefficients(core: np.ndarray) -> tuple:
    """(a, b, c) with det(beta*S0 - alpha*S1) = a alpha^2 + b alpha beta + c beta^2."""
    S0, S1 = core[0], core[1]

    def det2(M):
        return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]

    adj0 = np.array([[S0[1, 1], -S0[0, 1]], [-S0[1, 0], S0[0, 0]]])
    a = det2(S1)
    b = -(adj0[0, 0] * S1[0, 0] + adj0[0, 1] * S1[1, 0]
          + adj0[1, 0] * S1[0, 1] + adj0[1, 1] * S1[1, 1])
    c = det2(S0)
    return a, b, c


def _projective_roots(a, b, c, field: str, tol: TolerancePolicy):
    """Unit-normalized projective roots (alpha, beta) of a x^2 + b xy + c y^2.

    Raises DegenerateError over the reals when the roots are complex, and
    ToleranceError when the two roots are closer than gap_min in chordal
    distance (including double roots and the identically-zero pencil).
    """
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0:
        raise ToleranceError("slice pencil determinant vanishes identically")
    a, b, c = a / scale, b / scale, c / scale
    if a == 0.0:
        if b == 0.0:
            raise ToleranceError("slice pencil has a double root at infinity")
        raw = [(1.0, 0.0), (-c, b)]
    else:
        disc = b * b - 4.0 * a * c
        if field == REAL and disc < 0.0:
            raise DegenerateError(
                "slice pencil has complex roots: real rank exceeds two "
                "(negative hyperdeterminant regime)")
        sq = math.sqrt(disc) if field == REAL else cmath.sqrt(disc)
        sgn = 1.0 if np.real(np.conj(b) * sq) >= 0.0 else -1.0
        t = -(b + sgn * sq) / 2.0
        if t == 0.0:
            raw = [(0.0, 1.0), (0.0, 1.0)]
        else:
            raw = [(t, a), (c, t)]
    roots = []
    for alpha, beta in raw:
        pair = np.array([alpha, beta],
                        dtype=np.complex128 if field == COMPLEX else np.float64)
        pair = fix_phase(pair / np.linalg.norm(pair))
        roots.append(pair)
    _check_separation(abs(roots[0][0] * roots[1][1] - roots[1][0] * roots[0][1]),
                      tol)
    return roots


def _check_separation(separation: float, tol: TolerancePolicy) -> None:
    """ToleranceError unless two unit pencil roots are gap_min apart."""
    if separation < tol.gap_min:
        raise ToleranceError(
            f"slice pencil roots separated by {separation:.3e} < gap_min; "
            "rank-two decomposition is not identifiable here")


def _rank_one_matrix_factors(M: np.ndarray, tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """Unit row/column factors of a numerically rank-one matrix M = s * u w^T."""
    U, sigma, Vh = np.linalg.svd(M)
    if sigma[0] == 0.0 or sigma[1] > 1e-6 * sigma[0]:
        raise ToleranceError(
            "pencil slice expected to be rank one is not "
            f"(sigma ratio {sigma[1] / max(sigma[0], 1e-300):.3e})")
    return U[:, 0], Vh[0]


def _normalized_term(scalar, factors, field: str) -> RankOneFactors:
    """Push factor norms and phases into the scalar; factors become unit."""
    out = []
    for v in factors:
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise ToleranceError("zero factor in rank-one term")
        u = v / nv
        fixed = fix_phase(u)
        pivot = np.nonzero(np.abs(u) > 1e-8 * np.max(np.abs(u)))[0][0]
        phase = u[pivot] / fixed[pivot] if fixed[pivot] != 0 else 1.0
        scalar = scalar * nv * phase
        out.append(fixed)
    if field == REAL:
        scalar = float(np.real(scalar))
    return RankOneFactors(scalar, tuple(out), field)


def rank2_decompose(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL
                    ) -> tuple[RankOneFactors, RankOneFactors]:
    """Split a rank-two tensor into its two rank-one terms.

    Pipeline: Tucker-compress to the 2x...x2 core, group modes {1},{2},{3..d},
    compress the grouped mode back to 2, solve the 2x2 slice pencil, read each
    term's first factor off a pencil root and the remaining factors off the
    rank-one matrix left by the other root, then lift through the frames.

    Real inputs in the negative-hyperdeterminant regime raise DegenerateError;
    pencil roots closer than gap_min raise ToleranceError.
    """
    d = A.order
    if d < 3:
        raise ValueError("rank2_decompose needs an order >= 3 tensor")
    if A.shape == (2,) * d:
        rep = TuckerRep((), A)
        frames = [None] * d
    else:
        rep = tucker_compress(A, (2,) * d, tol)
        frames = [p.frame for p in rep.frames]
    core = rep.core.data
    grouped = Hypermatrix(core.reshape(2, 2, -1), A.field)
    if d > 3:
        tail = dominant_subspace(grouped, 3, 2, tol)
        core3 = mode_multiply(grouped.data, [None, None, tail.frame.conj().T])
    else:
        tail = None
        core3 = grouped.data

    a, b, c = _pencil_coefficients(core3)
    roots = _projective_roots(a, b, c, A.field, tol)
    terms = []
    for k in (0, 1):
        alpha, beta = roots[k]
        other_alpha, other_beta = roots[1 - k]
        M = other_beta * core3[0] - other_alpha * core3[1]
        u2, u3 = _rank_one_matrix_factors(M, tol)
        terms.append((np.array([alpha, beta]), u2, u3))

    basis = []
    for u1, u2, u3 in terms:
        E = np.multiply.outer(np.multiply.outer(u1, u2), u3)
        basis.append(E.ravel())
    coeffs, *_ = np.linalg.lstsq(np.stack(basis, axis=1), core3.ravel(), rcond=None)

    results = []
    for lam, (u1, u2, u3) in zip(coeffs, terms):
        if d > 3:
            tail_vec = tail.frame @ u3
            tail_tensor = Hypermatrix(tail_vec.reshape((2,) * (d - 2)), A.field)
            ok, witness = is_rank_one(tail_tensor, tol)
            if not ok:
                raise ToleranceError(
                    "grouped trailing factor is not rank one; "
                    "input is not a rank-two tensor")
            lam = lam * witness.scalar
            tail_factors = list(witness.factors)
        else:
            tail_factors = [u3]
        core_factors = [u1, u2] + tail_factors
        lifted = [f if F is None else F @ f for f, F in zip(core_factors, frames)]
        results.append(_normalized_term(lam, lifted, A.field))

    recon = outer_product(results[0]).data + outer_product(results[1]).data
    residual = float(np.linalg.norm((recon - A.data).ravel()))
    if residual > 1e-8 * max(A.norm(), 1e-300):
        raise ToleranceError(
            f"rank-two reconstruction misses the input by {residual:.3e} "
            "relative to norm; input is not numerically rank two")
    return results[0], results[1]


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


def conj_pair_factors(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit factors x, y, z of a term T = c x (x) y (x) z with
    A = T + conj(T), for real 2x2x2 inputs with negative hyperdeterminant,
    read in closed form off the mode-1 slice pencil (derived in
    classifiers.classify_brank3_222).

    The roots of det(beta*S0 - alpha*S1) are x and conj(x) up to scalars;
    at x the pencil M = beta*S0 - alpha*S1 is rank one, proportional to
    conj(y) conj(z)^T. Raises ToleranceError when the two roots are closer
    than gap_min, when M is not rank one to a 1e-6 singular-value ratio, or
    when 2 Re(c x (x) y (x) z), with c fitted, misses A by more than
    1e-8 ||A||.
    """
    if A.shape != (2, 2, 2) or A.field != REAL:
        raise ValueError("conj_pair_factors needs a real tensor of shape (2, 2, 2)")
    S = A.data
    a, b, c = _pencil_coefficients(S)
    # a alpha^2 + b alpha beta + c beta^2 with b^2 < 4ac has the root
    # (t, a), t = -(b + i sqrt(4ac - b^2)) / 2, and its conjugate
    root = np.array([-(b + 1j * math.sqrt(max(4.0 * a * c - b * b, 0.0))) / 2.0, a])
    x = root / np.linalg.norm(root)
    # |det[x | conj(x)]| = 2 |Im(x_0 conj(x_1))|
    _check_separation(2.0 * abs((x[0] * np.conj(x[1])).imag), tol)
    u, v = _rank_one_matrix_factors(x[1] * S[0] - x[0] * S[1], tol)
    y, z = np.conj(u), np.conj(v)
    E = np.multiply.outer(np.multiply.outer(x, y), z)
    # A = c E + conj(c E) with ||E|| = 1, so <E, A> = c + conj(c h) with
    # h = sum(E^2), and |h| < 1 unless a factor is real up to phase
    p, h = np.vdot(E, S), np.sum(E * E)
    coef = (p - np.conj(h * p)) / (1.0 - abs(h) ** 2)
    residual = float(np.linalg.norm((2.0 * np.real(coef * E) - S).ravel()))
    if not residual <= 1e-8 * max(A.norm(), 1e-300):
        raise ToleranceError(
            f"conjugate-pair reconstruction misses the input by {residual:.3e}; "
            "input is not numerically border rank three")
    return x, y, z


def brank3_conj_pair(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL) -> RankOneFactors:
    """Complex rank-one term T with A = T + conj(T), for real 2x2x2 inputs
    with negative hyperdeterminant.

    The returned term is the one whose first factor has positive orientation
    det[Re x | Im x] > 0; the conjugate term is implicit.
    """
    if A.shape != (2, 2, 2) or A.field != REAL:
        raise ValueError("brank3_conj_pair needs a real tensor of shape (2, 2, 2)")
    Ac = Hypermatrix(A.data.astype(np.complex128), COMPLEX)
    t1, t2 = rank2_decompose(Ac, tol)
    conj_residual = float(np.linalg.norm(
        (outer_product(t2).data - np.conj(outer_product(t1).data)).ravel()))
    if conj_residual > 1e-8 * max(A.norm(), 1e-300):
        raise DegenerateError(
            "complex rank-two terms are not a conjugate pair; "
            "the input is not in the negative-hyperdeterminant regime")
    x1 = t1.scalar * t1.factors[0]
    w = float(np.real(x1[0]) * np.imag(x1[1]) - np.real(x1[1]) * np.imag(x1[0]))
    return t1 if w > 0 else t2
