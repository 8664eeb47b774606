"""Rejection samplers for rank strata, driven by an explicit SplitMix64 state.

Every sampler certifies its output with whatever certificate the stratum
offers (multilinear rank with margins, the 2x2x2 classification, rank-two
decomposability) and redraws on failure, at most 1000 times. Most strata
accept nearly every draw, but not all: a sum of three real Gaussian rank-one
terms on 2x2x2 lands in the border-rank-three region only about one draw in
ten, so a cap of 100 gave up on that valid stratum about once in 30000
draws. At 1000 the chance of that is below 1e-40; exhaustion signals bad
parameters, not bad luck.
"""

from __future__ import annotations

import math

import numpy as np

from .certify import (Kind222, classify_222, hyperdet222, is_rank_one,
                      rank2_decompose)
from .core import (COMPLEX, DEFAULT_TOL, Hypermatrix, RankOneFactors, REAL,
                   SymRankDecomposition, SymTensor, TolerancePolicy,
                   mode_multiply, mrank, mrank_admissible, outer_product,
                   sym_embed, sym_extract, sym_packed_length)
from .errors import RetryExhausted, TensorTopoError
from .geometry import GrassmannPoint, TuckerRep, tucker_expand
from .rng import SplitMix64

_MAX_REDRAWS = 1000


def _gaussian_vector(rng: SplitMix64, n: int, field: str) -> np.ndarray:
    if field == COMPLEX:
        return rng.complex_normals((n,))
    return rng.normals((n,))


def _unit_gaussian(rng: SplitMix64, n: int, field: str) -> np.ndarray:
    while True:
        v = _gaussian_vector(rng, n, field)
        nv = np.linalg.norm(v)
        if nv > 1e-6:
            return v / nv


def _gaussian_scalar(rng: SplitMix64, field: str):
    if field == COMPLEX:
        return complex(rng.normal(), rng.normal())
    return rng.normal()


def expected_generic_mrank(shape: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Multilinear rank of a generic rank-r tensor.

    Per mode this is min(r, n_i, prod_{j != i} n_j): the flattening factors
    through both the mode-i span and the span of the r Kronecker columns on
    the other side.
    """
    total = math.prod(shape)
    return tuple(min(r, n, total // n) for n in shape)


def _margins_ok(margins, tol: TolerancePolicy) -> bool:
    return all(m >= tol.gap_min for m in margins)


def sample_rank_r(shape: tuple[int, ...], r: int, field: str, rng: SplitMix64,
                  tol: TolerancePolicy = DEFAULT_TOL
                  ) -> tuple[Hypermatrix, list[RankOneFactors]]:
    """Sum of r Gaussian rank-one terms, certified for its stratum.

    Certification: multilinear rank equals the generic pattern with margins
    at least gap_min; on (2,2,2) real the classification must match r (in
    particular r=3 redraws until the negative-hyperdeterminant regime); for
    r <= 2 the decomposition machinery must succeed on the sample.
    """
    if r < 1:
        raise ValueError("rank must be at least 1")
    # rank <= prod of the other dimensions, every mode; 2x2x2 tops out at 3
    total = math.prod(shape)
    if r > min(total // n for n in shape) or (shape == (2, 2, 2) and r > 3):
        raise ValueError(f"no tensors of rank {r} on shape {shape}")
    expected = expected_generic_mrank(shape, r)
    border = shape == (2, 2, 2) and field == REAL and r == 3
    for _ in range(_MAX_REDRAWS + 1):
        terms = []
        total = None
        for _k in range(r):
            factors = tuple(_unit_gaussian(rng, n, field) for n in shape)
            term = RankOneFactors(_gaussian_scalar(rng, field), factors, field)
            terms.append(term)
            part = outer_product(term).data
            total = part if total is None else total + part
        A = Hypermatrix(total, field)
        if border and not hyperdet222(A) < -(tol.eps_rel * A.norm() ** 4):
            continue  # classify_222's border-rank-3 test, ahead of the SVDs
        try:
            mr = mrank(A, tol)
        except TensorTopoError:
            continue
        if tuple(mr.ranks) != expected or not _margins_ok(mr.margins, tol):
            continue
        if shape == (2, 2, 2) and field == REAL and r <= 3:
            want = {1: Kind222.RANK1, 2: Kind222.RANK2, 3: Kind222.BORDER_RANK3}[r]
            if classify_222(A, tol).kind is not want:
                continue
        if r == 1:
            ok, _ = is_rank_one(A, tol)
            if not ok:
                continue
        if r == 2:
            try:
                rank2_decompose(A, tol)
            except TensorTopoError:
                continue
        return A, terms
    raise RetryExhausted(
        f"could not certify a rank-{r} sample on shape {shape} over {field} "
        f"after {_MAX_REDRAWS} redraws")


def sample_sym_rank_r(n: int, d: int, r: int, signature: int | None = None,
                      field: str = REAL, rng: SplitMix64 | None = None,
                      tol: TolerancePolicy = DEFAULT_TOL
                      ) -> tuple[SymTensor, SymRankDecomposition]:
    """Sum of r Gaussian symmetric powers lambda_k v_k^(x d).

    ``signature`` fixes the number of positive coefficients; it only means
    something over the reals with d even (elsewhere it is ignored). With
    signature None over real even d, a uniform signature in 0..r is drawn.
    Certification: the embedded tensor has multilinear rank min(r, n) on
    every mode with margins at least gap_min.
    """
    if rng is None:
        raise ValueError("sampler needs an explicit RNG state")
    if r < 1:
        raise ValueError("rank must be at least 1")
    signed = field == REAL and d % 2 == 0
    if signed and signature is None:
        signature = int(rng.integers(0, r + 1))
    if signed and not 0 <= signature <= r:
        raise ValueError(f"signature {signature} out of range 0..{r}")
    expected = (min(r, n),) * d
    for _ in range(_MAX_REDRAWS + 1):
        vectors = tuple(_unit_gaussian(rng, n, field) for _k in range(r))
        coefficients = []
        for k in range(r):
            lam = _gaussian_scalar(rng, field)
            if signed:
                lam = abs(lam) if k < signature else -abs(lam)
            coefficients.append(lam)
        if any(abs(lam) < 1e-6 for lam in coefficients):
            continue
        decomp = SymRankDecomposition(d, tuple(coefficients), vectors, field)
        S = decomp.tensor()
        try:
            mr = mrank(sym_embed(S), tol)
        except TensorTopoError:
            continue
        if tuple(mr.ranks) != expected or not _margins_ok(mr.margins, tol):
            continue
        return S, decomp
    raise RetryExhausted(
        f"could not certify a symmetric rank-{r} sample (n={n}, d={d}) "
        f"after {_MAX_REDRAWS} redraws")


def sample_fixed_mrank(shape: tuple[int, ...], ranks: tuple[int, ...],
                       field: str, rng: SplitMix64,
                       tol: TolerancePolicy = DEFAULT_TOL
                       ) -> tuple[Hypermatrix, TuckerRep]:
    """Random orthonormal frames applied to a Gaussian full-rank core.

    Certification: the expanded tensor's multilinear rank equals ``ranks``
    with margins at least gap_min.
    """
    if len(ranks) != len(shape):
        raise ValueError("need one rank per mode")
    if any(r < 1 or r > n for r, n in zip(ranks, shape)):
        raise ValueError(f"ranks {ranks} incompatible with shape {shape}")
    if not mrank_admissible(tuple(ranks)):
        raise ValueError(f"inadmissible multilinear rank {ranks}")
    for _ in range(_MAX_REDRAWS + 1):
        frames = []
        for n, r in zip(shape, ranks):
            G = _gaussian_matrix(rng, n, r, field)
            Q, _ = np.linalg.qr(G)
            frames.append(GrassmannPoint(Q, field))
        core_data = _gaussian_matrix(rng, math.prod(ranks), 1, field).reshape(ranks)
        rep = TuckerRep(tuple(frames), Hypermatrix(core_data, field))
        A = tucker_expand(rep)
        try:
            mr = mrank(A, tol)
        except TensorTopoError:
            continue
        if tuple(mr.ranks) != tuple(ranks) or not _margins_ok(mr.margins, tol):
            continue
        return A, rep
    raise RetryExhausted(
        f"could not certify a sample of multilinear rank {ranks} on shape "
        f"{shape} after {_MAX_REDRAWS} redraws")


def _gaussian_matrix(rng: SplitMix64, n: int, m: int, field: str) -> np.ndarray:
    if field == COMPLEX:
        return rng.complex_normals((n, m))
    return rng.normals((n, m))


def sample_sym_mrank(n: int, d: int, r: int, field: str = REAL,
                     rng: SplitMix64 | None = None,
                     tol: TolerancePolicy = DEFAULT_TOL) -> SymTensor:
    """Gaussian symmetric core pushed through one shared orthonormal frame.

    Certification: every flattening of the embedded tensor has rank r with
    margins at least gap_min.
    """
    if rng is None:
        raise ValueError("sampler needs an explicit RNG state")
    if not 1 <= r <= n:
        raise ValueError(f"rank {r} incompatible with dimension {n}")
    length = sym_packed_length(r, d)
    for _ in range(_MAX_REDRAWS + 1):
        packed = (rng.complex_normals((length,)) if field == COMPLEX
                  else rng.normals((length,)))
        core = SymTensor(r, d, field, packed)
        Q, _ = np.linalg.qr(_gaussian_matrix(rng, n, r, field))
        full = mode_multiply(sym_embed(core).data, [Q] * d)
        S = sym_extract(Hypermatrix(full, field),
                        TolerancePolicy(eps_rel=1e-8))
        try:
            mr = mrank(sym_embed(S), tol)
        except TensorTopoError:
            continue
        if tuple(mr.ranks) != (r,) * d or not _margins_ok(mr.margins, tol):
            continue
        return S
    raise RetryExhausted(
        f"could not certify a symmetric multilinear-rank-{r} sample "
        f"(n={n}, d={d}) after {_MAX_REDRAWS} redraws")


def random_invertible(n: int, rng: SplitMix64, field: str = REAL,
                      det_sign: int | None = None) -> np.ndarray:
    """Gaussian invertible n x n matrix, optionally with a forced det sign.

    Redraws while the singular value spread is below gap_min, so outputs are
    comfortably invertible. det_sign is only meaningful over the reals.
    """
    for _ in range(_MAX_REDRAWS + 1):
        M = _gaussian_matrix(rng, n, n, field)
        sigma = np.linalg.svd(M, compute_uv=False)
        if sigma[-1] < DEFAULT_TOL.gap_min * sigma[0]:
            continue
        if field == REAL and det_sign is not None:
            if np.sign(np.linalg.det(M)) != np.sign(det_sign):
                M = M.copy()
                M[0] = -M[0]
        return M
    raise RetryExhausted("could not draw a well-conditioned invertible matrix")


def random_orthogonal(n: int, rng: SplitMix64, field: str = REAL) -> np.ndarray:
    Q, R = np.linalg.qr(_gaussian_matrix(rng, n, n, field))
    # make the factorization unique so the draw is a deterministic function
    # of the Gaussian sample
    d = np.diag(R)
    phase = np.where(np.abs(d) == 0, 1.0, d / np.where(np.abs(d) == 0, 1.0, np.abs(d)))
    return Q * phase
