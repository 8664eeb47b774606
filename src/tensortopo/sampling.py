"""Rejection samplers for rank strata, driven by an explicit SplitMix64 state.

Each sampler draws raw Gaussian candidates for its stratum and hands them to
one redraw loop, ``_certified``. It keeps the first candidate that the
stratum's kind record judges a member with every margin at least gap_min,
and redraws otherwise, at most 1000 times (the multilinear-rank connectors
draw their midpoint cores through it too, with a margin of 1e-3). The rank
read lives in the record (``kinds.Kind.judge``, the read and membership
rule that ``path_verify`` applies to a path's whole grid; a candidate is a
stack of one). Most strata accept nearly every draw, but not all: a sum of
three real Gaussian rank-one terms on 2x2x2 lands in the border-rank-three
region only about one draw in ten, so a cap of 100 gave up on that valid
stratum about once in 30000 draws. At 1000 the chance of that is below
1e-40; exhaustion signals bad parameters, not bad luck.

A record whose ``screen`` rejects draws (the border-rank-three one) gets
its candidates in chunks: the sampler draws the normals of _CHUNK
candidates in their usual order, builds them with one outer product and
screens them with one hyperdeterminant call. The generator is then put
back (its integer state and its cached Box-Muller spare) to where it stood
right after the accepted candidate, so every draw, witness and later
stream is the one that drawing a candidate at a time gives. A unit factor
that would be redrawn ends the chunk before its candidate, which is then
drawn alone. Every other record draws one candidate at a time, and the
cap counts candidates either way.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (COMPLEX, DEFAULT_TOL, LOOSE_TOL, Hypermatrix,
                   RankOneFactors, REAL, SymRankDecomposition, SymTensor,
                   TolerancePolicy, mode_multiply, mrank_admissible,
                   outer_product, outer_stack, sym_embed, sym_extract,
                   sym_packed_length)
from .errors import RetryExhausted
from .geometry import GrassmannPoint, TuckerRep, tucker_expand
from .rng import SplitMix64
from .stratum import StratumDescriptor

_MAX_REDRAWS = 1000
# candidates drawn and screened at once for a record whose screen rejects
# draws; about one in ten rank-three 2x2x2 candidates passes
_CHUNK = 8


def field_normals(rng: SplitMix64, shape: tuple[int, ...], field: str
                  ) -> np.ndarray:
    """Standard Gaussian array over the field (real and imaginary parts
    drawn as two whole arrays over C)."""
    if field == COMPLEX:
        return rng.complex_normals(shape)
    return rng.normals(shape)


def _unit_gaussian(rng: SplitMix64, n: int, field: str) -> np.ndarray:
    while True:
        v = field_normals(rng, (n,), field)
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


def _certified(stratum: StratumDescriptor, candidate, margin: float,
               tol: TolerancePolicy, chunk=None):
    """The first of at most 1 + _MAX_REDRAWS candidates that is a member of
    ``stratum`` with every margin at least ``margin``.

    ``candidate()`` draws one candidate and returns ``(value, witness)``, or
    None for a raw draw it rejects itself (a vanishing term, a wrong
    determinant sign). The record's ``screen`` runs before the rank read,
    so a candidate it rejects costs no SVD. When the screen rejects draws
    (``Kind.screens``) and the sampler gives ``chunk``, candidates come
    _CHUNK at a time: ``chunk(count)`` draws up to ``count`` candidates in
    order, as ``candidate()`` would, and returns each with a callable that
    puts the generator back to its state right after that candidate. One
    screen call takes the chunk, and the generator is put back to the state
    after the accepted candidate, so the draws that follow are those of one
    candidate at a time.
    """
    rule = kinds.kind_of(stratum)
    size = _CHUNK if chunk is not None and rule.screens else 1
    left = _MAX_REDRAWS + 1
    while left > 0:
        batch = chunk(min(size, left)) if size > 1 else [(candidate(), None)]
        left -= len(batch)
        batch = [(drawn, resume) for drawn, resume in batch if drawn is not None]
        if not batch:
            continue
        stack = stratum.stack([value for (value, _witness), _resume in batch])
        for row, (drawn, resume), ok in zip(stack, batch,
                                            rule.screen(stratum, stack, tol)):
            if ok and kinds.clear_members(stratum, row[None], margin, tol)[0]:
                if resume is not None:
                    resume()
                return drawn
    raise RetryExhausted(f"could not certify a sample of {stratum} "
                         f"after {_MAX_REDRAWS} redraws")


def sample_rank_r(shape: tuple[int, ...], r: int, field: str, rng: SplitMix64,
                  tol: TolerancePolicy = DEFAULT_TOL
                  ) -> tuple[Hypermatrix, list[RankOneFactors]]:
    """Sum of r Gaussian rank-one terms, certified for its stratum (on real
    2x2x2 with r = 3, the border-rank-three region)."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    # rank <= prod of the other dimensions, every mode; 2x2x2 tops out at 3
    total = math.prod(shape)
    if r > min(total // n for n in shape) or (shape == (2, 2, 2) and r > 3):
        raise ValueError(f"no tensors of rank {r} on shape {shape}")

    def candidate():
        terms = []
        total = None
        for _k in range(r):
            factors = tuple(_unit_gaussian(rng, n, field) for n in shape)
            term = RankOneFactors(_gaussian_scalar(rng, field), factors, field)
            terms.append(term)
            part = outer_product(term).data
            total = part if total is None else total + part
        return Hypermatrix(total, field), terms

    def chunk(count):
        # count real candidates from one run of normals each: per term one
        # factor per mode, then the scalar, as candidate() draws them
        start = rng.state()
        runs, states = rng.normal_runs(count, r * (sum(shape) + 1))
        runs = runs.reshape(count, r, -1)
        cuts = np.cumsum((0,) + tuple(shape))
        units, redraw = [], count
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            v = np.ascontiguousarray(runs[:, :, lo:hi])
            nv = np.sqrt(np.vecdot(v, v))
            for j, k in zip(*np.nonzero(nv <= 2e-6)):
                # _unit_gaussian's redraw test, on its own norm
                nv[j, k] = np.linalg.norm(v[j, k])
                if not nv[j, k] > 1e-6:
                    redraw = min(redraw, int(j))
            with np.errstate(divide="ignore", invalid="ignore"):
                units.append(v / nv[..., None])
        if redraw == 0:
            # the first candidate redraws a factor: draw it as candidate() does
            rng.resume(start)
            return [(candidate(), None)]
        if redraw < count:
            rng.resume(states[redraw - 1])
        scalars = runs[:redraw, :, -1]
        parts = (outer_stack([u[:redraw].reshape(redraw * r, -1) for u in units])
                 .reshape((redraw, r) + tuple(shape))
                 * scalars.reshape(scalars.shape + (1,) * len(shape)))
        out = []
        for j in range(redraw):
            total = parts[j, 0]
            for k in range(1, r):
                total = total + parts[j, k]
            terms = [RankOneFactors(float(scalars[j, k]),
                                    tuple(u[j, k] for u in units), field)
                     for k in range(r)]
            out.append(((Hypermatrix(total, field), terms),
                        functools.partial(rng.resume, states[j])))
        return out

    return _certified(StratumDescriptor("rank", field, r, shape=tuple(shape)),
                      candidate, tol.gap_min, tol,
                      chunk if field == REAL else None)


def sample_sym_rank_r(n: int, d: int, r: int, signature: int | None = None,
                      field: str = REAL, rng: SplitMix64 | None = None,
                      tol: TolerancePolicy = DEFAULT_TOL
                      ) -> tuple[SymTensor, SymRankDecomposition]:
    """Sum of r Gaussian symmetric powers lambda_k v_k^(x d), certified for
    its stratum.

    ``signature`` fixes the number of positive coefficients; it only means
    something over the reals with d even (elsewhere it is ignored). With
    signature None over real even d, a uniform signature in 0..r is drawn.
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

    def candidate():
        vectors = tuple(_unit_gaussian(rng, n, field) for _k in range(r))
        coefficients = []
        for k in range(r):
            lam = _gaussian_scalar(rng, field)
            if signed:
                lam = abs(lam) if k < signature else -abs(lam)
            coefficients.append(lam)
        if any(abs(lam) < 1e-6 for lam in coefficients):
            return None
        decomp = SymRankDecomposition(d, tuple(coefficients), vectors, field)
        return decomp.tensor(), decomp

    return _certified(StratumDescriptor("sym-rank", field, r, dim=n, order=d),
                      candidate, tol.gap_min, tol)


def sample_fixed_mrank(shape: tuple[int, ...], ranks: tuple[int, ...],
                       field: str, rng: SplitMix64,
                       tol: TolerancePolicy = DEFAULT_TOL
                       ) -> tuple[Hypermatrix, TuckerRep]:
    """Random orthonormal frames applied to a Gaussian full-rank core,
    certified for its stratum."""
    if len(ranks) != len(shape):
        raise ValueError("need one rank per mode")
    if any(r < 1 or r > n for r, n in zip(ranks, shape)):
        raise ValueError(f"ranks {ranks} incompatible with shape {shape}")
    if not mrank_admissible(tuple(ranks)):
        raise ValueError(f"inadmissible multilinear rank {ranks}")

    def candidate():
        frames = []
        for n, r in zip(shape, ranks):
            Q, _ = np.linalg.qr(field_normals(rng, (n, r), field))
            frames.append(GrassmannPoint(Q, field))
        core = Hypermatrix(field_normals(rng, tuple(ranks), field), field)
        rep = TuckerRep(tuple(frames), core)
        return tucker_expand(rep), rep

    stratum = StratumDescriptor("mrank", field, tuple(ranks),
                                shape=tuple(shape))
    return _certified(stratum, candidate, tol.gap_min, tol)


def sample_sym_mrank(n: int, d: int, r: int, field: str = REAL,
                     rng: SplitMix64 | None = None,
                     tol: TolerancePolicy = DEFAULT_TOL) -> SymTensor:
    """Gaussian symmetric core pushed through one shared orthonormal frame,
    certified for its stratum."""
    if rng is None:
        raise ValueError("sampler needs an explicit RNG state")
    if not 1 <= r <= n:
        raise ValueError(f"rank {r} incompatible with dimension {n}")
    length = sym_packed_length(r, d)

    def candidate():
        core = SymTensor(r, d, field, field_normals(rng, (length,), field))
        Q, _ = np.linalg.qr(field_normals(rng, (n, r), field))
        full = mode_multiply(sym_embed(core).data, [Q] * d)
        return sym_extract(Hypermatrix(full, field), LOOSE_TOL), None

    stratum = StratumDescriptor("sym-mrank", field, r, dim=n, order=d)
    return _certified(stratum, candidate, tol.gap_min, tol)[0]


def random_invertible(n: int, rng: SplitMix64, field: str = REAL,
                      det_sign: int | None = None) -> np.ndarray:
    """Gaussian invertible n x n matrix, optionally with a forced det sign.

    Redraws while the singular value spread is below gap_min, so outputs are
    comfortably invertible. det_sign is only meaningful over the reals.
    """
    for _ in range(_MAX_REDRAWS + 1):
        M = field_normals(rng, (n, n), field)
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
    Q, R = np.linalg.qr(field_normals(rng, (n, n), field))
    # make the factorization unique so the draw is a deterministic function
    # of the Gaussian sample
    d = np.diag(R)
    phase = np.where(np.abs(d) == 0, 1.0, d / np.where(np.abs(d) == 0, 1.0, np.abs(d)))
    return Q * phase


# The membership rules live in the kind records, which are built from the
# samplers above, so they come last.
from . import kinds  # noqa: E402
