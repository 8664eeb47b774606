"""Rejection samplers for rank strata, driven by explicit SplitMix64 states.

Each sampler has one block builder: it turns a block of Gaussians, a row of
them per candidate, into the stack of candidates the sampler draws, built
with the same operations one candidate at a time would use (a mode product
is ``core.mode_multiply_stack`` either way), so each row has the bits of
that candidate. One redraw loop, ``_certified``, keeps per
stream the first candidate that the stratum's kind record judges a member
with every margin at least gap_min, and redraws otherwise, at most 1000
times (the multilinear-rank connectors draw their midpoint cores through it
too, by ``sample_full_core`` and ``sample_sym_core``, with a margin of
1e-3). The rank read lives in the record (``kinds.Kind.judge``, the read
and membership rule that ``path_verify`` applies to a path's whole grid).
Most strata accept nearly every draw, but
not all: a sum of three real Gaussian rank-one terms on 2x2x2 lands in the
border-rank-three region only about one draw in ten, so a cap of 100 gave
up on that valid stratum about once in 30000 draws. At 1000 the chance of
that is below 1e-40; exhaustion signals bad parameters, not bad luck.

All the streams of a census draw in lockstep rounds. In a round every
stream still drawing gives one candidate, or _CHUNK candidates when the
record's ``screen`` rejects draws (the border-rank-three one), read from
one ``rng.normal_block`` of all their Gaussians; a round takes as many
streams as fit in _BLOCK Gaussians, so memory stays flat in the number of
trials, and the streams left over draw in the next. The round builds its
candidates as one stack, screens the stack with one call and judges what
the screen passes with one more. Each stream keeps its first accepted
candidate, and its generator is moved (``SplitMix64.skip``) to where
drawing one candidate at a time leaves it, so each draw, witness and
generator state is the one that drawing one candidate at a time from each
stream gives. The cap counts candidates per stream.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .core import (COMPLEX, DEFAULT_TOL, LOOSE_TOL, Hypermatrix,
                   RankOneFactors, REAL, SymRankDecomposition, SymTensor,
                   TolerancePolicy, flattening_det_signs, mode_multiply_stack,
                   mrank_admissible, outer_stack, row_norms,
                   sym_embed_stack, sym_extract, sym_extract_stack,
                   sym_packed_length, sym_power_stack)
from .errors import RetryExhausted, ToleranceError
from .geometry import GrassmannPoint, TuckerRep
from .rng import SplitMix64, normal_block
from .stratum import StratumDescriptor

_MAX_REDRAWS = 1000
# candidates a stream draws per round for a record whose screen rejects
# draws; about one in ten rank-three 2x2x2 candidates passes
_CHUNK = 8
# Gaussians a round draws at most, whatever the number of streams: a round
# takes as many streams as fit, so a census of any size holds one block of
# this size (and its candidates) at a time
_BLOCK = 1 << 16


def field_normals(rng: SplitMix64, shape: tuple[int, ...], field: str
                  ) -> np.ndarray:
    """Standard Gaussian array over the field (real and imaginary parts
    drawn as two whole arrays over C)."""
    if field == COMPLEX:
        return rng.complex_normals(shape)
    return rng.normals(shape)


def _field_size(shape: tuple[int, ...], field: str) -> int:
    """Gaussians that field_normals draws for ``shape``."""
    return math.prod(shape) * (2 if field == COMPLEX else 1)


def _field_values(rows: np.ndarray, start: int, shape: tuple[int, ...],
                  field: str) -> tuple[np.ndarray, int]:
    """Per row of a block (its last axis), the field array of ``shape``
    that field_normals draws from the Gaussians at ``start`` on, and the
    column after them."""
    n = math.prod(shape)
    lead = rows.shape[:-1]
    re = rows[..., start:start + n].reshape(lead + tuple(shape))
    if field != COMPLEX:
        return re, start + n
    im = rows[..., start + n:start + 2 * n].reshape(lead + tuple(shape))
    return re + 1j * im, start + 2 * n


def _field_scalars(rows: np.ndarray, start: int, field: str) -> np.ndarray:
    """One field scalar per row of a block, from the Gaussians at ``start``
    (real and imaginary part in turn over C)."""
    if field != COMPLEX:
        return rows[..., start]
    out = np.empty(rows.shape[:-1], dtype=np.complex128)
    out.real, out.imag = rows[..., start], rows[..., start + 1]
    return out


def _unit_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v over its norm along the last axis, and where that norm vanishes
    (at most 1e-6), which makes the candidate a rejected draw."""
    nv = row_norms(v.reshape(-1, v.shape[-1])).reshape(v.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return v / nv[..., None], ~(nv > 1e-6)


def expected_generic_mrank(shape: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Multilinear rank of a generic rank-r tensor.

    Per mode this is min(r, n_i, prod_{j != i} n_j): the flattening factors
    through both the mode-i span and the span of the r Kronecker columns on
    the other side.
    """
    total = math.prod(shape)
    return tuple(min(r, n, total // n) for n in shape)


class _Builder(NamedTuple):
    """A sampler's block builder. ``size`` Gaussians make one candidate.
    ``build(rows, owners)`` takes a (K, size) block, row k drawn from
    stream ``owners[k]``, and gives the stack of the K candidates, one
    status per row and ``drawn(k)``, the sampler's (value, witness) of row
    k. A status is None for a candidate, False for a raw draw the sampler
    rejects itself (a vanishing unit factor or coefficient, a wrong
    determinant sign), or the error that ends the stream."""

    size: int
    build: Callable


def _certified(stratum: StratumDescriptor, builder: _Builder,
               rngs: list[SplitMix64], margin: float,
               tol: TolerancePolicy) -> list:
    """Per generator, the first of at most 1 + _MAX_REDRAWS candidates that
    is a member of ``stratum`` with every margin at least ``margin``, as
    (value, witness), or the RetryExhausted or draw error that ends its
    stream. Every round screens and judges the candidates of the streams
    still drawing, as many as fit in a block of _BLOCK Gaussians, with one
    call each; the record's ``screen`` runs before the rank read, so a
    candidate it rejects costs no SVD."""
    rule = kinds.kind_of(stratum)
    per = _CHUNK if rule.screens else 1
    streams = max(1, _BLOCK // (per * builder.size))
    out: list = [None] * len(rngs)
    left = [_MAX_REDRAWS + 1] * len(rngs)
    queue = list(range(len(rngs)))
    while queue:
        pending, queue = queue[:streams], queue[streams:]
        width = min(per, max(left[i] for i in pending))
        block = normal_block([rngs[i] for i in pending], width * builder.size)
        stack, status, drawn = builder.build(
            block.reshape(-1, builder.size), np.repeat(pending, width))
        # per stream its candidates of the round, up to its cap
        runs = [range(j * width, j * width + min(width, left[i]))
                for j, i in enumerate(pending)]
        live = [k for rows in runs for k in rows if status[k] is None]
        screened = [k for k, ok in zip(live, rule.screen(stratum, stack[live], tol))
                    if ok] if live else []
        members = {k for k, ok in zip(screened, kinds.clear_members(
            stratum, stack[screened], margin, tol)) if ok} if screened else set()
        still = []
        for i, rows in zip(pending, runs):
            k = next((k for k in rows
                      if k in members or isinstance(status[k], Exception)), None)
            used = len(rows) if k is None else rows.index(k) + 1
            rngs[i].skip(used * builder.size)
            if k is not None:
                out[i] = status[k] if isinstance(status[k], Exception) else drawn(k)
                continue
            left[i] -= used
            if left[i]:
                still.append(i)
            else:
                out[i] = RetryExhausted(f"could not certify a sample of {stratum} "
                                        f"after {_MAX_REDRAWS} redraws")
        queue += still
    return out


def _one(draws: list):
    """The one stream's draw, or the error that ended it."""
    (drawn,) = draws
    if isinstance(drawn, Exception):
        raise drawn
    return drawn


def _rank_r_builder(shape: tuple[int, ...], r: int, field: str,
                    witnesses: bool) -> _Builder:
    """Per term one unit factor per mode, then the scalar; the terms are
    summed in order. The terms are the witness, or None without
    ``witnesses``. A vanishing unit factor rejects the candidate."""

    def build(rows, owners):
        terms = rows.reshape(len(rows), r, -1)
        units, start = [], 0
        vanished = np.zeros(len(rows), dtype=bool)
        for n in shape:
            v, start = _field_values(terms, start, (n,), field)
            unit, gone = _unit_rows(v)
            units.append(unit)
            vanished |= gone.any(axis=1)
        scalars = _field_scalars(terms, start, field)
        parts = (outer_stack([u.reshape(-1, u.shape[-1]) for u in units])
                 .reshape((len(rows), r) + shape)
                 * scalars.reshape(scalars.shape + (1,) * len(shape)))
        total = parts[:, 0]
        for k in range(1, r):
            total = total + parts[:, k]

        def drawn(j):
            value = Hypermatrix(total[j].copy(), field)
            if not witnesses:
                return value, None
            return value, [RankOneFactors(scalars[j, k].item(),
                                          tuple(u[j, k].copy() for u in units),
                                          field) for k in range(r)]
        return total, [False if gone else None for gone in vanished], drawn

    return _Builder(r * _field_size((sum(shape) + 1,), field), build)


def rank_r_draws(shape: tuple[int, ...], r: int, field: str,
                 rngs: list[SplitMix64], tol: TolerancePolicy = DEFAULT_TOL,
                 witnesses: bool = True) -> list:
    """sample_rank_r for every generator, drawn in lockstep: per generator
    (tensor, terms), or the error that ended its stream. Without
    ``witnesses`` the terms are None, and a census of any size holds no
    more than its tensors."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    # rank <= prod of the other dimensions, every mode; 2x2x2 tops out at 3
    total = math.prod(shape)
    if r > min(total // n for n in shape) or (shape == (2, 2, 2) and r > 3):
        raise ValueError(f"no tensors of rank {r} on shape {shape}")
    shape = tuple(shape)
    return _certified(StratumDescriptor("rank", field, r, shape=shape),
                      _rank_r_builder(shape, r, field, witnesses), rngs,
                      tol.gap_min, tol)


def sample_rank_r(shape: tuple[int, ...], r: int, field: str, rng: SplitMix64,
                  tol: TolerancePolicy = DEFAULT_TOL
                  ) -> tuple[Hypermatrix, list[RankOneFactors]]:
    """Sum of r Gaussian rank-one terms, certified for its stratum (on real
    2x2x2 with r = 3, the border-rank-three region)."""
    return _one(rank_r_draws(shape, r, field, [rng], tol))


def _sym_rank_r_builder(n: int, d: int, r: int, field: str,
                        signatures: list | None) -> _Builder:
    """r unit vectors, then r coefficients (signed by the stream's
    signature); the powers are summed in order. A vanishing unit vector or
    coefficient rejects the candidate."""
    width = _field_size((n,), field)

    def build(rows, owners):
        v, start = _field_values(rows[:, :r * width].reshape(len(rows), r, width),
                                 0, (n,), field)
        units, gone = _unit_rows(v)
        lam = _field_scalars(rows[:, r * width:].reshape(len(rows), r, -1), 0, field)
        if signatures is not None:
            magnitude = np.abs(lam)
            positive = np.arange(r) < np.take(signatures, owners)[:, None]
            lam = np.where(positive, magnitude, -magnitude)
        packed = sym_power_stack(units[:, 0], d, lam[:, :1], field)
        for k in range(1, r):
            packed = packed + sym_power_stack(units[:, k], d, lam[:, k:k + 1], field)
        vanished = gone.any(axis=1) | (np.abs(lam) < 1e-6).any(axis=1)

        def drawn(j):
            decomp = SymRankDecomposition(d, tuple(lam[j].tolist()),
                                          tuple(units[j].copy()), field)
            return SymTensor(n, d, field, packed[j].copy()), decomp
        return packed, [False if no else None for no in vanished], drawn

    return _Builder(r * (width + _field_size((1,), field)), build)


def sym_rank_r_draws(n: int, d: int, r: int, signature: int | None,
                     field: str, rngs: list[SplitMix64],
                     tol: TolerancePolicy = DEFAULT_TOL) -> list:
    """sample_sym_rank_r for every generator, drawn in lockstep: per
    generator (tensor, decomposition), or the error that ended its
    stream."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    signatures = None
    if field == REAL and d % 2 == 0:
        signatures = ([int(rng.integers(0, r + 1)) for rng in rngs]
                      if signature is None else [signature] * len(rngs))
        if signature is not None and not 0 <= signature <= r:
            raise ValueError(f"signature {signature} out of range 0..{r}")
    return _certified(StratumDescriptor("sym-rank", field, r, dim=n, order=d),
                      _sym_rank_r_builder(n, d, r, field, signatures), rngs,
                      tol.gap_min, tol)


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
    return _one(sym_rank_r_draws(n, d, r, signature, field, [rng], tol))


def _frames(rows: np.ndarray, start: int, n: int, r: int, field: str):
    """The orthonormal (n, r) frames per row that np.linalg.qr gives the
    field Gaussians at ``start``, and the column after them."""
    G, start = _field_values(rows, start, (n, r), field)
    return np.ascontiguousarray(np.linalg.qr(G)[0]), start


def _fixed_mrank_builder(shape: tuple[int, ...], ranks: tuple[int, ...],
                         field: str, witnesses: bool) -> _Builder:
    """One frame per mode, then the core; the value is the core under the
    frames, whose Tucker representation is the witness, or None without
    ``witnesses``."""

    def build(rows, owners):
        frames, start = [], 0
        for n, r in zip(shape, ranks):
            F, start = _frames(rows, start, n, r, field)
            frames.append(F)
        core = np.ascontiguousarray(_field_values(rows, start, ranks, field)[0])
        values = mode_multiply_stack(core, frames)

        def drawn(j):
            value = Hypermatrix(values[j].copy(), field)
            if not witnesses:
                return value, None
            return value, TuckerRep(
                tuple(GrassmannPoint(F[j].copy(), field) for F in frames),
                Hypermatrix(core[j].copy(), field))
        return values, [None] * len(rows), drawn

    return _Builder(sum(_field_size((n, r), field) for n, r in zip(shape, ranks))
                    + _field_size(ranks, field), build)


def fixed_mrank_draws(shape: tuple[int, ...], ranks: tuple[int, ...],
                      field: str, rngs: list[SplitMix64],
                      tol: TolerancePolicy = DEFAULT_TOL,
                      witnesses: bool = True) -> list:
    """sample_fixed_mrank for every generator, drawn in lockstep: per
    generator (tensor, Tucker representation), or the error that ended its
    stream; without ``witnesses`` the representation is None."""
    if len(ranks) != len(shape):
        raise ValueError("need one rank per mode")
    if any(r < 1 or r > n for r, n in zip(ranks, shape)):
        raise ValueError(f"ranks {ranks} incompatible with shape {shape}")
    if not mrank_admissible(tuple(ranks)):
        raise ValueError(f"inadmissible multilinear rank {ranks}")
    shape, ranks = tuple(shape), tuple(ranks)
    return _certified(StratumDescriptor("mrank", field, ranks, shape=shape),
                      _fixed_mrank_builder(shape, ranks, field, witnesses),
                      rngs, tol.gap_min, tol)


def sample_fixed_mrank(shape: tuple[int, ...], ranks: tuple[int, ...],
                       field: str, rng: SplitMix64,
                       tol: TolerancePolicy = DEFAULT_TOL
                       ) -> tuple[Hypermatrix, TuckerRep]:
    """Random orthonormal frames applied to a Gaussian full-rank core,
    certified for its stratum."""
    return _one(fixed_mrank_draws(shape, ranks, field, [rng], tol))


def _sym_mrank_builder(n: int, d: int, r: int, field: str) -> _Builder:
    """The packed core, then the shared frame; the value is the core under
    the frame in every mode, packed again."""
    length = sym_packed_length(r, d)

    def build(rows, owners):
        core, start = _field_values(rows, 0, (length,), field)
        Q, _ = _frames(rows, start, n, r, field)
        full = mode_multiply_stack(sym_embed_stack(core, r, d), [Q] * d)
        try:
            packed = sym_extract_stack(full, LOOSE_TOL)
            status = [None] * len(rows)
        except ToleranceError:
            # refuse only the rows that fail, as one at a time does
            packed = np.zeros((len(rows), sym_packed_length(n, d)), dtype=full.dtype)
            status = []
            for k, one in enumerate(full):
                try:
                    packed[k] = sym_extract_stack(one[None], LOOSE_TOL)[0]
                    status.append(None)
                except ToleranceError as exc:
                    status.append(exc)
        return packed, status, lambda j: (SymTensor(n, d, field, packed[j].copy()),
                                          None)

    return _Builder(_field_size((length,), field) + _field_size((n, r), field),
                    build)


def sym_mrank_draws(n: int, d: int, r: int, field: str,
                    rngs: list[SplitMix64],
                    tol: TolerancePolicy = DEFAULT_TOL) -> list:
    """sample_sym_mrank for every generator, drawn in lockstep: per
    generator (tensor, None), or the error that ended its stream."""
    if not 1 <= r <= n:
        raise ValueError(f"rank {r} incompatible with dimension {n}")
    return _certified(StratumDescriptor("sym-mrank", field, r, dim=n, order=d),
                      _sym_mrank_builder(n, d, r, field), rngs, tol.gap_min, tol)


def sample_sym_mrank(n: int, d: int, r: int, field: str = REAL,
                     rng: SplitMix64 | None = None,
                     tol: TolerancePolicy = DEFAULT_TOL) -> SymTensor:
    """Gaussian symmetric core pushed through one shared orthonormal frame,
    certified for its stratum."""
    if rng is None:
        raise ValueError("sampler needs an explicit RNG state")
    return _one(sym_mrank_draws(n, d, r, field, [rng], tol))[0]


# the margin every mode of a connector's midpoint core clears
_CORE_MARGIN = 1e-3


def _full_core_builder(ranks: tuple, field: str, square_modes: list[int],
                       want_signs: tuple) -> _Builder:
    """A Gaussian core; over R with square modes, one whose square
    flattenings have the determinant signs ``want_signs``."""
    signed = field == REAL and bool(square_modes)

    def build(rows, _owners):
        cores = np.ascontiguousarray(_field_values(rows, 0, ranks, field)[0])
        signs = (flattening_det_signs(cores, [i + 1 for i in square_modes])
                 if signed else [want_signs] * len(cores))
        return (cores, [None if s == want_signs else False for s in signs],
                lambda k: (Hypermatrix(cores[k].copy(), field), None))

    return _Builder(_field_size(ranks, field), build)


def sample_full_core(ranks: tuple, field: str, square_modes: list[int],
                     want_signs: tuple, rng: SplitMix64,
                     tol: TolerancePolicy) -> np.ndarray:
    """A Gaussian core of full multilinear rank ``ranks`` with every margin
    at least 1e-3, whose square flattenings (0-based ``square_modes``) have
    the determinant signs ``want_signs`` over R: the multilinear-rank
    connector's midpoint core."""
    stratum = StratumDescriptor("mrank", field, ranks, shape=ranks)
    return _one(_certified(stratum, _full_core_builder(
        ranks, field, square_modes, want_signs), [rng], _CORE_MARGIN, tol))[0].data


def _sym_core_builder(r: int, d: int, field: str,
                      signature: int | None) -> _Builder:
    """A Gaussian packed core, or with ``signature`` the quadratic form
    Q diag(lam) Q^T of a Gaussian unitary factor Q and |Gaussian| + 0.1
    eigenvalues, ``signature`` of them positive."""
    length = sym_packed_length(r, d)
    frame = _field_size((r, r), field)

    def quadratic(row):
        Q = _unitary_factor(_field_values(row, 0, (r, r), field)[0])
        lam = np.abs(row[frame:]) + 0.1
        lam[signature:] *= -1.0
        return sym_extract(Hypermatrix((Q * lam) @ Q.T, field), LOOSE_TOL).packed

    def build(rows, _owners):
        packed = (np.ascontiguousarray(_field_values(rows, 0, (length,), field)[0])
                  if signature is None else np.stack([quadratic(row) for row in rows]))
        return (packed, [None] * len(rows),
                lambda k: (SymTensor(r, d, field, packed[k].copy()), None))

    size = _field_size((length,), field) if signature is None else frame + r
    return _Builder(size, build)


def sample_sym_core(r: int, d: int, field: str, signature: int | None,
                    rng: SplitMix64, tol: TolerancePolicy) -> SymTensor:
    """A symmetric core of full multilinear rank r on r^d with every margin
    at least 1e-3, and over R with d = 2 the eigenvalue ``signature``: the
    symmetric multilinear-rank connector's midpoint core."""
    stratum = StratumDescriptor("sym-mrank", field, r, dim=r, order=d)
    return _one(_certified(stratum, _sym_core_builder(r, d, field, signature),
                           [rng], _CORE_MARGIN, tol))[0]


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


def _unitary_factor(G: np.ndarray) -> np.ndarray:
    """The Q of G = QR with R's diagonal made positive, so that the
    factorization is unique and Q a deterministic function of G."""
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    phase = np.where(np.abs(d) == 0, 1.0, d / np.where(np.abs(d) == 0, 1.0, np.abs(d)))
    return Q * phase


def random_orthogonal(n: int, rng: SplitMix64, field: str = REAL) -> np.ndarray:
    return _unitary_factor(field_normals(rng, (n, n), field))


# The membership rules live in the kind records, which are built from the
# samplers above, so they come last.
from . import kinds  # noqa: E402
