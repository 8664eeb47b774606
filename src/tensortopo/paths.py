"""Explicit continuous in-stratum paths between same-stratum tensors.

A TensorPath is a chain of segments over equal sub-intervals of [0, 1].
Segments come in three families, one per construction: term-sum curves
through decompositions (rank and symmetric rank), Tucker curves moving a
core and its frames (multilinear rank), and the conjugate pair (border rank
three on 2x2x2).

A segment is built from tracks, curves that evaluate themselves (``Track``):
``const``, ``lerp``, ``detour`` and ``phase`` for factors, scalars and cores,
``gl_core_track`` and ``eigen_core_track`` for cores that keep a determinant
sign or a signature, and ``fixed_frame`` and ``moving_frame`` for Tucker
frames. A segment evaluates a whole grid of parameters in one ``values``
call, which returns one stack: (K, ...) dense values, or (K, L) packed rows
of symmetric ones. Every row has the bits the one-point call ``values([s])``
gives it, and the path's stratum turns a row into a tensor
(``StratumDescriptor.value``). path_verify evaluates its grid as one stack
(``TensorPath.values``), and the multilinear-rank connectors read a core
path's grid of cores as one stack too. verify_paths certifies the grids of
many paths, a census's or a pairwise experiment's, with one call of their
stratum's record; path_verify is its one-path case.

A multilinear-rank path mends a determinant-sign mismatch of the square
flattenings with at most one orientation loop: those flattenings are one
matrix and its transpose, or all the same scalar, so a loop negates all
their signs or none (``geometry.flip_exponent``).

Rank-one and conjugate-pair constructions are in-stratum pointwise by
construction. The others are checked on a sample grid and repaired by
recursive random-midpoint detours (each retry dodges a measure-zero bad set;
at most _DETOUR_DEPTH levels). Every membership check here is the kind
record's ``judge`` (kinds.py), which reads the ranks. A core interpolation
must keep every core of its grid a member of the core's own stratum with
every margin at least gap_min, and keep its determinant signs or signature
(one batched slogdet or eigvalsh per grid); a term-sum segment (rank two,
symmetric rank r) must pass path_verify, which certifies its whole grid in
one call of the record, with every margin at least gap_min. A path of one
such segment carries that report, so path_verify does not certify its
samples again.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certify import is_rank_one, rank2_decompositions
from .classifiers import (ComponentLabel, brank3_labelled_terms, sign_label,
                          mrank_sign_mode, sym_matrix_signatures)
from .core import (COMPLEX, DEFAULT_TOL, LOOSE_TOL, Hypermatrix, REAL,
                   RankOneFactors, SymRankDecomposition, SymTensor,
                   TolerancePolicy, _dtype_for, flattening_det_signs,
                   mode_multiply, mode_multiply_stack, outer_stack, row_norms,
                   sym_embed, sym_embed_stack, sym_extract, sym_extract_stack,
                   sym_power_stack)
from .errors import (DifferentComponents, RetryExhausted, ToleranceError,
                     UnsupportedStratumError, settled)
from .geometry import (GrassmannGeodesic, GrassmannPoint, OrientationLoop,
                       flip_exponent, gl_interpolator, orthogonal_interpolator,
                       sym_tucker_stack, tucker_stack)
from .io import array_to_json, scalar_to_json
from .rng import SplitMix64
from .sampling import (sample_full_core, sample_rank_r, sample_sym_core,
                       sample_sym_rank_r)
from .stratum import StratumDescriptor, format_stratum

_SAME = 1e-13          # below this, two unit vectors count as the same point
_ANTIPODAL = 1e-9      # |<a,b> + 1| below this forces a detour
_ENDPOINT_TOL = 1e-10  # relative miss allowed between a path end and its input
_DETOUR_DEPTH = 8      # midpoint detour levels before a construction gives up
PATH_SAMPLES = 64      # Chebyshev samples of a verification grid


def _lerp(a, b, s):
    return (1.0 - s) * a + s * b


def _column(ss: np.ndarray, x) -> np.ndarray:
    """``ss`` shaped to scale a stack of points shaped like x."""
    return ss.reshape((-1,) + (1,) * np.ndim(x))


def _data(x):
    """The array a point moves as: a SymTensor core as its packed row."""
    return x.packed if isinstance(x, SymTensor) else x


@dataclass(frozen=True, eq=False)
class Track:
    """A curve s -> point on [0, 1] that evaluates itself: ``at(ss)`` gives
    its points at every s of a 1-D float array, stacked along a first axis
    (a fixed frame gives its one matrix), and a path document prints
    ``[tag, *parts]``."""

    tag: str
    parts: tuple
    at: Callable[[np.ndarray], np.ndarray]


def const(x) -> Track:
    """A vector, scalar or core that does not move."""
    data = _data(x)
    return Track("const", (x,),
                 lambda ss: np.broadcast_to(data, ss.shape + np.shape(data)))


def lerp(a, b) -> Track:
    """The straight line from a to b."""
    x, y = _data(a), _data(b)
    return Track("lerp", (a, b), lambda ss: _lerp(x, y, _column(ss, x)))


def detour(a, via, b) -> Track:
    """Straight legs from a to ``via`` over s < 1/2 and on to b."""

    def at(ss):
        w = _column(ss, a)
        return np.where(w < 0.5, _lerp(a, via, 2.0 * w),
                        _lerp(via, b, 2.0 * w - 1.0))
    return Track("detour", (a, via, b), at)


def phase(c, angle: float) -> Track:
    """The rotation c * exp(i angle s), taken one s at a time with cmath,
    whose exp numpy's array exp does not reproduce."""
    return Track("phase", (c, angle), lambda ss: np.array(
        [c * cmath.exp(1j * _lerp(0.0, angle, s)) for s in ss.tolist()]))


def fixed_frame(F: np.ndarray) -> Track:
    return Track("fixed", (F,), lambda ss: F)


def moving_frame(tag: str, curve) -> Track:
    """A GrassmannGeodesic ("geodesic") or OrientationLoop ("loop"); a path
    document gives its end frames."""
    return Track(tag, (curve,), curve.frame)


def _track_json(x, field: str):
    """Tracks as JSON lists [tag, part, ...]; a frame curve becomes its end
    frames."""
    if isinstance(x, Track):
        return [x.tag] + _track_json(x.parts, field)
    if x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, tuple):
        return [_track_json(v, field) for v in x]
    if isinstance(x, np.ndarray):
        return array_to_json(x)
    if isinstance(x, SymTensor):
        return [scalar_to_json(v, field) for v in x.packed]
    if isinstance(x, (GrassmannGeodesic, OrientationLoop)):
        return [array_to_json(x.frame(0.0)), array_to_json(x.frame(1.0))]
    return scalar_to_json(x, field)


def _detour_via(a: np.ndarray) -> np.ndarray:
    """Basis vector most independent from a: smallest coordinate magnitude."""
    k = int(np.argmin(np.abs(a)))
    e = np.zeros_like(a)
    e[k] = 1.0
    return e


class _Segment:
    """What the three segment families share: a stack of values from
    ``values(ss)``, whose rows the path's stratum turns into tensors
    (StratumDescriptor.value), and ``witness``, the one-point case of
    ``witnesses``; a family without witnesses has None at every s (a list),
    and one with witnesses gives them as one array."""

    def witnesses(self, ss) -> list:
        return [None] * len(ss)

    def witness(self, s: float):
        return self.witnesses([s])[0]


class TermSumCurve(_Segment):
    """Sum of rank-one term curves: the segment family of rank and
    symmetric-rank paths.

    A dense term is (scalar track, per-mode vector tracks) and traces
    c(s) f_1(s) (x) ... (x) f_d(s); a rank-one segment is a one-term sum.
    With ``order`` set the curve is symmetric: a term is (sign, vector track)
    and traces sign * w(s)^(x order). Tracks come from ``const``, ``lerp``,
    ``detour`` and ``phase``.
    """

    def __init__(self, kind: str, field: str, terms: tuple,
                 order: int | None = None):
        self.kind = kind
        self.field = field
        self.terms = terms
        self.order = order

    def values(self, ss) -> np.ndarray:
        """The curve at every s of ``ss`` as one stack: (K, ...) dense
        values, or (K, L) packed rows for a symmetric sum."""
        ss = np.asarray(ss, dtype=np.float64)
        dtype = _dtype_for(self.field)
        total = None
        for head, tracks in self.terms:
            if self.order is None:
                factors = [np.asarray(tr.at(ss), dtype=dtype) for tr in tracks]
                scalar = head.at(ss)
                part = outer_stack(factors) * scalar.reshape(
                    scalar.shape + (1,) * len(factors))
            else:
                part = sym_power_stack(tracks.at(ss), self.order, head,
                                       self.field)
            total = part if total is None else total + part
        return total.astype(dtype, copy=False)

    def witnesses(self, ss):
        """The term coefficients of a symmetric sum at every s of ``ss`` as
        one (K, r) array: term k's is sign * |w_k(s)|^order, the coefficient
        of the unit vector w_k(s) / |w_k(s)|, so the signs give the
        signature and a zero says the term vanishes. None at every s for a
        dense sum."""
        if self.order is None:
            return super().witnesses(ss)
        ss = np.asarray(ss, dtype=np.float64)
        return np.stack([sign * row_norms(track.at(ss)) ** self.order
                         for sign, track in self.terms], axis=1)

    def to_json(self) -> dict:
        return {"kind": self.kind, "order": self.order,
                "terms": _track_json(self.terms, self.field)}


def gl_core_track(core0: np.ndarray, core1: np.ndarray, ranks: tuple,
                  mode: int) -> Track:
    """Core track whose mode flattening follows an SVD interpolation.

    The flattening stays invertible with constant determinant sign by
    construction, which a straight core interpolation cannot promise.
    """
    n = core0.shape[mode]
    interp = gl_interpolator(np.moveaxis(core0, mode, 0).reshape(n, -1),
                             np.moveaxis(core1, mode, 0).reshape(n, -1))
    ranks = tuple(ranks)
    rest = tuple(r for k, r in enumerate(ranks) if k != mode)

    def at(ss):
        M = interp(ss).reshape(ss.shape + (ranks[mode],) + rest)
        return np.moveaxis(M, 1, mode + 1)
    return Track("gl", (core0, core1, ranks, mode), at)


def eigen_core_track(core0: SymTensor, core1: SymTensor) -> Track:
    """Order-2 symmetric core track through a shared eigenvector rotation.

    Eigenvalues are interpolated slotwise after sorting, so with equal
    endpoint signatures no eigenvalue can cross zero and the signature is
    constant exactly.
    """
    w0, Q0 = np.linalg.eigh(sym_embed(core0).data)
    w1, Q1 = np.linalg.eigh(sym_embed(core1).data)
    lam0, lam1 = w0[::-1], w1[::-1]
    Q0, Q1 = Q0[:, ::-1], Q1[:, ::-1]
    if np.linalg.det(Q0) * np.linalg.det(Q1) < 0:
        Q1 = Q1.copy()
        Q1[:, -1] = -Q1[:, -1]  # leaves Q1 diag(w1) Q1^T unchanged
    rotation = orthogonal_interpolator(Q0, Q1)

    def at(ss):
        Q = rotation(ss)
        lam = _lerp(lam0, lam1, _column(ss, lam0))
        return sym_extract_stack((Q * lam[:, None, :]) @ np.swapaxes(Q, 1, 2),
                                 LOOSE_TOL)
    return Track("eigen", (core0, core1, lam0, lam1), at)


class TuckerCurve(_Segment):
    """A core track carried by per-mode frame tracks: the segment family of
    multilinear-rank paths, A(s) = C(s) x_1 F_1(s) ... x_d F_d(s).

    Core tracks come from ``const``, ``lerp``, ``gl_core_track`` and
    ``eigen_core_track``; frame tracks from ``fixed_frame`` and
    ``moving_frame``, or None for the identity. A symmetric core (a
    SymTensor) takes one frame track, shared by every mode.
    """

    def __init__(self, kind: str, field: str, core: Track, frames):
        self.kind = kind
        self.field = field
        self.core_track = core
        self.frames = frames
        start = core.parts[0]  # every core track starts with its first core
        self._sym = start if isinstance(start, SymTensor) else None

    def cores(self, ss) -> np.ndarray:
        """The core at every s of ``ss`` as one stack: (K, *ranks) dense
        cores, or (K, L) packed rows of symmetric ones."""
        return self.core_track.at(np.asarray(ss, dtype=np.float64))

    def core(self, s: float):
        row = self.cores([s])[0]
        if self._sym is None:
            return row
        return SymTensor(self._sym.dim, self._sym.order, self._sym.field, row)

    def values(self, ss) -> np.ndarray:
        """The curve at every s of ``ss`` as one stack: (K, ...) dense
        values, or (K, L) packed rows for a symmetric core."""
        ss = np.asarray(ss, dtype=np.float64)
        cores = self.cores(ss)
        if self._sym is None:
            mats = [None if tr is None else tr.at(ss) for tr in self.frames]
            return mode_multiply_stack(cores, mats).astype(
                _dtype_for(self.field), copy=False)
        if self.frames is None:
            return cores
        r, d = self._sym.dim, self._sym.order
        full = mode_multiply_stack(sym_embed_stack(cores, r, d),
                                   [self.frames.at(ss)] * d)
        return sym_extract_stack(full, LOOSE_TOL)

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "core": _track_json(self.core_track, self.field),
                "frames": _track_json(self.frames, self.field)}


def _rotations(angles: np.ndarray) -> np.ndarray:
    """R(a) = [[cos a, -sin a], [sin a, cos a]] for every angle of an
    array, stacked along its axes."""
    c, s = np.cos(angles), np.sin(angles)
    return np.stack((np.stack((c, -s), axis=-1), np.stack((s, c), axis=-1)), axis=-2)


def _turns(Q0: np.ndarray, Q1: np.ndarray) -> np.ndarray:
    """The angles a in (-pi, pi] with Q1 = Q0 R(a), for two stacks of 2x2
    orthogonal matrices with equal determinants."""
    P = np.swapaxes(Q0, -1, -2) @ Q1
    return np.arctan2(P[..., 1, 0], P[..., 0, 0])


class ConjPairSegment(_Segment):
    """A(t) = T(t) + conj(T(t)) with T = x(t) (x) y(t) (x) z(t).

    Each complex mode factor is encoded as the invertible real matrix
    M_i = [Re x_i | Im x_i], the first factor carrying the term's
    coefficient. The six end matrices take one batched SVD,
    M_i = U_i S_i V_i^T with det V_i = +1, and in closed form

        M_i(t) = U_i(0) R(t psi_i) S_i(t) (V_i(0) R(t theta_i))^T,

    with the singular values lerped and the turns psi_i, theta_i of U_i and
    V_i read with arctan2. Each M_i keeps its determinant sign, so every
    sample has all three orientation areas nonzero and the tensor stays in
    the negative-hyperdeterminant stratum exactly.

    How far it stays from the boundary is a closed form too. With
    rho_i = 2 s_i1 s_i2 / (s_i1^2 + s_i2^2) and V_i = R(beta_i),

        Delta(A) / ||A||^4 = -1/4 prod rho_i^2
                             / (1 + cos(phi) prod sqrt(1 - rho_i^2))^2,

    phi = 2 sum beta_i: U does not enter, and phi moves by 2 sum theta_i.
    Negating (U_i, V_i) at the far end leaves M_i unchanged and turns
    theta_i by pi, so the segment negates them on the modes that put
    sum theta_i in (-pi/2, pi/2], picking the modes that leave the least
    total turn: phi then takes its short arc, and passes cos(phi) = +1,
    where the ratio is nearest 0, only when an end is near it. This
    short-arc rule is measured, not proved: no within-label path of 60
    seeded 200-trial censuses (4,560 paths) and no path between 1,999
    random same-label pairs dipped into the band with it. A residual dip
    is a sample path_verify fails (a verify-fail), never a wrong label.
    """

    def __init__(self, mats0: tuple, mats1: tuple):
        self.kind = "conj-pair"
        self.mats0 = mats0
        self.mats1 = mats1
        U, s, Vh = np.linalg.svd(np.array([mats0, mats1]))
        V = np.swapaxes(Vh, -1, -2)
        # det V = +1, a reflection pushed into U (last columns of both)
        reflected = V[..., 0, 0] * V[..., 1, 1] < V[..., 0, 1] * V[..., 1, 0]
        U[reflected, :, 1] *= -1.0
        V[reflected, :, 1] *= -1.0
        det_u = U[..., 0, 0] * U[..., 1, 1] - U[..., 0, 1] * U[..., 1, 0]
        if not np.array_equal(det_u[0] > 0, det_u[1] > 0):
            raise ValueError("conj-pair ends need factor matrices of equal det signs")
        # the short-arc rule: each mode's V turn is one of up, up - pi
        theta = _turns(V[0], V[1])
        up = np.where(theta > 0, theta, theta + np.pi)
        down = np.zeros(3, dtype=bool)
        down[np.argsort(-up, kind="stable")[:math.ceil(up.sum() / np.pi - 0.5)]] = True
        flip = down != (theta <= 0)
        U[1, flip] *= -1.0
        V[1, flip] *= -1.0
        self.u_turns = _turns(U[0], U[1])
        self.v_turns = _turns(V[0], V[1])
        self._ends = (U[0], V[0], s[0], s[1])

    def mode_matrices(self, ss) -> np.ndarray:
        """M_1(s), M_2(s), M_3(s) at every s of ``ss``, as one (K, 3, 2, 2)
        stack."""
        ss = np.asarray(ss, dtype=np.float64)[:, None]
        U0, V0, s0, s1 = self._ends
        U = U0 @ _rotations(ss * self.u_turns)
        V = V0 @ _rotations(ss * self.v_turns)
        return U * _lerp(s0, s1, ss[..., None])[..., None, :] @ np.swapaxes(V, -1, -2)

    def values(self, ss) -> np.ndarray:
        """The segment at every s of ``ss`` as one (K, 2, 2, 2) stack."""
        M = self.mode_matrices(ss)
        x = M[..., 0] + 1j * M[..., 1]
        return 2.0 * np.real(outer_stack([x[:, 0], x[:, 1], x[:, 2]]))

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "mode_matrices_start": [array_to_json(M) for M in self.mats0],
                "mode_matrices_end": [array_to_json(M) for M in self.mats1]}


class TensorPath:
    """Chain of segments over equal sub-intervals of [0, 1]."""

    def __init__(self, segments: list, stratum: StratumDescriptor):
        if not segments:
            raise ValueError("a path needs at least one segment")
        self.segments = list(segments)
        self.stratum = stratum
        self._verified = None  # (K, tol, report) of the last path_verify
        # connect's larger relative miss between a path end and its input
        self.endpoint_defect = None

    def eval(self, t: float):
        return self.stratum.value(self.values([t])[0])

    def _by_segment(self, ts):
        """(segment, positions in ts, local parameters) per segment that
        holds some t of ``ts``: segment k = min(floor(t n), n - 1) of n
        holds t at s = t n - k."""
        ts = np.asarray(ts, dtype=np.float64)
        inside = (ts >= 0.0) & (ts <= 1.0)
        if not inside.all():
            raise ValueError(f"path parameter {ts[~inside][0].item()} outside [0, 1]")
        n = len(self.segments)
        u = ts * n
        k = np.minimum(np.floor(u), n - 1)
        local = u - k
        index = k.astype(np.intp)
        for j in np.bincount(index, minlength=n).nonzero()[0].tolist():
            rows = (index == j).nonzero()[0]
            yield self.segments[j], rows, local[rows]

    def values(self, ts) -> np.ndarray:
        """The path at every t of ``ts`` as one stack, each segment
        evaluating its share of ``ts`` in one call; the stratum's ``value``
        turns a row into a tensor."""
        out = None
        for seg, rows, ss in self._by_segment(ts):
            part = seg.values(ss)
            if out is None:
                out = np.empty((len(ts),) + part.shape[1:], dtype=part.dtype)
            out[rows] = part
        return out

    def witnesses(self, ts):
        """The segments' witnesses at every t of ``ts`` (see values): one
        array where the segments give arrays, else a list."""
        out = None
        for seg, rows, ss in self._by_segment(ts):
            part = seg.witnesses(ss)
            if out is None:
                out = (np.empty((len(ts),) + part.shape[1:], dtype=part.dtype)
                       if isinstance(part, np.ndarray) else [None] * len(ts))
            if isinstance(out, np.ndarray):
                out[rows] = part
            else:
                for i, w in zip(rows.tolist(), part):
                    out[i] = w
        return out

    def joints(self) -> list[float]:
        n = len(self.segments)
        return [k / n for k in range(1, n)]

    def to_json(self) -> dict:
        return {"stratum": format_stratum(self.stratum),
                "segments": [seg.to_json() for seg in self.segments]}


def value_diff_norm(a, b) -> float:
    if isinstance(a, SymTensor):
        return SymTensor(a.dim, a.order, a.field, a.packed - b.packed).norm()
    return float(np.linalg.norm((a.data - b.data).ravel()))


def chebyshev_grid(K: int) -> list[float]:
    return [(1.0 - math.cos((2 * k + 1) * math.pi / (2 * K))) / 2.0
            for k in range(K)]


# ---------------------------------------------------------------------------
# rank-one connectivity


def connect_rank_one(A: Hypermatrix, B: Hypermatrix,
                     tol: TolerancePolicy = DEFAULT_TOL) -> TensorPath:
    """Mode-ascending factor interpolation; exactly rank one pointwise.

    Dependent factors are skipped; antipodal ones take a detour through the
    most independent basis vector. The scalar is reconciled at the end: a
    real sign mismatch is flipped by a mode-1 detour, a complex phase is
    rotated explicitly, and the magnitude is interpolated last.
    """
    if A.shape != B.shape or A.field != B.field:
        raise ValueError("endpoints must share shape and field")
    ok_a, wa = is_rank_one(A, tol)
    ok_b, wb = is_rank_one(B, tol)
    if not ok_a or not ok_b:
        raise ToleranceError("connect_rank_one endpoints must certify rank one")
    field = A.field
    factors = list(wa.factors)
    segments: list = []

    def const_tracks():
        return [const(f) for f in factors]

    def add(kind: str, scalar: tuple, tracks: list):
        segments.append(TermSumCurve(kind, field, ((scalar, tuple(tracks)),)))

    for m in range(A.order):
        a, b = factors[m], wb.factors[m]
        if np.linalg.norm(a - b) <= _SAME:
            factors[m] = b
            continue
        tracks = const_tracks()
        inner = np.vdot(a, b)
        if abs(inner + 1.0) <= _ANTIPODAL:
            tracks[m] = detour(a, _detour_via(a), b)
            kind = "detour-arc"
        else:
            tracks[m] = lerp(a, b)
            kind = "factor-lerp"
        add(kind, const(wa.scalar), tracks)
        factors[m] = b

    lam, mu = wa.scalar, wb.scalar
    if field == REAL:
        if lam * mu < 0:
            tracks = const_tracks()
            a = factors[0]
            tracks[0] = detour(a, _detour_via(a), -a)
            add("detour-arc", const(lam), tracks)
            factors[0] = -a
            mu = -mu
        if abs(lam - mu) > _SAME * max(abs(lam), abs(mu), 1.0):
            add("scalar-scale", lerp(lam, mu), const_tracks())
    else:
        angle = cmath.phase(mu / lam)
        if abs(angle) > _SAME:
            add("complex-phase", phase(lam, angle), const_tracks())
            lam = lam * cmath.exp(1j * angle)
        if abs(lam - mu) > _SAME * max(abs(lam), abs(mu), 1.0):
            add("scalar-scale", lerp(lam, mu), const_tracks())
    if not segments:
        add("scalar-scale", const(lam), const_tracks())
    stratum = StratumDescriptor("rank", field, 1, shape=A.shape)
    return TensorPath(segments, stratum)


# ---------------------------------------------------------------------------
# symmetric rank-one and rank-r connectivity


def _sym_rank1_witness(S: SymTensor, tol: TolerancePolicy):
    """(lambda, unit v) with S = lambda * v^(x d), or ToleranceError."""
    A = sym_embed(S)
    ok, w = is_rank_one(A, tol)
    if not ok:
        raise ToleranceError("endpoint is not symmetric rank one")
    base = w.factors[0]
    lam = w.scalar
    for f in w.factors[1:]:
        align = np.vdot(base, f)
        if abs(abs(align) - 1.0) > 1e-8:
            raise ToleranceError(
                "rank-one factors of a symmetric tensor must be collinear")
        lam = lam * align
    if S.field == REAL:
        lam = float(np.real(lam))
    return lam, base


def _root(c, d: int, field: str):
    """Principal d-th root; real inputs keep their sign for odd d."""
    if field == REAL:
        if c >= 0:
            return c ** (1.0 / d)
        if d % 2 == 1:
            return -((-c) ** (1.0 / d))
        raise ValueError("negative coefficient has no real even-order root")
    return abs(c) ** (1.0 / d) * cmath.exp(1j * cmath.phase(c) / d)


def _sym_pair_track(lam, u, mu, v, d: int, field: str):
    """(sign, track) for the curve sign * ((1-t) a + t b)^(x d)."""
    sign = 1.0
    if field == REAL and d % 2 == 0:
        sign = 1.0 if lam > 0 else -1.0
        if float(np.dot(u, v)) < 0:
            v = -v
        a = abs(lam) ** (1.0 / d) * u
        b = abs(mu) ** (1.0 / d) * v
    else:
        a = _root(lam, d, field) * u
        b = _root(mu, d, field) * v
    if np.linalg.norm(a - b) <= _SAME * max(np.linalg.norm(a), 1.0):
        return sign, const(a)
    return sign, _lerp_or_detour(a, b)


def _lerp_or_detour(a: np.ndarray, b: np.ndarray) -> Track:
    """The line from a to b, or, when they point nearly opposite ways, a
    detour through the basis vector most independent from a, scaled to
    their mean norm."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    inner = np.vdot(a / na, b / nb)
    if abs(inner + 1.0) <= _ANTIPODAL:
        return detour(a, _detour_via(a / na) * (na + nb) / 2.0, b)
    return lerp(a, b)


def connect_sym_rank_one(Sa: SymTensor, Sb: SymTensor,
                         tol: TolerancePolicy = DEFAULT_TOL) -> TensorPath:
    """Single symmetric-power curve; DifferentComponents on an even-order
    sign mismatch (the diagonal-sum sign separates the two components)."""
    if (Sa.dim, Sa.order, Sa.field) != (Sb.dim, Sb.order, Sb.field):
        raise ValueError("endpoints must share dimension, order and field")
    lam, u = _sym_rank1_witness(Sa, tol)
    mu, v = _sym_rank1_witness(Sb, tol)
    d, field = Sa.order, Sa.field
    if field == REAL and d % 2 == 0 and lam * mu < 0:
        raise DifferentComponents(sign_label(lam), sign_label(mu))
    sign, track = _sym_pair_track(lam, u, mu, v, d, field)
    kind = "detour-arc" if track.tag == "detour" else "factor-lerp"
    seg = TermSumCurve(kind, field, ((sign, track),), order=d)
    stratum = StratumDescriptor("sym-rank", field, 1, dim=Sa.dim, order=d)
    return TensorPath([seg], stratum)


def _sym_canonical_terms(D: SymRankDecomposition) -> list:
    """(coefficient, unit vector) pairs in the canonical per-field gauge."""
    out = []
    for lam, v in zip(D.coefficients, D.vectors):
        nv = float(np.linalg.norm(v))
        c = lam * nv ** D.order
        u = v / nv
        if D.field == REAL and D.order % 2 == 1 and c < 0:
            c, u = -c, -u
        if D.field == COMPLEX:
            theta = cmath.phase(complex(c))
            c = abs(complex(c))
            u = u * cmath.exp(1j * theta / D.order)
        out.append((c, u))
    return out


def _match_sym_terms(terms_a: list, terms_b: list, d: int, field: str) -> list:
    """Greedy nearest-vector matching; even order flips b-vectors freely,
    complex aligns by the best d-th root of unity."""
    even = field == REAL and d % 2 == 0
    if even:
        order_key = lambda item: (0 if item[0] > 0 else 1)
        terms_a = sorted(terms_a, key=order_key)
        terms_b = sorted(terms_b, key=order_key)
    unused = list(range(len(terms_b)))
    pairs = []
    for ca, ua in terms_a:
        best, best_score, best_vec = None, -np.inf, None
        for j in unused:
            cb, ub = terms_b[j]
            if even and (ca > 0) != (cb > 0):
                continue
            inner = np.vdot(ua, ub)
            if even:
                score = abs(float(np.real(inner)))
                vec = ub if float(np.real(inner)) >= 0 else -ub
            elif field == COMPLEX:
                roots = [cmath.exp(2j * math.pi * k / d) for k in range(d)]
                gains = [float(np.real(inner * w)) for w in roots]
                k = int(np.argmax(gains))
                score, vec = gains[k], ub * roots[k]
            else:
                score, vec = float(np.real(inner)), ub
            if score > best_score:
                best, best_score, best_vec = j, score, vec
        unused.remove(best)
        cb = terms_b[best][0]
        pairs.append((ca, ua, cb, best_vec))
    return pairs


def _detour_route(piece, accept, draw_mid, x0, x1, budget: int) -> list:
    """Pieces from x0 to x1: ``piece(x0, x1)`` if ``accept`` passes it,
    else the routes through a random midpoint from ``draw_mid()``, at most
    ``budget`` levels deep."""
    part = piece(x0, x1)
    if accept(part):
        return [part]
    if budget <= 0:
        raise RetryExhausted(
            "path construction failed after exhausting random midpoint detours")
    mid = draw_mid()
    return (_detour_route(piece, accept, draw_mid, x0, mid, budget - 1)
            + _detour_route(piece, accept, draw_mid, mid, x1, budget - 1))


def _term_sum_path(segment, draw_mid, x0, x1, stratum: StratumDescriptor,
                   tol: TolerancePolicy) -> TensorPath:
    """Term-sum segments from x0 to x1, each accepted when path_verify
    passes it as a path of its own with every margin at least gap_min. A
    route of one segment is returned as the path that was verified, so it
    carries its report."""

    def accept(path: TensorPath) -> bool:
        report = path_verify(path, None, tol)
        return report.passed and report.min_margin >= tol.gap_min

    parts = _detour_route(lambda p, q: TensorPath([segment(p, q)], stratum),
                          accept, draw_mid, x0, x1, _DETOUR_DEPTH)
    if len(parts) == 1:
        return parts[0]
    return TensorPath([part.segments[0] for part in parts], stratum)


def connect_sym_rank_r(Da: SymRankDecomposition, Db: SymRankDecomposition,
                       tol: TolerancePolicy = DEFAULT_TOL,
                       rng: SplitMix64 | None = None) -> TensorPath:
    """Simultaneous term-curve sum between two witnessed decompositions.

    Even order requires matching signatures (DifferentComponents otherwise).
    Membership is not guaranteed by the formula, so the candidate is checked
    on the sample grid and repaired through fresh random same-signature
    midpoint decompositions.
    """
    if (Da.order, Da.field) != (Db.order, Db.field) or len(Da) != len(Db):
        raise ValueError("decompositions must share order, field and length")
    d, field, r = Da.order, Da.field, len(Da)
    n = Da.vectors[0].shape[0]
    even = field == REAL and d % 2 == 0
    if even:
        ia, ib = Da.signature(), Db.signature()
        if ia != ib:
            raise DifferentComponents(ComponentLabel("signature", ia),
                                      ComponentLabel("signature", ib))
    if r == 1:
        return connect_sym_rank_one(Da.tensor(), Db.tensor(), tol)
    if rng is None:
        rng = SplitMix64(0)
    stratum = StratumDescriptor("sym-rank", field, r, dim=n, order=d)
    signature = Da.signature() if even else None

    def segment(Pa: SymRankDecomposition, Pb: SymRankDecomposition):
        pairs = _match_sym_terms(_sym_canonical_terms(Pa),
                                 _sym_canonical_terms(Pb), d, field)
        terms = tuple(_sym_pair_track(ca, ua, cb, ub, d, field)
                      for ca, ua, cb, ub in pairs)
        return TermSumCurve("sym-term-sum", field, terms, order=d)

    return _term_sum_path(
        segment,
        lambda: sample_sym_rank_r(n, d, r, signature=signature, field=field,
                                  rng=rng, tol=tol)[1],
        Da, Db, stratum, tol)


# ---------------------------------------------------------------------------
# rank-two connectivity (via the decomposition witness)


def _term_tracks(term_a: RankOneFactors, term_b: RankOneFactors,
                 field: str) -> tuple:
    """Per-mode tracks for one matched rank-one term pair, scalars folded
    into the vectors (magnitude spread evenly, sign/phase on mode 1)."""
    d = len(term_a.factors)

    def spread(term: RankOneFactors) -> list[np.ndarray]:
        mag = abs(term.scalar) ** (1.0 / d)
        out = [mag * f for f in term.factors]
        if field == REAL:
            out[0] = out[0] * (1.0 if term.scalar >= 0 else -1.0)
        else:
            out[0] = out[0] * cmath.exp(1j * cmath.phase(complex(term.scalar)))
        return out

    va, vb = spread(term_a), spread(term_b)
    if field == REAL:
        flips = []
        inners = []
        for m in range(d):
            inner = float(np.dot(va[m], vb[m])) / max(
                np.linalg.norm(va[m]) * np.linalg.norm(vb[m]), 1e-300)
            inners.append(inner)
            if inner < 0:
                vb[m] = -vb[m]
                flips.append(m)
        if len(flips) % 2 == 1:
            # undo the least aligned flip to keep the term tensor unchanged
            m = min(flips, key=lambda k: abs(inners[k]))
            vb[m] = -vb[m]
    else:
        drift = 0.0
        for m in range(d):
            inner = complex(np.vdot(va[m], vb[m]))
            if abs(inner) > 1e-12:
                phi = -cmath.phase(inner)
                vb[m] = vb[m] * cmath.exp(1j * phi)
                drift += phi
        correction = cmath.exp(-1j * drift / d)
        for m in range(d):
            vb[m] = vb[m] * correction
    return tuple(_lerp_or_detour(x, y) for x, y in zip(va, vb))


def connect_rank_r(A: Hypermatrix, B: Hypermatrix, r: int,
                   tol: TolerancePolicy = DEFAULT_TOL,
                   rng: SplitMix64 | None = None) -> TensorPath:
    """Term-matched curves for rank one and rank two.

    Rank two recovers witnesses through the slice-pencil decomposition; no
    witnessed connector exists above rank two, so those inputs are refused
    rather than guessed. (Rank three on real (2, 2, 2) is border rank three;
    ``connect`` routes it to connect_brank3_222.)
    """
    if r == 1:
        return connect_rank_one(A, B, tol)
    if r != 2:
        raise UnsupportedStratumError(
            f"no path construction is available for rank {r} on shape {A.shape}")
    if A.shape != B.shape or A.field != B.field:
        raise ValueError("endpoints must share shape and field")
    if rng is None:
        rng = SplitMix64(0)
    field = A.field
    stratum = StratumDescriptor("rank", field, 2, shape=A.shape)

    def build(terms_a, terms_b) -> TermSumCurve:
        pairings = [(0, 1), (1, 0)]
        best, best_score = None, -np.inf
        for p in pairings:
            score = 0.0
            for k in range(2):
                tb = terms_b[p[k]]
                score += sum(abs(complex(np.vdot(fa, fb)))
                             for fa, fb in zip(terms_a[k].factors, tb.factors))
            if score > best_score:
                best, best_score = p, score
        terms = tuple((const(1.0),
                       _term_tracks(terms_a[k], terms_b[best[k]], field))
                      for k in range(2))
        return TermSumCurve("term-sum", field, terms)

    # both ends decomposed in one stacked call; A's refusal comes first
    terms_a, terms_b = (list(settled(terms)) for terms in
                        rank2_decompositions(np.stack((A.data, B.data)), tol))
    return _term_sum_path(
        build, lambda: sample_rank_r(A.shape, 2, field, rng, tol)[1],
        terms_a, terms_b, stratum, tol)


# ---------------------------------------------------------------------------
# multilinear-rank connectivity


def _core_in_grid(stratum: StratumDescriptor, kept, tol: TolerancePolicy):
    """Acceptance of a TuckerCurve under fixed frames: every core of its
    sample grid is a member of the core's own ``stratum`` with every margin
    at least gap_min, and ``kept``, given the stack of cores, passes each
    (None passes all)."""
    grid = [0.0, 1.0] + chebyshev_grid(PATH_SAMPLES)

    def accept(seg) -> bool:
        cores = seg.cores(grid)
        held = kept(cores) if kept else [True] * len(grid)
        return all(ok and h for ok, h in zip(
            kinds.clear_members(stratum, cores, tol.gap_min, tol), held))
    return accept


def connect_mrank(A: Hypermatrix, B: Hypermatrix, ranks: tuple[int, ...],
                  tol: TolerancePolicy = DEFAULT_TOL,
                  rng: SplitMix64 | None = None) -> TensorPath:
    """Frame geodesics plus in-fiber core interpolation.

    Stages: one orientation flip loop at A when the square-mode determinant
    signs of A's core and B's transported core disagree; then a core
    interpolation inside A's fiber to B's transported core; then frame
    transport along per-mode geodesics.

    One loop always suffices. A core's square flattenings are one matrix
    and its transpose, or all the same scalar (two square modes force every
    other rank to 1, three force all ranks to 1), so their signs agree, and
    a loop at mode m negates every one of them or none (flip_exponent has
    the same parity for every square mode). The loop goes at the first mode
    with ambient room whose flip exponent is odd. Without one, which is
    where classifiers.mrank_sign_mode gives a mode, the sign is an
    invariant and the endpoints get DifferentComponents with the record's
    two labels.
    """
    if A.shape != B.shape or A.field != B.field:
        raise ValueError("endpoints must share shape and field")
    field = A.field
    ranks = tuple(int(r) for r in ranks)
    stratum = StratumDescriptor("mrank", field, ranks, shape=A.shape)
    data = np.stack([A.data, B.data])
    ends = kinds.kind_of(stratum).judge(stratum, data, tol)
    if not ends.ok.all():
        raise ToleranceError(
            f"endpoints do not both have multilinear rank {ranks}")
    if rng is None:
        rng = SplitMix64(0)
    core_stratum = StratumDescriptor("mrank", field, ranks, shape=ranks)
    # both endpoints compressed at once, on the ranks the judge just read
    frames, cores, errors = tucker_stack(data, ranks, ends.ranks, tol)
    for error in errors:
        settled(error)
    points = [[GrassmannPoint(F[k], field) for F in frames] for k in (0, 1)]
    geos = tuple(GrassmannGeodesic(pa, pb) for pa, pb in zip(*points))
    core, core_b = np.ascontiguousarray(cores)
    target_core = mode_multiply(core_b, [g.twist.conj().T for g in geos])
    frames_a = tuple(fixed_frame(p.frame) for p in points[0])
    total = math.prod(ranks)
    square_modes = [i for i, r in enumerate(ranks) if r * r == total]
    signed = field == REAL and bool(square_modes)
    now, want = (flattening_det_signs(np.stack([core, target_core]),
                                      [i + 1 for i in square_modes]) if signed
                 else ((), ()))
    segments: list = []

    if now != want:
        if mrank_sign_mode(stratum) is not None:
            raise DifferentComponents(
                *(settled(label) for label in kinds.kind_of(stratum).labels(
                    stratum, data, [None] * 2, tol)),
                detail="square flattening determinant signs differ")
        m = next(m for m in range(A.order) if A.shape[m] > ranks[m]
                 and flip_exponent(ranks, square_modes[0], m) % 2)
        loop = OrientationLoop(points[0][m])
        frames = list(frames_a)
        frames[m] = moving_frame("loop", loop)
        segments.append(TuckerCurve("flip-loop", field, const(core.copy()),
                                    tuple(frames)))
        core = mode_multiply(core, [loop.holonomy if j == m else None
                                    for j in range(A.order)])

    def segment(core0, core1) -> TuckerCurve:
        if signed:
            track = gl_core_track(core0, core1, ranks, square_modes[0])
            return TuckerCurve("core-transform", field, track, frames_a)
        return TuckerCurve("core-lerp", field, lerp(core0, core1), frames_a)

    def same_signs(cores) -> list[bool]:
        return [s == want for s in
                flattening_det_signs(cores, [i + 1 for i in square_modes])]

    segments.extend(_detour_route(
        segment, _core_in_grid(core_stratum, same_signs if signed else None, tol),
        lambda: sample_full_core(ranks, field, square_modes, want, rng, tol),
        core, target_core, _DETOUR_DEPTH))
    segments.append(TuckerCurve("frame-transport", field, const(target_core),
                                tuple(moving_frame("geodesic", g) for g in geos)))
    return TensorPath(segments, stratum)


# ---------------------------------------------------------------------------
# symmetric multilinear-rank connectivity


def connect_sym_mrank(Sa: SymTensor, Sb: SymTensor, r: int,
                      tol: TolerancePolicy = DEFAULT_TOL,
                      rng: SplitMix64 | None = None) -> TensorPath:
    """Shared-frame geodesic plus symmetric core interpolation.

    r = 1 delegates to the rank-one construction (sign components for even
    order); order 2 compares eigenvalue signatures first and returns
    DifferentComponents on a mismatch; higher orders with r >= 2 have no
    obstruction and always connect. Both endpoints must be members, as the
    stratum's record judges them (ToleranceError otherwise).
    """
    if (Sa.dim, Sa.order, Sa.field) != (Sb.dim, Sb.order, Sb.field):
        raise ValueError("endpoints must share dimension, order and field")
    d, field = Sa.order, Sa.field
    stratum = StratumDescriptor("sym-mrank", field, r, dim=Sa.dim, order=d)
    if r == 1:
        return TensorPath(connect_sym_rank_one(Sa, Sb, tol).segments, stratum)
    if rng is None:
        rng = SplitMix64(0)
    packed = np.stack([Sa.packed, Sb.packed])
    ends = kinds.kind_of(stratum).judge(stratum, packed, tol)
    if not ends.ok.all():
        raise ToleranceError(
            f"endpoints do not both have symmetric multilinear rank {r}")
    # both endpoints compressed at once, on the ranks the judge just read
    frames, cores = sym_tucker_stack(packed, Sa.dim, d, r,
                                     ends.ranks[:, 0].tolist(), tol)
    frame_a, frame_b = (GrassmannPoint(F, field) for F in frames)
    core_a, core_b = (SymTensor(r, d, field, core) for core in cores)
    signature = None
    if field == REAL and d == 2:
        label_a, label_b = (settled(label) for label in sym_matrix_signatures(
            cores, r, r, tol))
        if label_a != label_b:
            raise DifferentComponents(label_a, label_b)
        signature = label_a.value
    geo = GrassmannGeodesic(frame_a, frame_b)
    twisted = mode_multiply(sym_embed(core_b).data, [geo.twist.conj().T] * d)
    target = sym_extract(Hypermatrix(twisted, field), LOOSE_TOL)
    frame = fixed_frame(frame_a.frame)
    core_stratum = StratumDescriptor("sym-mrank", field, r, dim=r, order=d)

    def segment(core0, core1) -> TuckerCurve:
        if signature is not None:
            # eigenvalue lerp in a shared rotating eigenbasis keeps the
            # signature exactly; a straight lerp does not
            return TuckerCurve("sym-eigen-core", field,
                               eigen_core_track(core0, core1), frame)
        return TuckerCurve("sym-core-lerp", field, lerp(core0, core1), frame)

    def same_signature(cores) -> list[bool]:
        return [label == label_a
                for label in sym_matrix_signatures(cores, r, r, tol)]

    segments = _detour_route(
        segment, _core_in_grid(core_stratum,
                               None if signature is None else same_signature, tol),
        lambda: sample_sym_core(r, d, field, signature, rng, tol),
        core_a, target, _DETOUR_DEPTH)
    segments.append(TuckerCurve("sym-frame-transport", field, const(target),
                                moving_frame("geodesic", geo)))
    return TensorPath(segments, stratum)


# ---------------------------------------------------------------------------
# border rank three on (2, 2, 2)


def connect_brank3_222(A: Hypermatrix, B: Hypermatrix,
                       tol: TolerancePolicy = DEFAULT_TOL,
                       witness_a: tuple[ComponentLabel, RankOneFactors] | None = None,
                       witness_b: tuple[ComponentLabel, RankOneFactors] | None = None
                       ) -> TensorPath:
    """Exact in-stratum path through conjugate-pair factor matrices: one
    ConjPairSegment, whose docstring gives the closed form, the margin
    identity and the short-arc rule it follows.

    Requires equal sign-triple labels (DifferentComponents otherwise). Each
    mode's [Re | Im] factor matrix keeps its determinant sign, so the
    hyperdeterminant stays negative at every t; the short-arc rule, which is
    measured and not proved, keeps it clear of the boundary band, and a
    residual dip fails path_verify, never a label. An endpoint's witness,
    when given, is its label and conjugate-pair term from
    classifiers.brank3_labelled_terms; the ends handed none are labelled and
    decomposed here in one such call, and A's refusal comes first.
    """
    bare = [X.data for X, w in ((A, witness_a), (B, witness_b)) if w is None]
    found = iter(brank3_labelled_terms(np.stack(bare), tol) if bare else ())
    (la, ta), (lb, tb) = (settled(next(found)) if w is None else w
                          for w in (witness_a, witness_b))
    if la != lb:
        raise DifferentComponents(la, lb)

    def factor_mats(T):
        vecs = [T.scalar * T.factors[0], T.factors[1], T.factors[2]]
        return tuple(np.column_stack([np.real(x), np.imag(x)]) for x in vecs)

    seg = ConjPairSegment(factor_mats(ta), factor_mats(tb))
    stratum = StratumDescriptor("brank", REAL, 3, shape=(2, 2, 2))
    return TensorPath([seg], stratum)


# ---------------------------------------------------------------------------
# dispatch, verification, reporting


def connect(stratum: StratumDescriptor, a, b, *, witness_a=None,
            witness_b=None, tol: TolerancePolicy = DEFAULT_TOL,
            rng: SplitMix64 | None = None) -> TensorPath:
    """Route to the constructor of the stratum's record (see kinds.py);
    witnesses are decomposition objects where the construction needs them.

    Raises ToleranceError when the path does not start at ``a`` and end at
    ``b`` to within 1e-10 relative to each endpoint's norm, which a witness
    that does not rebuild its endpoint would give; otherwise records the
    larger relative miss as the path's ``endpoint_defect``. Both ends are
    read with one ``values([0.0, 1.0])`` call. Both ends must have the
    stratum's form (StratumDescriptor.check; ValueError otherwise).
    """
    stratum.check(a)
    stratum.check(b)
    path = kinds.kind_of(stratum).connect(stratum, a, b, witness_a, witness_b,
                                          tol, rng)
    misses = []
    for t, row, end in zip((0.0, 1.0), path.values([0.0, 1.0]), (a, b)):
        misses.append(value_diff_norm(path.stratum.value(row), end)
                      / max(end.norm(), 1e-300))
        if not misses[-1] <= _ENDPOINT_TOL:
            raise ToleranceError(
                f"path misses its endpoint at t={t:g} by {misses[-1]:.3e} "
                "relative to its norm")
    path.endpoint_defect = max(misses)
    return path


@dataclass(slots=True)
class SampleCheck:
    t: float
    ok: bool
    ranks: tuple
    margin: float
    label: str | None
    note: str = ""


@dataclass
class PathReport:
    stratum: str
    passed: bool
    samples: list
    min_margin: float
    joint_defect: float
    exact_certificate: bool
    label: str | None

    def to_json(self) -> dict:
        return {"stratum": self.stratum, "passed": self.passed,
                "min_margin": self.min_margin,
                "joint_defect": self.joint_defect,
                "exact_certificate": self.exact_certificate,
                "label": self.label,
                "samples": [{"t": s.t, "ok": s.ok, "mrank": list(s.ranks),
                             "min_margin": s.margin, "label": s.label,
                             "note": s.note} for s in self.samples]}

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["t", "ok", "mrank", "min_margin", "label"]
        rows = [[s.t, int(s.ok), " ".join(str(r) for r in s.ranks), s.margin,
                 s.label if s.label is not None else ""]
                for s in self.samples]
        return header, rows


def verify_paths(paths: list, K: int | None = None,
                 tol: TolerancePolicy = DEFAULT_TOL) -> list[PathReport]:
    """path_verify for every path of a list, one report per path. The
    grids of all paths that hold no report for this K and tol are
    concatenated and certified with one call of their stratum's record,
    and each path keeps its report. K below 1 raises ValueError."""
    if K is None:
        K = PATH_SAMPLES
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    grid = [0.0, 1.0] + chebyshev_grid(K)
    todo = {id(path): path for path in paths
            if path._verified is None or path._verified[:2] != (K, tol)}
    groups: dict = {}
    for path in todo.values():
        ts = sorted(set(grid + path.joints()))
        part = path.values(ts)
        groups.setdefault((path.stratum, part.dtype.str), []).append((path, ts, part))
    for (stratum, _dtype), group in groups.items():
        stack = np.concatenate([part for _path, _ts, part in group])
        group[:] = [(path, ts) for path, ts, _part in group]
        parts = [path.witnesses(ts) for path, ts in group]
        witnesses = (np.concatenate(parts) if all(
            isinstance(part, np.ndarray) for part in parts)
            else [w for part in parts for w in part])
        try:
            verdicts, labels = kinds.kind_of(stratum).certify(
                stratum, stack, witnesses, tol)
        except UnsupportedStratumError as exc:
            verdicts, labels = exc, None
        start = 0
        for path, ts in group:
            rows = slice(start, start + len(ts))
            start = rows.stop
            path._verified = (K, tol, _path_report(
                path, ts, stack[rows], verdicts,
                None if labels is None else labels[rows], rows))
    return [path._verified[2] for path in paths]


def _path_report(path: TensorPath, ts: list, stack: np.ndarray, verdicts,
                 labels: list | None, rows: slice) -> PathReport:
    """The report on one path of a verify_paths call, its samples being
    ``rows`` of the call's verdicts and labels (the stratum's refusal, when
    its record refused it)."""
    if isinstance(verdicts, Exception):
        samples = [SampleCheck(t, False, (), 0.0, None, str(verdicts)) for t in ts]
    else:
        read = verdicts.read[rows]
        margins = np.where(read, verdicts.margins[rows].min(axis=1), 0.0)
        samples = [SampleCheck(t, ok, tuple(ranks) if good else (), margin,
                               None if label is None else str(label), note)
                   for t, ok, good, ranks, margin, label, note in zip(
                       ts, verdicts.ok[rows].tolist(), read.tolist(),
                       verdicts.ranks[rows].tolist(), margins.tolist(), labels,
                       verdicts.notes[rows])]
    passed = all(s.ok for s in samples)
    exact = all(s.note != "unverifiable-exactly" for s in samples)
    names = {s.label for s in samples if s.label is not None}
    if len(names) > 1:
        passed = False
    # t = 0 and t = 1
    value = path.stratum.value
    scale = max(value(stack[0]).norm(), value(stack[-1]).norm(), 1e-300)
    joint_defect = 0.0
    n = len(path.segments)
    for k in range(1, n):
        left = value(path.segments[k - 1].values([1.0])[0])
        right = value(path.segments[k].values([0.0])[0])
        joint_defect = max(joint_defect, value_diff_norm(left, right) / scale)
    if joint_defect > 1e-10:
        passed = False
    min_margin = min((s.margin for s in samples), default=0.0)
    label = names.pop() if len(names) == 1 else None
    return PathReport(format_stratum(path.stratum), passed, samples,
                      float(min_margin), float(joint_defect), exact, label)


def path_verify(path: TensorPath, K: int | None = None,
                tol: TolerancePolicy = DEFAULT_TOL) -> PathReport:
    """Evaluate on a Chebyshev grid plus endpoints and joints and certify
    the whole grid for the target stratum in one call of its record, which
    reads every sample's flattening ranks and applies the membership rule
    (see kinds.py); check joint continuity and classifier constancy.
    Failures become report content, never exceptions. A path that holds a
    report for this K and tol, as connect's one-segment term-sum paths do,
    gets that report back. K below 1 raises ValueError. The one-path case
    of verify_paths."""
    return verify_paths([path], K, tol)[0]


# The kind records are built from the connectors above, so they come last.
from . import kinds  # noqa: E402
