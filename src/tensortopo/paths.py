"""Explicit continuous in-stratum paths between same-stratum tensors.

A TensorPath is a chain of segments over equal sub-intervals of [0, 1].
Segments come in three families, one per construction: term-sum curves
through decompositions (rank and symmetric rank), Tucker curves moving a
core and its frames (multilinear rank), and the conjugate pair (border rank
three on 2x2x2).

Rank-one and conjugate-pair constructions are in-stratum pointwise by
construction; core interpolations are verified on a sample grid and repaired
by recursive random-midpoint detours (each retry dodges a measure-zero bad
set, depth is capped at 8).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .certify import brank3_conj_pair, is_rank_one, rank2_decompose
from .classifiers import (ComponentLabel, classify_brank3_222, det_sign_mrank,
                          sign_label, square_mode, mrank_saturation)
from .core import (COMPLEX, DEFAULT_TOL, Hypermatrix, RankOneFactors, REAL,
                   SymRankDecomposition, SymTensor, TolerancePolicy,
                   mode_multiply, mrank, numerical_rank, outer_product,
                   sym_embed, sym_extract, sym_packed_length, sym_power)
from .errors import (DegenerateError, DifferentComponents, RetryExhausted,
                     ToleranceError, UnsupportedStratumError)
from .geometry import (GrassmannGeodesic, OrientationLoop, gl_interpolator,
                       orthogonal_interpolator, sym_tucker_compress,
                       tucker_compress)
from .io import array_to_json, scalar_to_json
from .rng import SplitMix64
from .sampling import (expected_generic_mrank, random_orthogonal,
                       sample_rank_r, sample_sym_rank_r)
from .stratum import StratumDescriptor, format_stratum

_LOOSE = TolerancePolicy(eps_rel=1e-8)
_SAME = 1e-13          # below this, two unit vectors count as the same point
_ANTIPODAL = 1e-9      # |<a,b> + 1| below this forces a detour


def _lerp(a, b, s: float):
    return (1.0 - s) * a + s * b


def _track_eval(track: tuple, s: float):
    """Point at s of a vector or scalar track: constant, straight, a two-leg
    detour through a via point, or a phase rotation c * exp(i angle s)."""
    tag = track[0]
    if tag == "const":
        return track[1]
    if tag == "lerp":
        return _lerp(track[1], track[2], s)
    if tag == "detour":
        a, w, b = track[1], track[2], track[3]
        return _lerp(a, w, 2.0 * s) if s < 0.5 else _lerp(w, b, 2.0 * s - 1.0)
    if tag == "phase":
        return track[1] * cmath.exp(1j * _lerp(0.0, track[2], s))
    raise ValueError(f"unknown track {tag!r}")


def _track_json(x, field: str):
    """Tracks as JSON lists [tag, point, ...]; a frame curve becomes its end
    frames, and interpolator closures, fixed by their end points, are left
    out."""
    if x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, tuple):
        return [_track_json(v, field) for v in x if not callable(v)]
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


class TermSumCurve:
    """Sum of rank-one term curves: the segment family of rank and
    symmetric-rank paths.

    A dense term is (scalar track, per-mode vector tracks) and traces
    c(s) f_1(s) (x) ... (x) f_d(s); a rank-one segment is a one-term sum.
    With ``order`` set the curve is symmetric: a term is (sign, vector track)
    and traces sign * w(s)^(x order).
    """

    def __init__(self, kind: str, field: str, terms: tuple,
                 order: int | None = None):
        self.kind = kind
        self.field = field
        self.terms = terms
        self.order = order

    def value(self, s: float):
        if self.order is None:
            total = None
            for scalar, tracks in self.terms:
                factors = tuple(_track_eval(tr, s) for tr in tracks)
                part = outer_product(RankOneFactors(
                    _track_eval(scalar, s), factors, self.field)).data
                total = part if total is None else total + part
            return Hypermatrix(total, self.field)
        packed = None
        for sign, track in self.terms:
            part = sym_power(_track_eval(track, s), self.order, sign, self.field)
            packed = part.packed if packed is None else packed + part.packed
        return SymTensor(part.dim, self.order, self.field, packed)

    def witness(self, s: float) -> SymRankDecomposition | None:
        """The symmetric sum at s as a decomposition, whose coefficient
        signs give the signature; None for a dense sum."""
        if self.order is None:
            return None
        ws = [_track_eval(track, s) for _sign, track in self.terms]
        norms = [float(np.linalg.norm(w)) for w in ws]
        return SymRankDecomposition(
            self.order, tuple(sign * nw ** self.order
                              for (sign, _track), nw in zip(self.terms, norms)),
            tuple(w / nw for w, nw in zip(ws, norms)), self.field)

    def to_json(self) -> dict:
        return {"kind": self.kind, "order": self.order,
                "terms": _track_json(self.terms, self.field)}


def _unflatten_core(M: np.ndarray, ranks: tuple, mode: int) -> np.ndarray:
    rest = tuple(r for k, r in enumerate(ranks) if k != mode)
    return np.moveaxis(M.reshape((ranks[mode],) + rest), 0, mode)


def gl_core_track(core0: np.ndarray, core1: np.ndarray, ranks: tuple,
                  mode: int) -> tuple:
    """Core track whose mode flattening follows an SVD interpolation.

    The flattening stays invertible with constant determinant sign by
    construction, which a straight core interpolation cannot promise.
    """
    n = core0.shape[mode]
    interp = gl_interpolator(np.moveaxis(core0, mode, 0).reshape(n, -1),
                             np.moveaxis(core1, mode, 0).reshape(n, -1))
    return ("gl", core0, core1, interp, tuple(ranks), mode)


def eigen_core_track(core0: SymTensor, core1: SymTensor) -> tuple:
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
    return ("eigen", core0, core1, lam0, lam1, orthogonal_interpolator(Q0, Q1))


def _core_eval(track: tuple, s: float):
    tag = track[0]
    if tag == "const":
        return track[1]
    core0, core1 = track[1], track[2]
    if tag == "lerp":
        if isinstance(core0, SymTensor):
            return SymTensor(core0.dim, core0.order, core0.field,
                             _lerp(core0.packed, core1.packed, s))
        return _lerp(core0, core1, s)
    if tag == "gl":
        interp, ranks, mode = track[3:]
        return _unflatten_core(interp(s), ranks, mode)
    if tag == "eigen":
        lam0, lam1, q = track[3:]
        lam = _lerp(lam0, lam1, s)
        Q = q(s)
        M = (Q * lam) @ Q.T
        return sym_extract(Hypermatrix(M, core0.field), _LOOSE)
    raise ValueError(f"unknown core track {tag!r}")


def _frame_eval(track: tuple | None, s: float):
    if track is None:
        return None
    return track[1] if track[0] == "fixed" else track[1].frame(s)


class TuckerCurve:
    """A core track carried by per-mode frame tracks: the segment family of
    multilinear-rank paths, A(s) = C(s) x_1 F_1(s) ... x_d F_d(s).

    Core tracks: ("const", C), ("lerp", C0, C1), ``gl_core_track`` and
    ``eigen_core_track``. Frame tracks: None (identity), ("fixed", F),
    ("geodesic", GrassmannGeodesic) or ("loop", OrientationLoop). A symmetric
    core (a SymTensor) takes one frame track, shared by every mode.
    """

    def __init__(self, kind: str, field: str, core: tuple, frames):
        self.kind = kind
        self.field = field
        self.core_track = core
        self.frames = frames

    def core(self, s: float):
        return _core_eval(self.core_track, s)

    def value(self, s: float):
        core = self.core(s)
        if not isinstance(core, SymTensor):
            mats = [_frame_eval(tr, s) for tr in self.frames]
            return Hypermatrix(mode_multiply(core, mats), self.field)
        if self.frames is None:
            return core
        F = _frame_eval(self.frames, s)
        full = mode_multiply(sym_embed(core).data, [F] * core.order)
        return sym_extract(Hypermatrix(full, core.field), _LOOSE)

    def witness(self, s: float):
        return None

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "core": _track_json(self.core_track, self.field),
                "frames": _track_json(self.frames, self.field)}


class ConjPairSegment:
    """A(t) = T(t) + conj(T(t)) with T = x(t) (x) y(t) (x) z(t).

    Each complex mode factor is encoded as the invertible real matrix
    [Re | Im]; the matrices move along determinant-sign-preserving SVD
    interpolations, so every sample has all three orientation areas nonzero
    and the tensor stays in the negative-hyperdeterminant stratum exactly.
    """

    def __init__(self, interpolators: tuple, mats0: tuple, mats1: tuple):
        self.kind = "conj-pair"
        self.interpolators = interpolators
        self.mats0 = mats0
        self.mats1 = mats1

    def _factors(self, s: float) -> list[np.ndarray]:
        out = []
        for interp in self.interpolators:
            M = interp(s)
            out.append(M[:, 0] + 1j * M[:, 1])
        return out

    def value(self, s: float) -> Hypermatrix:
        x, y, z = self._factors(s)
        T = np.multiply.outer(np.multiply.outer(x, y), z)
        return Hypermatrix(2.0 * np.real(T), REAL)

    def witness(self, s: float):
        return None

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

    def _locate(self, t: float) -> tuple[int, float]:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"path parameter {t} outside [0, 1]")
        n = len(self.segments)
        u = t * n
        k = min(int(u), n - 1)
        return k, u - k

    def eval(self, t: float):
        k, s = self._locate(t)
        return self.segments[k].value(s)

    def witness(self, t: float):
        k, s = self._locate(t)
        return self.segments[k].witness(s)

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
        return [("const", f) for f in factors]

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
            tracks[m] = ("detour", a, _detour_via(a), b)
            kind = "detour-arc"
        else:
            tracks[m] = ("lerp", a, b)
            kind = "factor-lerp"
        add(kind, ("const", wa.scalar), tracks)
        factors[m] = b

    lam, mu = wa.scalar, wb.scalar
    if field == REAL:
        if lam * mu < 0:
            tracks = const_tracks()
            a = factors[0]
            tracks[0] = ("detour", a, _detour_via(a), -a)
            add("detour-arc", ("const", lam), tracks)
            factors[0] = -a
            mu = -mu
        if abs(lam - mu) > _SAME * max(abs(lam), abs(mu), 1.0):
            add("scalar-scale", ("lerp", lam, mu), const_tracks())
    else:
        angle = cmath.phase(mu / lam)
        if abs(angle) > _SAME:
            add("complex-phase", ("phase", lam, angle), const_tracks())
            lam = lam * cmath.exp(1j * angle)
        if abs(lam - mu) > _SAME * max(abs(lam), abs(mu), 1.0):
            add("scalar-scale", ("lerp", lam, mu), const_tracks())
    if not segments:
        add("scalar-scale", ("const", lam), const_tracks())
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
    if field == REAL and d % 2 == 0:
        sign = 1.0 if lam > 0 else -1.0
        if float(np.dot(u, v)) < 0:
            v = -v
        a = abs(lam) ** (1.0 / d) * u
        b = abs(mu) ** (1.0 / d) * v
        return sign, _plain_or_detour(a, b)
    a = _root(lam, d, field) * u
    b = _root(mu, d, field) * v
    return 1.0, _plain_or_detour(a, b)


def _plain_or_detour(a: np.ndarray, b: np.ndarray) -> tuple:
    if np.linalg.norm(a - b) <= _SAME * max(np.linalg.norm(a), 1.0):
        return ("const", a)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    inner = np.vdot(a / na, b / nb)
    if abs(inner + 1.0) <= _ANTIPODAL:
        w = _detour_via(a / na) * (na + nb) / 2.0
        return ("detour", a, w, b)
    return ("lerp", a, b)


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
    kind = "detour-arc" if track[0] == "detour" else "factor-lerp"
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


def _stratum_in_grid(path: TensorPath, expected: tuple, tol: TolerancePolicy) -> bool:
    """Internal acceptance: exact mrank pattern with margins >= gap_min."""
    ts = sorted(set([0.0, 1.0] + chebyshev_grid(tol.path_samples_default)
                    + path.joints()))
    for t in ts:
        value = path.eval(t)
        A = sym_embed(value) if isinstance(value, SymTensor) else value
        try:
            mr = mrank(A, tol)
        except ToleranceError:
            return False
        if tuple(mr.ranks) != expected or min(mr.margins) < tol.gap_min:
            return False
    return True


def _detour_route(segment, accept, draw_mid, x0, x1, budget: int) -> list:
    """Segments from x0 to x1: ``segment(x0, x1)`` if ``accept`` passes it
    on the sample grid, else the routes through a random midpoint from
    ``draw_mid()``, at most ``budget`` levels deep."""
    seg = segment(x0, x1)
    if accept(seg):
        return [seg]
    if budget <= 0:
        raise RetryExhausted(
            "path construction failed after exhausting random midpoint detours")
    mid = draw_mid()
    return (_detour_route(segment, accept, draw_mid, x0, mid, budget - 1)
            + _detour_route(segment, accept, draw_mid, mid, x1, budget - 1))


def connect_sym_rank_r(Da: SymRankDecomposition, Db: SymRankDecomposition,
                       tol: TolerancePolicy = DEFAULT_TOL,
                       rng: SplitMix64 | None = None,
                       depth: int = 8) -> TensorPath:
    """Simultaneous term-curve sum between two witnessed decompositions.

    Even order requires matching signatures (DifferentComponents otherwise).
    Membership is not guaranteed by the formula, so the candidate is checked
    on the sample grid and repaired through fresh random same-signature
    midpoint decompositions, recursion depth at most ``depth``.
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
    expected = (min(r, n),) * d
    signature = Da.signature() if even else None

    def segment(Pa: SymRankDecomposition, Pb: SymRankDecomposition):
        pairs = _match_sym_terms(_sym_canonical_terms(Pa),
                                 _sym_canonical_terms(Pb), d, field)
        terms = tuple(_sym_pair_track(ca, ua, cb, ub, d, field)
                      for ca, ua, cb, ub in pairs)
        return TermSumCurve("sym-term-sum", field, terms, order=d)

    return TensorPath(_detour_route(
        segment,
        lambda seg: _stratum_in_grid(TensorPath([seg], stratum), expected, tol),
        lambda: sample_sym_rank_r(n, d, r, signature=signature, field=field,
                                  rng=rng, tol=tol)[1],
        Da, Db, depth), stratum)


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
    tracks = []
    for m in range(d):
        na = np.linalg.norm(va[m])
        nb = np.linalg.norm(vb[m])
        inner = np.vdot(va[m] / na, vb[m] / nb)
        if abs(inner + 1.0) <= _ANTIPODAL:
            w = _detour_via(va[m] / na) * (na + nb) / 2.0
            tracks.append(("detour", va[m], w, vb[m]))
        else:
            tracks.append(("lerp", va[m], vb[m]))
    return tuple(tracks)


def connect_rank_r(A: Hypermatrix, B: Hypermatrix, r: int,
                   tol: TolerancePolicy = DEFAULT_TOL,
                   rng: SplitMix64 | None = None, depth: int = 8) -> TensorPath:
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
    expected = expected_generic_mrank(A.shape, 2)

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
        terms = tuple((("const", 1.0),
                       _term_tracks(terms_a[k], terms_b[best[k]], field))
                      for k in range(2))
        return TermSumCurve("term-sum", field, terms)

    terms_a = list(rank2_decompose(A, tol))
    terms_b = list(rank2_decompose(B, tol))
    return TensorPath(_detour_route(
        build,
        lambda seg: _stratum_in_grid(TensorPath([seg], stratum), expected, tol),
        lambda: sample_rank_r(A.shape, 2, field, rng, tol)[1],
        terms_a, terms_b, depth), stratum)


# ---------------------------------------------------------------------------
# multilinear-rank connectivity


def _core_det_signs(core: np.ndarray, square_modes: list[int]) -> tuple:
    signs = []
    for i in square_modes:
        M = np.moveaxis(core, i, 0).reshape(core.shape[i], -1)
        sign, _ = np.linalg.slogdet(M)
        signs.append(1 if sign > 0 else -1)
    return tuple(signs)


def _solve_gf2(effects: list[int], target: int) -> list[int] | None:
    """Indices of a subset of ``effects`` (bitmasks) xoring to ``target``."""
    basis: dict[int, tuple[int, int]] = {}  # high bit -> (mask, combo)

    def reduce(vec: int, combo: int):
        while vec:
            hb = vec.bit_length() - 1
            if hb not in basis:
                return vec, combo, hb
            bm, bc = basis[hb]
            vec ^= bm
            combo ^= bc
        return vec, combo, None

    for idx, e in enumerate(effects):
        vec, combo, hb = reduce(e, 1 << idx)
        if vec:
            basis[hb] = (vec, combo)
    vec, combo, _ = reduce(target, 0)
    if vec:
        return None
    return [k for k in range(len(effects)) if combo >> k & 1]


def _full_core_margin(core: np.ndarray, ranks: tuple,
                      tol: TolerancePolicy) -> float:
    worst = np.inf
    for i, r in enumerate(ranks):
        M = np.moveaxis(core, i, 0).reshape(r, -1)
        rank, margin = numerical_rank(M, tol)
        if rank != r:
            return 0.0
        worst = min(worst, margin)
    return float(worst)


def _random_full_core(ranks: tuple, field: str, square_modes: list[int],
                      want_signs: tuple, rng: SplitMix64,
                      tol: TolerancePolicy) -> np.ndarray:
    for _ in range(200):
        if field == COMPLEX:
            core = rng.complex_normals(ranks)
        else:
            core = rng.normals(ranks)
        if _full_core_margin(core, ranks, tol) < 1e-3:
            continue
        if field == REAL and square_modes:
            if _core_det_signs(core, square_modes) != want_signs:
                continue
        return core
    raise RetryExhausted("could not draw a usable full-rank core")


def _core_in_grid(in_fiber, tol: TolerancePolicy):
    """Acceptance of a TuckerCurve under fixed frames: ``in_fiber`` holds
    for its core on the sample grid."""
    grid = [0.0, 1.0] + chebyshev_grid(tol.path_samples_default)
    return lambda seg: all(in_fiber(seg.core(t)) for t in grid)


def connect_mrank(A: Hypermatrix, B: Hypermatrix,
                  ranks: tuple[int, ...] | None = None,
                  tol: TolerancePolicy = DEFAULT_TOL,
                  rng: SplitMix64 | None = None, depth: int = 8) -> TensorPath:
    """Frame geodesics plus in-fiber core interpolation.

    Stages: orientation flip loops at A when square-mode determinant signs
    disagree and ambient room allows a repair (parity bookkeeping over GF(2));
    then a core interpolation inside A's fiber to B's transported core; then
    frame transport along per-mode geodesics. Saturated square mismatches
    with no repairable mode return DifferentComponents (definitive only when
    every mode is saturated; the mixed case is flagged as conjectural).
    """
    if A.shape != B.shape or A.field != B.field:
        raise ValueError("endpoints must share shape and field")
    field = A.field
    ranks_a = tuple(mrank(A, tol).ranks)
    ranks_b = tuple(mrank(B, tol).ranks)
    if ranks is None:
        ranks = ranks_a
    ranks = tuple(int(r) for r in ranks)
    if ranks_a != ranks or ranks_b != ranks:
        raise ToleranceError(
            f"endpoints do not both have multilinear rank {ranks}")
    if rng is None:
        rng = SplitMix64(0)
    stratum = StratumDescriptor("mrank", field, ranks, shape=A.shape)
    repA = tucker_compress(A, ranks, tol)
    repB = tucker_compress(B, ranks, tol)
    geos = tuple(GrassmannGeodesic(repA.frames[i], repB.frames[i])
                 for i in range(A.order))
    target_core = mode_multiply(repB.core.data,
                                [g.twist.conj().T for g in geos])
    frames_a = tuple(("fixed", p.frame) for p in repA.frames)
    core = repA.core.data.copy()
    total = math.prod(ranks)
    square_modes = [i for i, r in enumerate(ranks) if r * r == total]
    segments: list = []

    if field == REAL and square_modes:
        s_now = _core_det_signs(core, square_modes)
        s_want = _core_det_signs(target_core, square_modes)
        need = 0
        for pos, (x, y) in enumerate(zip(s_now, s_want)):
            if x != y:
                need |= 1 << pos
        if need:
            loop_modes = [m for m in range(A.order) if A.shape[m] > ranks[m]]
            effects = []
            for m in loop_modes:
                mask = 0
                for pos, i in enumerate(square_modes):
                    if m == i:
                        exponent = 1
                    else:
                        exponent = math.prod(
                            r for k, r in enumerate(ranks) if k not in (i, m))
                    if exponent % 2 == 1:
                        mask |= 1 << pos
                effects.append(mask)
            chosen = _solve_gf2(effects, need)
            if chosen is None:
                if mrank_saturation(stratum) == "saturated-square":
                    mode = square_mode(stratum)
                    raise DifferentComponents(
                        det_sign_mrank(A, mode, tol),
                        det_sign_mrank(B, mode, tol),
                        detail="square flattening determinant signs differ")
                label_a = ComponentLabel("sign", "".join(
                    "+" if s > 0 else "-" for s in s_now))
                label_b = ComponentLabel("sign", "".join(
                    "+" if s > 0 else "-" for s in s_want))
                raise DifferentComponents(
                    label_a, label_b,
                    detail="square-mode core determinant signs cannot be "
                           "reconciled by orientation loops",
                    conjectural=True)
            for k in chosen:
                m = loop_modes[k]
                frames = list(frames_a)
                frames[m] = ("loop", OrientationLoop(repA.frames[m]))
                segments.append(TuckerCurve("flip-loop", field,
                                            ("const", core.copy()),
                                            tuple(frames)))
                h = np.eye(ranks[m])
                h[0, 0] = -1.0
                core = mode_multiply(core, [h if j == m else None
                                            for j in range(A.order)])

    signed = field == REAL and bool(square_modes)
    want = _core_det_signs(core, square_modes) if signed else ()

    def segment(core0, core1) -> TuckerCurve:
        if signed:
            track = gl_core_track(core0, core1, ranks, square_modes[0])
            return TuckerCurve("core-transform", field, track, frames_a)
        return TuckerCurve("core-lerp", field, ("lerp", core0, core1), frames_a)

    def in_fiber(core_t) -> bool:
        if _full_core_margin(core_t, ranks, tol) < tol.gap_min:
            return False
        return not signed or _core_det_signs(core_t, square_modes) == want

    segments.extend(_detour_route(
        segment, _core_in_grid(in_fiber, tol),
        lambda: _random_full_core(ranks, field, square_modes, want, rng, tol),
        core, target_core, depth))
    segments.append(TuckerCurve("frame-transport", field,
                                ("const", target_core),
                                tuple(("geodesic", g) for g in geos)))
    return TensorPath(segments, stratum)


# ---------------------------------------------------------------------------
# symmetric multilinear-rank connectivity


def _sym_matrix_core_signature(core: SymTensor, tol: TolerancePolicy) -> int:
    lam = np.linalg.eigvalsh(sym_embed(core).data)
    return int(np.sum(lam > 0))


def _random_sym_core(r: int, d: int, field: str, signature: int | None,
                     rng: SplitMix64, tol: TolerancePolicy) -> SymTensor:
    for _ in range(200):
        if signature is not None:
            Q = random_orthogonal(r, rng, field)
            lam = np.abs(rng.normals((r,))) + 0.1
            lam[signature:] *= -1.0
            M = (Q * lam) @ Q.T
            core = sym_extract(Hypermatrix(M, field), _LOOSE)
        else:
            length = sym_packed_length(r, d)
            packed = (rng.complex_normals((length,)) if field == COMPLEX
                      else rng.normals((length,)))
            core = SymTensor(r, d, field, packed)
        if _full_core_margin(sym_embed(core).data, (r,) * d, tol) >= 1e-3:
            return core
    raise RetryExhausted("could not draw a usable symmetric midpoint core")


def connect_sym_mrank(Sa: SymTensor, Sb: SymTensor, r: int,
                      tol: TolerancePolicy = DEFAULT_TOL,
                      rng: SplitMix64 | None = None,
                      depth: int = 8) -> TensorPath:
    """Shared-frame geodesic plus symmetric core interpolation.

    r = 1 delegates to the rank-one construction (sign components for even
    order); order 2 compares eigenvalue signatures first and returns
    DifferentComponents on a mismatch; higher orders with r >= 2 have no
    obstruction and always connect.
    """
    if (Sa.dim, Sa.order, Sa.field) != (Sb.dim, Sb.order, Sb.field):
        raise ValueError("endpoints must share dimension, order and field")
    if r == 1:
        path = connect_sym_rank_one(Sa, Sb, tol)
        path.stratum = StratumDescriptor("sym-mrank", Sa.field, 1,
                                         dim=Sa.dim, order=Sa.order)
        return path
    if rng is None:
        rng = SplitMix64(0)
    d, field = Sa.order, Sa.field
    frame_a, core_a = sym_tucker_compress(Sa, r, tol)
    frame_b, core_b = sym_tucker_compress(Sb, r, tol)
    signature = None
    if field == REAL and d == 2:
        sig_a = _sym_matrix_core_signature(core_a, tol)
        sig_b = _sym_matrix_core_signature(core_b, tol)
        if sig_a != sig_b:
            raise DifferentComponents(ComponentLabel("signature", sig_a),
                                      ComponentLabel("signature", sig_b))
        signature = sig_a
    geo = GrassmannGeodesic(frame_a, frame_b)
    twisted = mode_multiply(sym_embed(core_b).data, [geo.twist.conj().T] * d)
    target = sym_extract(Hypermatrix(twisted, field), _LOOSE)
    frame = ("fixed", frame_a.frame)

    def segment(core0, core1) -> TuckerCurve:
        if signature is not None:
            # eigenvalue lerp in a shared rotating eigenbasis keeps the
            # signature exactly; a straight lerp does not
            return TuckerCurve("sym-eigen-core", field,
                               eigen_core_track(core0, core1), frame)
        return TuckerCurve("sym-core-lerp", field, ("lerp", core0, core1), frame)

    def in_fiber(core_t) -> bool:
        if _full_core_margin(sym_embed(core_t).data, (r,) * d, tol) < tol.gap_min:
            return False
        return (signature is None
                or _sym_matrix_core_signature(core_t, tol) == signature)

    segments = _detour_route(
        segment, _core_in_grid(in_fiber, tol),
        lambda: _random_sym_core(r, d, field, signature, rng, tol),
        core_a, target, depth)
    segments.append(TuckerCurve("sym-frame-transport", field,
                                ("const", target), ("geodesic", geo)))
    stratum = StratumDescriptor("sym-mrank", field, r, dim=Sa.dim, order=d)
    return TensorPath(segments, stratum)


# ---------------------------------------------------------------------------
# border rank three on (2, 2, 2)


def connect_brank3_222(A: Hypermatrix, B: Hypermatrix,
                       tol: TolerancePolicy = DEFAULT_TOL) -> TensorPath:
    """Exact in-stratum path through conjugate-pair factor matrices.

    Requires equal sign-triple labels (DifferentComponents otherwise). Each
    mode's [Re | Im] factor matrix moves along a determinant-sign-preserving
    interpolation, so the hyperdeterminant stays negative at every t.
    """
    la = classify_brank3_222(A, tol)
    lb = classify_brank3_222(B, tol)
    if la != lb:
        raise DifferentComponents(la, lb)

    def factor_mats(T):
        vecs = [T.scalar * T.factors[0], T.factors[1], T.factors[2]]
        return tuple(np.column_stack([np.real(x), np.imag(x)]) for x in vecs)

    mats_a = factor_mats(brank3_conj_pair(A, tol))
    mats_b = factor_mats(brank3_conj_pair(B, tol))
    interps = tuple(gl_interpolator(Ma, Mb)
                    for Ma, Mb in zip(mats_a, mats_b))
    seg = ConjPairSegment(interps, mats_a, mats_b)
    stratum = StratumDescriptor("brank", REAL, 3, shape=(2, 2, 2))
    return TensorPath([seg], stratum)


# ---------------------------------------------------------------------------
# dispatch, verification, reporting


def connect(stratum: StratumDescriptor, a, b, *, witness_a=None,
            witness_b=None, tol: TolerancePolicy = DEFAULT_TOL,
            rng: SplitMix64 | None = None, depth: int = 8) -> TensorPath:
    """Route to the constructor of the stratum's record (see kinds.py);
    witnesses are decomposition objects where the construction needs them."""
    return kinds.kind_of(stratum).connect(stratum, a, b, witness_a, witness_b,
                                          tol, rng, depth)


@dataclass
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


def _certify_sample(stratum: StratumDescriptor, value, witness,
                    tol: TolerancePolicy) -> SampleCheck:
    """Flattening ranks and margin of one sample, judged by the stratum's
    record (see kinds.py)."""
    A = sym_embed(value) if isinstance(value, SymTensor) else value
    try:
        mr = mrank(A, tol)
    except ToleranceError as exc:
        return SampleCheck(0.0, False, (), 0.0, None, f"mrank failed: {exc}")
    ranks = tuple(mr.ranks)
    margin = float(min(mr.margins))
    try:
        ok, label, note = kinds.kind_of(stratum).certify(stratum, value, ranks,
                                                         witness, tol)
    except (ToleranceError, DegenerateError, UnsupportedStratumError) as exc:
        return SampleCheck(0.0, False, ranks, margin, None, str(exc))
    return SampleCheck(0.0, ok, ranks, margin,
                       None if label is None else str(label), note)


def path_verify(path: TensorPath, K: int | None = None,
                tol: TolerancePolicy = DEFAULT_TOL) -> PathReport:
    """Evaluate on a Chebyshev grid plus endpoints and joints; certify each
    sample for the target stratum; check joint continuity and classifier
    constancy. Failures become report content, never exceptions."""
    if K is None:
        K = tol.path_samples_default
    ts = sorted(set([0.0, 1.0] + chebyshev_grid(K) + path.joints()))
    samples: list[SampleCheck] = []
    passed = True
    exact = True
    for t in ts:
        value = path.eval(t)
        check = _certify_sample(path.stratum, value, path.witness(t), tol)
        check.t = t
        if check.note in ("unverifiable-exactly",):
            exact = False
        passed = passed and check.ok
        samples.append(check)
    labels = {s.label for s in samples if s.label is not None}
    if len(labels) > 1:
        passed = False
    scale = max(path.eval(0.0).norm(), path.eval(1.0).norm(), 1e-300)
    joint_defect = 0.0
    n = len(path.segments)
    for k in range(1, n):
        left = path.segments[k - 1].value(1.0)
        right = path.segments[k].value(0.0)
        joint_defect = max(joint_defect, value_diff_norm(left, right) / scale)
    if joint_defect > 1e-10:
        passed = False
    min_margin = min((s.margin for s in samples), default=0.0)
    label = labels.pop() if len(labels) == 1 else None
    return PathReport(format_stratum(path.stratum), passed, samples,
                      float(min_margin), float(joint_defect), exact, label)


# The kind records are built from the connectors above, so they come last.
from . import kinds  # noqa: E402
