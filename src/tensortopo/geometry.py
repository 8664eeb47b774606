"""Subspace geometry: Grassmann frames, geodesics, Tucker compression.

Frames are orthonormal n x r matrices. All transports return, alongside the
moving frame, the explicit r x r orthogonal/unitary change of basis relating
the transported frame at t = 1 to the stored frame of the destination point;
callers absorb that twist into core coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOL, LOOSE_TOL, Hypermatrix, SymTensor,
                   TolerancePolicy, _ranks, fix_phase, flatten_stack,
                   mode_multiply, mode_multiply_stack, row_norms, sym_embed,
                   sym_embed_stack, sym_extract, sym_extract_stack)
from .errors import ToleranceError, caught, settled

_FRAME_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class GrassmannPoint:
    """A point of Gr(r, K^n) represented by an orthonormal frame."""

    frame: np.ndarray
    field: str

    def __post_init__(self):
        F = np.ascontiguousarray(self.frame)
        if F.ndim != 2:
            raise ValueError("frame must be a matrix")
        check_orthonormal(F[None])
        object.__setattr__(self, "frame", F)

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.frame.shape[1]


def check_orthonormal(frames: np.ndarray) -> None:
    """ValueError unless the columns of every frame of a (K, n, r) stack are
    orthonormal to 1e-12."""
    gram = np.matmul(np.conj(np.swapaxes(frames, 1, 2)), frames)
    if np.max(np.abs(gram - np.eye(frames.shape[2])), initial=0.0) > _FRAME_ORTHO_TOL:
        raise ValueError("frame columns are not orthonormal to 1e-12")


def _check_subspace(sigma: list, rank: int, mode: int, r: int,
                    tol: TolerancePolicy) -> None:
    """dominant_subspace's ToleranceError for a mode flattening with
    singular values ``sigma`` (descending) and numerical rank ``rank``."""
    if sigma[0] == 0.0:
        raise ToleranceError("zero tensor has no dominant subspace")
    if sigma[r - 1] / sigma[0] < tol.gap_min:
        raise ToleranceError(
            f"mode-{mode} subspace margin {sigma[r-1]/sigma[0]:.3e} below gap_min")
    if rank > r and (sigma[r - 1] - sigma[r]) / sigma[0] < tol.gap_min:
        raise ToleranceError(
            f"mode-{mode} dominant subspace of dimension {r} is ambiguous: "
            f"relative gap {(sigma[r-1]-sigma[r])/sigma[0]:.3e} below gap_min")


def dominant_frames(data: np.ndarray, mode: int, r: int, ranks,
                    tol: TolerancePolicy = DEFAULT_TOL) -> tuple[np.ndarray, list]:
    """dominant_subspace for every tensor of a (K, ...) stack, with one
    batched SVD: the (K, n, r) frames, unchecked for orthonormality, and per
    tensor the ToleranceError dominant_subspace raises on it, or None.

    ``ranks[k]`` is the numerical rank of tensor k's mode flattening, as
    mrank reads it; None reads them here.
    """
    M = flatten_stack(data, mode)
    if r < 1 or r > min(M.shape[1:]):
        raise ValueError(
            f"cannot take a {r}-dimensional dominant subspace of {M.shape[1:]}")
    U, sigma, _ = np.linalg.svd(M, full_matrices=False)
    if ranks is None:
        ranks = _ranks(np.linalg.svd(M, compute_uv=False),
                       max(M.shape[1:]), tol).tolist()
    errors = [caught(_check_subspace, row, rank, mode, r, tol)
              for row, rank in zip(sigma.tolist(), ranks)]
    frames = fix_phase(np.swapaxes(U[:, :, :r], 1, 2))
    return np.ascontiguousarray(np.swapaxes(frames, 1, 2)), errors


def dominant_subspace(A: Hypermatrix, mode: int, r: int,
                      tol: TolerancePolicy = DEFAULT_TOL) -> GrassmannPoint:
    """Span of the top r left singular vectors of the mode-i flattening.

    Raises ToleranceError when the subspace is numerically ambiguous: either
    sigma_r / sigma_1 < gap_min (the subspace barely exists) or, when more
    than r significant values are present, the relative gap
    (sigma_r - sigma_{r+1}) / sigma_1 < gap_min. The one-tensor case of
    dominant_frames.
    """
    frames, errors = dominant_frames(A.data[None], mode, r, None, tol)
    settled(errors[0])
    return GrassmannPoint(frames[0], A.field)


def principal_angles(U: GrassmannPoint, V: GrassmannPoint) -> np.ndarray:
    """Principal angles between two subspaces, nondecreasing, in [0, pi/2]."""
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    s = np.linalg.svd(U.frame.conj().T @ V.frame, compute_uv=False)
    return np.arccos(np.clip(s, 0.0, 1.0))


class GrassmannGeodesic:
    """Minimal geodesic between two subspaces, as a moving orthonormal frame.

    frame(0) is exactly the start frame; frame(1) equals end.frame @ twist for
    an explicit orthogonal/unitary ``twist``. ``frame`` takes one t or an
    array of them, whose frames come back stacked along a first axis.
    """

    def __init__(self, start: GrassmannPoint, end: GrassmannPoint):
        if start.ambient_dim != end.ambient_dim or start.subspace_dim != end.subspace_dim:
            raise ValueError("geodesic endpoints must be points of the same Grassmannian")
        X, Y = start.frame, end.frame
        V, s, Wh = np.linalg.svd(X.conj().T @ Y)
        W = Wh.conj().T
        theta = np.arccos(np.clip(s, 0.0, 1.0))
        P = X @ V
        Q = Y @ W
        delta = Q - P * np.cos(theta)
        sin_theta = np.sin(theta)
        G = np.zeros_like(delta)
        for k in range(delta.shape[1]):
            if sin_theta[k] > 1e-12:
                G[:, k] = delta[:, k] / sin_theta[k]
        self._P, self._G, self._theta, self._Vh = P, G, theta, V.conj().T
        self.twist = W @ V.conj().T
        self.start, self.end = start, end

    def frame(self, t) -> np.ndarray:
        a = np.multiply.outer(t, self._theta)[..., None, :]
        return (self._P * np.cos(a) + self._G * np.sin(a)) @ self._Vh


def geodesic(start: GrassmannPoint, end: GrassmannPoint,
             t: float) -> tuple[GrassmannPoint, np.ndarray]:
    """Transported frame at time t and the t=1 basis change (see class above)."""
    geo = GrassmannGeodesic(start, end)
    return GrassmannPoint(geo.frame(t), start.field), geo.twist


class OrientationLoop:
    """Closed frame loop in Gr(r, n), n > r, with holonomy diag(-1, 1, ..., 1).

    The first frame column is rotated by pi through a fixed direction outside
    the subspace; the subspace returns to itself with one basis vector negated.
    ``frame`` takes one t or an array of them, as GrassmannGeodesic's does.
    """

    def __init__(self, point: GrassmannPoint):
        n, r = point.ambient_dim, point.subspace_dim
        if n <= r:
            raise ValueError("orientation loop needs ambient room (n > r)")
        U = point.frame
        residuals = np.eye(n, dtype=U.dtype) - U @ U.conj().T
        norms = np.linalg.norm(residuals, axis=0)
        k = int(np.argmax(norms))
        self._z = residuals[:, k] / norms[k]
        self._U = U
        self.point = point
        h = np.eye(r, dtype=U.dtype)
        h[0, 0] = -1.0
        self.holonomy = h

    def frame(self, t) -> np.ndarray:
        a = np.pi * np.asarray(t, dtype=np.float64)[..., None]
        F = np.broadcast_to(self._U, a.shape[:-1] + self._U.shape).copy()
        F[..., 0] = np.cos(a) * self._U[:, 0] + np.sin(a) * self._z
        return F


def flip_exponent(ranks: tuple[int, ...], i: int, m: int) -> int:
    """How many times an orientation loop at mode m negates the determinant
    of a core's square mode-i flattening (0-based modes): 1 when m = i,
    else prod_{k not in {i, m}} r_k. Only its parity matters."""
    if m == i:
        return 1
    return math.prod(r for k, r in enumerate(ranks) if k not in (i, m))


@dataclass(frozen=True)
class TuckerRep:
    """Orthonormal frames per mode plus the core of coefficients."""

    frames: tuple[GrassmannPoint, ...]
    core: Hypermatrix

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape


def _check_round_trip(residual: float, scale: float, name: str, rank: str,
                      ranks) -> None:
    """The ToleranceError of a ``name`` round trip missing a tensor of norm
    ``scale`` by ``residual``: its ``rank`` exceeds ``ranks``."""
    if residual > 1e-10 * max(scale, 1e-300):
        raise ToleranceError(
            f"{name} round trip residual {residual:.3e} exceeds 1e-10 * norm; "
            f"{rank} of the input exceeds {ranks}")


def tucker_stack(data: np.ndarray, ranks: tuple[int, ...], mode_ranks,
                 tol: TolerancePolicy = DEFAULT_TOL) -> tuple[list, np.ndarray, list]:
    """tucker_compress for every tensor of a (K, ...) stack: the (K, n_i, r_i)
    frames per mode, unchecked for orthonormality, the (K, *ranks) cores,
    and per tensor the first ToleranceError tucker_compress raises on it, or
    None.

    ``mode_ranks`` is the (K, d) multilinear rank read of the stack, or
    None to read it here (see dominant_frames).

    A mode whose flattening stack, rank and rank read equal mode 1's, as
    every mode of an embedded symmetric tensor's does, takes mode 1's
    frames without a second SVD: the same matrices give the same frames
    and, after mode 1's, no new error.
    """
    K = data.shape[0]
    if len(ranks) != data.ndim - 1:
        raise ValueError("need one rank per mode")
    reads = None if mode_ranks is None else np.asarray(mode_ranks)
    errors = [None] * K
    frames = []
    first = flatten_stack(data, 1)
    for m, r in enumerate(ranks):
        if (m and r == ranks[0] and data.shape[m + 1] == data.shape[1]
                and (reads is None or np.array_equal(reads[:, m], reads[:, 0]))
                and np.array_equal(flatten_stack(data, m + 1), first)):
            frames.append(frames[0])
            continue
        F, found = dominant_frames(
            data, m + 1, r, None if reads is None else reads[:, m].tolist(), tol)
        errors = [e or new for e, new in zip(errors, found)]
        frames.append(F)
    core = mode_multiply_stack(data, [np.conj(np.swapaxes(F, 1, 2)) for F in frames])
    residual = row_norms(mode_multiply_stack(core, frames) - data)
    scale = row_norms(data)
    errors = [e or caught(_check_round_trip, res, sc, "tucker", "multilinear rank",
                          ranks)
              for e, res, sc in zip(errors, residual.tolist(), scale.tolist())]
    return frames, core, errors


def tucker_compress(A: Hypermatrix, ranks: tuple[int, ...],
                    tol: TolerancePolicy = DEFAULT_TOL) -> TuckerRep:
    """Compress onto the dominant subspaces; exact when ranks = mrank(A).

    Raises ToleranceError if the round trip misses A by more than 1e-10
    relative (i.e. the requested ranks undershoot the true multilinear rank).
    The one-tensor case of tucker_stack.
    """
    frames, core, errors = tucker_stack(A.data[None], tuple(ranks), None, tol)
    settled(errors[0])
    return TuckerRep(tuple(GrassmannPoint(F[0], A.field) for F in frames),
                     Hypermatrix(core[0], A.field))


def tucker_expand(rep: TuckerRep) -> Hypermatrix:
    data = mode_multiply(rep.core.data, [f.frame for f in rep.frames])
    return Hypermatrix(data, rep.core.field)


def sym_tucker_stack(packed: np.ndarray, n: int, d: int, r: int, ranks,
                     tol: TolerancePolicy = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """sym_tucker_compress for every row of a (K, L) stack of packed
    symmetric tensors, with one batched product each way: the (K, n, r)
    frames, unchecked for orthonormality, and the (K, L_r) packed cores, or
    the first ToleranceError sym_tucker_compress raises on a row. ``ranks``
    is as for dominant_frames (sym_mrank_stack's read, or None)."""
    data = sym_embed_stack(packed, n, d)
    frames, errors = dominant_frames(data, 1, r, ranks, tol)
    for error in errors:
        settled(error)
    core = sym_extract_stack(
        mode_multiply_stack(data, [np.conj(np.swapaxes(frames, 1, 2))] * d), tol)
    back = mode_multiply_stack(sym_embed_stack(core, r, d), [frames] * d)
    for res, sc in zip(row_norms(back - data).tolist(), row_norms(data).tolist()):
        _check_round_trip(res, sc, "shared-frame", "the symmetric multilinear rank", r)
    return frames, core


def sym_tucker_compress(S: SymTensor, r: int,
                        tol: TolerancePolicy = DEFAULT_TOL
                        ) -> tuple[GrassmannPoint, SymTensor]:
    """Shared-frame compression of a symmetric tensor.

    One frame (from the mode-1 flattening) is applied to every mode; the core
    is again symmetric, of dimension r. The one-tensor case of
    sym_tucker_stack.
    """
    frames, core = sym_tucker_stack(S.packed[None], S.dim, S.order, r, None, tol)
    return GrassmannPoint(frames[0], S.field), SymTensor(r, S.order, S.field, core[0])


def sym_tucker_expand(frame: GrassmannPoint, core: SymTensor) -> SymTensor:
    full = mode_multiply(sym_embed(core).data, [frame.frame] * core.order)
    return sym_extract(Hypermatrix(full, core.field), LOOSE_TOL)


def so_rotation_path(Q: np.ndarray):
    """Callable t -> R(t) with R(0) = I, R(1) = Q, R(t) in SO(r) throughout.

    Q must be real special orthogonal. A Givens QR reduction takes Q to I
    with rotations in the planes (j, i), j < i, in row-major order, each
    angle a_k read with arctan2 so that every pivot is nonnegative; the
    last pivot is then det Q = +1, and nothing is left to pair. So
    Q = G_1(a_1) ... G_K(a_K), G_k(a) the rotation by a in the k-th plane,
    and R(t) = G_1(t a_1) ... G_K(t a_K). The path is not a geodesic, but
    its speed is at most sum |a_k|. The callable takes one t or an array of
    them, whose matrices come back stacked along a first axis, as do those
    of orthogonal_interpolator and gl_interpolator.
    """
    r = Q.shape[0]
    if np.max(np.abs(Q @ Q.T - np.eye(r))) > 1e-10 or np.linalg.det(Q) < 0:
        raise ValueError("so_rotation_path needs a special orthogonal matrix")
    planes = [(j, i) for j in range(r - 1) for i in range(j + 1, r)]
    R, angles = Q.tolist(), []  # Python floats: r is small, numpy calls cost more
    for j, i in planes:
        angles.append(math.atan2(R[i][j], R[j][j]))
        c, s = math.cos(angles[-1]), math.sin(angles[-1])
        Rj, Ri = R[j], R[i]
        R[j] = [c * x + s * y for x, y in zip(Rj, Ri)]
        R[i] = [c * y - s * x for x, y in zip(Rj, Ri)]
    angles = np.array(angles)
    J, I = np.array(planes, dtype=np.intp).reshape(-1, 2).T
    k = np.arange(len(planes))
    width = 1 << max(len(planes) - 1, 0).bit_length()  # identities pad K to 2^m

    def path(t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        G = np.broadcast_to(np.eye(r), t.shape + (width, r, r)).copy()
        c, s = np.cos(t[..., None] * angles), np.sin(t[..., None] * angles)
        G[..., k, J, J], G[..., k, J, I] = c, -s
        G[..., k, I, J], G[..., k, I, I] = s, c
        while G.shape[-3] > 1:  # the product in plane order, halved per matmul
            G = G[..., 0::2, :, :] @ G[..., 1::2, :, :]
        return G[..., 0, :, :]

    return path


def orthogonal_interpolator(Q0: np.ndarray, Q1: np.ndarray):
    """Callable t -> Q0 R(t) joining two real orthogonal matrices of equal
    det sign, where R is so_rotation_path of Q0^T Q1: the Givens product,
    special orthogonal exactly when the two signs agree."""
    inner = so_rotation_path(Q0.T @ Q1)

    def path(t) -> np.ndarray:
        return Q0 @ inner(t)

    return path


def gl_interpolator(M0: np.ndarray, M1: np.ndarray):
    """Callable t -> M(t) joining two invertible real matrices of the same
    determinant sign through invertible matrices with constant sign.

    Both endpoints are reproduced exactly; the path is U(t) S(t) V(t)^T with
    orthogonal factors interpolated on SO and singular values lerped.
    """
    if M0.shape != M1.shape or M0.shape[0] != M0.shape[1]:
        raise ValueError("gl_interpolator needs square matrices of one shape")
    sign0 = np.sign(np.linalg.det(M0))
    sign1 = np.sign(np.linalg.det(M1))
    if sign0 == 0 or sign0 != sign1:
        raise ValueError("gl_interpolator needs invertible endpoints of equal det sign")
    U0, s0, V0h = np.linalg.svd(M0)
    U1, s1, V1h = np.linalg.svd(M1)
    V0, V1 = V0h.T, V1h.T
    r = M0.shape[0]

    def absorb(U, V):
        # force det V = +1, pushing any reflection into U
        if np.linalg.det(V) < 0:
            D = np.eye(r)
            D[-1, -1] = -1.0
            return U @ D, V @ D
        return U, V

    U0, V0 = absorb(U0, V0)
    U1, V1 = absorb(U1, V1)
    u_path = orthogonal_interpolator(U0, U1)
    v_path = orthogonal_interpolator(V0, V1)

    def path(t) -> np.ndarray:
        w = np.asarray(t, dtype=np.float64)[..., None]
        s = ((1.0 - w) * s0 + w * s1)[..., None, :]
        return u_path(t) * s @ np.swapaxes(v_path(t), -1, -2)

    return path
