"""Dense hypermatrices, packed symmetric tensors, and rank primitives.

Conventions used throughout the package:

- entries are stored row-major (C order), last index fastest;
- flattenings use 1-based mode numbers; ``flatten(A, i)`` has the mode-i fiber
  index as rows and the remaining modes, in ascending mode order and row-major,
  as columns;
- the ``field`` tag is ``"real"`` or ``"complex"``; real data is float64,
  complex data is complex128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import ToleranceError

REAL = "real"
COMPLEX = "complex"


@dataclass(frozen=True)
class TolerancePolicy:
    """Scale-relative thresholds shared by every operation.

    eps_rel scales rank-decision thresholds, and gap_min is the minimal
    relative eigenvalue/singular-value separation treated as unambiguous.
    """

    eps_rel: float = 1e-10
    gap_min: float = 1e-6


DEFAULT_TOL = TolerancePolicy()
LOOSE_TOL = TolerancePolicy(eps_rel=1e-8)  # symmetry of tensors rebuilt by products


def _dtype_for(field: str):
    if field == REAL:
        return np.float64
    if field == COMPLEX:
        return np.complex128
    raise ValueError(f"unknown field {field!r}")


@dataclass(frozen=True)
class Hypermatrix:
    """A dense d-way array over R or C."""

    data: np.ndarray
    field: str

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=_dtype_for(self.field))
        if arr.ndim < 1:
            raise ValueError("hypermatrix needs at least one mode")
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def order(self) -> int:
        return self.data.ndim

    def norm(self) -> float:
        return float(np.linalg.norm(self.data.ravel()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Hypermatrix) and self.field == other.field
                and self.shape == other.shape
                and bool(np.array_equal(self.data, other.data)))


def hypermatrix(data, field: str = REAL) -> Hypermatrix:
    return Hypermatrix(np.asarray(data), field)


@dataclass(frozen=True)
class MultilinearRank:
    """Tuple of flattening ranks with the margins that produced them."""

    ranks: tuple[int, ...]
    margins: tuple[float, ...] = dc_field(default=(), compare=False)

    def __iter__(self):
        return iter(self.ranks)

    def __len__(self):
        return len(self.ranks)

    def __getitem__(self, i):
        return self.ranks[i]

    def admissible(self) -> bool:
        return mrank_admissible(self.ranks)

    def checked(self) -> "MultilinearRank":
        """This read, or ToleranceError when it violates admissibility
        (r_i <= prod_{j != i} r_j), which only an inconsistent numerical
        read can give."""
        if not self.admissible():
            raise ToleranceError(
                f"inadmissible multilinear rank read {self.ranks}; "
                "tolerance thresholds are inconsistent for this input")
        return self


def mrank_admissible(ranks):
    """Necessary condition r_i <= prod of the other entries, for every mode,
    of one read (a bool) or of each row of a (K, d) array of reads. A read
    with a zero entry passes only when every entry is zero, since then the
    product is zero."""
    r = np.asarray(ranks)
    ok = (r * r <= r.prod(axis=-1, keepdims=True)).all(axis=-1)
    return bool(ok) if r.ndim == 1 else ok


@dataclass(frozen=True)
class RankOneFactors:
    """scalar * v_1 x ... x v_d with unit-norm factors."""

    scalar: complex | float
    factors: tuple[np.ndarray, ...]
    field: str

    def tensor(self) -> Hypermatrix:
        return outer_product(self)


@dataclass(frozen=True)
class SymRankDecomposition:
    """Sum of lambda_k * v_k^(x d) terms with unit-norm vectors."""

    order: int
    coefficients: tuple[complex | float, ...]
    vectors: tuple[np.ndarray, ...]
    field: str

    def __len__(self):
        return len(self.coefficients)

    def tensor(self) -> "SymTensor":
        n = self.vectors[0].shape[0]
        parts = [sym_power(v, self.order, lam) for lam, v in
                 zip(self.coefficients, self.vectors)]
        packed = np.sum([p.packed for p in parts], axis=0)
        return SymTensor(n, self.order, self.field, packed)

    def signature(self) -> int:
        """Number of positive coefficients (meaningful for real even order)."""
        return sum(1 for lam in self.coefficients if float(np.real(lam)) > 0)


@lru_cache(maxsize=None)
def _sym_index_tables(n: int, d: int):
    """Packed order (lexicographic nondecreasing multi-indices) and lookup.

    Returns (indices, position, weights): indices is the tuple of packed
    multi-indices, position maps every full multi-index (as flat row-major
    offset) to its packed slot, weights are the multinomial multiplicities.
    """
    indices = tuple(combinations_with_replacement(range(n), d))
    position = np.empty(n ** d, dtype=np.intp)
    strides = [n ** (d - 1 - k) for k in range(d)]
    slot = {idx: p for p, idx in enumerate(indices)}
    for full in np.ndindex(*
                           ((n,) * d)):
        flat = sum(i * s for i, s in zip(full, strides))
        position[flat] = slot[tuple(sorted(full))]
    weights = np.empty(len(indices), dtype=np.float64)
    dfact = math.factorial(d)
    for p, idx in enumerate(indices):
        counts: dict[int, int] = {}
        for i in idx:
            counts[i] = counts.get(i, 0) + 1
        denom = 1
        for c in counts.values():
            denom *= math.factorial(c)
        weights[p] = dfact / denom
    return indices, position, weights


def sym_packed_length(n: int, d: int) -> int:
    return math.comb(n + d - 1, d)


@dataclass(frozen=True)
class SymTensor:
    """Symmetric order-d tensor on an n-dimensional space, packed storage.

    ``packed`` holds one coefficient per nondecreasing multi-index, indices in
    lexicographic order.
    """

    dim: int
    order: int
    field: str
    packed: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.packed, dtype=_dtype_for(self.field))
        if arr.shape != (sym_packed_length(self.dim, self.order),):
            raise ValueError(
                f"packed length {arr.shape} does not match dim={self.dim} "
                f"order={self.order} (expected {sym_packed_length(self.dim, self.order)})")
        object.__setattr__(self, "packed", arr)

    def norm(self) -> float:
        """Frobenius norm of the full (embedded) tensor."""
        _, _, weights = _sym_index_tables(self.dim, self.order)
        return float(math.sqrt(float(np.sum(weights * np.abs(self.packed) ** 2))))

    def entry(self, index: tuple[int, ...]) -> complex | float:
        _, position, _ = _sym_index_tables(self.dim, self.order)
        strides = [self.dim ** (self.order - 1 - k) for k in range(self.order)]
        flat = sum(i * s for i, s in zip(index, strides))
        return self.packed[position[flat]]


def flatten(A: Hypermatrix, mode: int) -> np.ndarray:
    """Mode-i flattening (1-based mode), columns row-major over remaining modes."""
    d = A.order
    if not 1 <= mode <= d:
        raise ValueError(f"mode {mode} out of range 1..{d}")
    ax = mode - 1
    return np.ascontiguousarray(
        np.moveaxis(A.data, ax, 0).reshape(A.shape[ax], -1))


def flatten_stack(data: np.ndarray, mode: int) -> np.ndarray:
    """The mode-i flattening (1-based mode) of every tensor of a (K, ...)
    stack, laid out as flatten lays it out: shape (K, n_i, rest)."""
    axes = range(1, data.ndim)
    order = (0, mode) + tuple(k for k in axes if k != mode)
    return data.transpose(order).reshape(data.shape[0], data.shape[mode], -1)


def _rank_read(sigma: np.ndarray, size: int,
               tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, margins), two (K,) arrays, of the rows of a (K, p) stack of
    singular values, each row in descending order, of matrices whose larger
    side is ``size``.

    Threshold tau = sigma_1 * size * eps_rel; singular values exactly on the
    threshold count as above it. The zero matrix has rank 0. margin =
    sigma_r / sigma_1, and 1.0 when r = 0.
    """
    ranks = _ranks(sigma, size, tol)
    margins = np.ones(len(ranks))
    live = np.flatnonzero(ranks)
    margins[live] = sigma[live, ranks[live] - 1] / sigma[live, 0]
    return ranks, margins


def _ranks(sigma: np.ndarray, size: int, tol: TolerancePolicy) -> np.ndarray:
    """The ranks of _rank_read alone, a (K,) array."""
    if sigma.shape[1] == 0:
        return np.zeros(len(sigma), dtype=np.intp)
    top = sigma[:, 0]
    ranks = (sigma >= (top * size * tol.eps_rel)[:, None]).sum(axis=1)
    ranks[top == 0.0] = 0
    return ranks


def numerical_rank(M: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[int, float]:
    """(rank, margin) of one matrix under the threshold rule of _rank_read."""
    M = np.atleast_2d(M)
    sigma = np.linalg.svd(M, compute_uv=False)
    ranks, margins = _rank_read(sigma[None], max(M.shape), tol)
    return int(ranks[0]), float(margins[0])


def mrank_stack(data: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL
                ) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear ranks of the tensors of a (K, ...) stack with their
    per-mode margins, two (K, d) arrays, read with one batched SVD per mode
    under the rule of numerical_rank.

    Reads come back as they are, admissible or not (see mrank_admissible).
    """
    reads = []
    for ax in range(1, data.ndim):
        flat = flatten_stack(data, ax)
        sigma = np.linalg.svd(flat, compute_uv=False)
        reads.append(_rank_read(sigma, max(flat.shape[1:]), tol))
    return (np.stack([r for r, _m in reads], axis=1),
            np.stack([m for _r, m in reads], axis=1))


def sym_mrank_stack(packed: np.ndarray, n: int, d: int,
                    tol: TolerancePolicy = DEFAULT_TOL
                    ) -> tuple[np.ndarray, np.ndarray]:
    """mrank_stack of the full tensors of a (K, L) stack of packed rows,
    bit for bit, with one batched SVD: every flattening of a symmetric
    tensor is the same matrix, so the mode-1 read holds for every mode."""
    flat = sym_embed_stack(packed, n, d).reshape(packed.shape[0], n, -1)
    sigma = np.linalg.svd(flat, compute_uv=False)
    ranks, margins = _rank_read(sigma, max(flat.shape[1:]), tol)
    return np.repeat(ranks[:, None], d, axis=1), np.repeat(margins[:, None], d, axis=1)


def flattening_det_signs(data: np.ndarray, modes) -> list[tuple[int, ...]]:
    """Per tensor of a (K, ...) stack, the determinant sign (1, or -1 for a
    negative or zero determinant) of each listed square flattening (one or
    more 1-based modes), with one batched slogdet per mode."""
    signs = [np.linalg.slogdet(flatten_stack(data, m))[0].tolist() for m in modes]
    return [tuple(1 if s > 0 else -1 for s in row) for row in zip(*signs)]


def row_norms(data: np.ndarray) -> np.ndarray:
    """Frobenius norm of every tensor of a (K, ...) stack, rounded as
    np.linalg.norm rounds it for one tensor (one BLAS dot per part)."""
    flat = data.reshape(data.shape[0], -1)
    if np.iscomplexobj(flat):
        return np.sqrt(np.vecdot(flat.real, flat.real)
                       + np.vecdot(flat.imag, flat.imag))
    return np.sqrt(np.vecdot(flat, flat))


def mrank(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL) -> MultilinearRank:
    """Multilinear rank: the tuple of flattening ranks, with per-mode margins.

    The one-tensor case of mrank_stack. Raises ToleranceError when the
    reported tuple violates admissibility (r_i <= prod_{j != i} r_j); that
    can only come from an inconsistent numerical read.
    """
    ranks, margins = mrank_stack(A.data[None], tol)
    return MultilinearRank(tuple(ranks[0].tolist()),
                           tuple(margins[0].tolist())).checked()


def _mul(x, y):
    """x * y, rounded as numpy's scalar product rounds it. For complex
    factors the product is spelt out: numpy's array loop may fuse its
    multiply and add, which moves bits."""
    if not (np.iscomplexobj(x) or np.iscomplexobj(y)):
        return x * y
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    re = xr * yr - xi * yi
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real = re
    out.imag = xr * yi + xi * yr
    return out


def outer_stack(factors: list[np.ndarray]) -> np.ndarray:
    """Outer product of one vector per mode, for each row of the (K, n_i)
    factor stacks; each row has the bits np.multiply.outer gives it."""
    out = factors[0]
    for f in factors[1:]:
        out = out[..., None] * f.reshape(f.shape[:1] + (1,) * (out.ndim - 1) + f.shape[1:])
    return out


def outer_product(f: RankOneFactors) -> Hypermatrix:
    dtype = _dtype_for(f.field)
    out = outer_stack([np.asarray(v, dtype=dtype)[None] for v in f.factors])[0]
    return Hypermatrix(out * f.scalar, f.field)


def _power_field(vectors, coefficient) -> str:
    return (COMPLEX if np.iscomplexobj(vectors) or isinstance(coefficient, complex)
            else REAL)


def sym_power_stack(vectors: np.ndarray, d: int,
                    coefficient: complex | float | np.ndarray = 1.0,
                    field: str | None = None) -> np.ndarray:
    """coefficient * v^(x d) in packed form for every row v of a (K, n)
    stack: the (K, L) packed rows. ``coefficient`` is one scalar, or a
    (K, 1) column of one per row. Each entry is the product coefficient *
    v_i1 * ... * v_id taken left to right, rounded as numpy's scalar
    products round it."""
    dtype = _dtype_for(field or _power_field(vectors, coefficient))
    V = np.asarray(vectors).astype(dtype)
    indices, _, _ = _sym_index_tables(V.shape[1], d)
    prod = coefficient
    for column in np.array(indices, dtype=np.intp).reshape(-1, d).T:
        prod = _mul(prod, V[:, column])
    return np.asarray(prod).astype(dtype)


def sym_power(v: np.ndarray, d: int, coefficient: complex | float = 1.0,
              field: str | None = None) -> SymTensor:
    """coefficient * v^(x d) in packed form; the one-vector case of
    sym_power_stack."""
    v = np.asarray(v)
    field = field or _power_field(v, coefficient)
    return SymTensor(v.shape[0], d, field,
                     sym_power_stack(v[None], d, coefficient, field)[0])


def sym_embed_stack(packed: np.ndarray, n: int, d: int) -> np.ndarray:
    """The full (K, n, ..., n) arrays of a (K, L) stack of packed rows."""
    _, position, _ = _sym_index_tables(n, d)
    return packed[:, position].reshape((packed.shape[0],) + (n,) * d)


def sym_embed(S: SymTensor) -> Hypermatrix:
    """Expand packed coefficients to the full n^d array."""
    return Hypermatrix(sym_embed_stack(S.packed[None], S.dim, S.order)[0], S.field)


def sym_extract_stack(data: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """sym_extract for every tensor of a (K, n, ..., n) stack: the (K, L)
    packed rows, or the ToleranceError of the first tensor it rejects."""
    K, shape = data.shape[0], data.shape[1:]
    n, d = shape[0], len(shape)
    if any(s != n for s in shape):
        raise ValueError(f"not a symmetric shape: {shape}")
    _, position, _ = _sym_index_tables(n, d)
    flat = data.reshape(K, -1)
    m = sym_packed_length(n, d)
    sums = np.zeros((K, m), dtype=flat.dtype)
    np.add.at(sums.T, position, flat.T)  # each slot summed in entry order
    means = sums / np.bincount(position, minlength=m).astype(np.float64)
    deviation = np.max(np.abs(flat - means[:, position]), axis=1, initial=0.0)
    scale = row_norms(data)
    for dev, sc in zip(deviation.tolist(), scale.tolist()):
        if dev > tol.eps_rel * max(sc, 1e-300):
            raise ToleranceError(
                f"input is not symmetric: max orbit deviation {dev:.3e} "
                f"exceeds {tol.eps_rel:.1e} * norm")
    return means


def sym_extract(A: Hypermatrix, tol: TolerancePolicy = DEFAULT_TOL) -> SymTensor:
    """Pack a (numerically) symmetric full tensor; reject asymmetric input.

    The maximal deviation between entries related by an index permutation must
    not exceed eps_rel * ||A||. Entries are averaged over their orbit. The
    one-tensor case of sym_extract_stack.
    """
    return SymTensor(A.shape[0], A.order, A.field,
                     sym_extract_stack(A.data[None], tol)[0])


def sym_diagonal_sum(S: SymTensor) -> complex | float:
    """Sum of the diagonal entries A[i, i, ..., i]."""
    total = 0.0
    for i in range(S.dim):
        total = total + S.entry((i,) * S.order)
    return total


def mode_multiply_stack(data: np.ndarray,
                        matrices: list[np.ndarray | None]) -> np.ndarray:
    """Multiply every tensor of a (K, ...) stack by one matrix per mode,
    one batched matmul per mode: matrices[k] is a (K, new_k, old_k) stack,
    one (new_k, old_k) matrix shared by every tensor, or None (identity on
    that mode). The result keeps mode order. A tensor's result has the same
    bits in a stack of any size, with a shared matrix or its own alike;
    mode_multiply is the one-tensor case."""
    out = data
    for k, M in enumerate(matrices):
        if M is None:
            continue
        ax, rest = k + 1, tuple(range(2, data.ndim))
        moved = out.transpose((0, ax) + tuple(i for i in range(1, data.ndim) if i != ax))
        shape = moved.shape
        prod = np.matmul(M, moved.reshape(shape[0], shape[1], -1))
        out = prod.reshape((shape[0], M.shape[-2]) + shape[2:]).transpose(
            (0,) + rest[:k] + (1,) + rest[k:])
    return out


def mode_multiply(core: np.ndarray, matrices: list[np.ndarray | None]) -> np.ndarray:
    """Multiply core by one matrix per mode (None = identity on that mode).

    matrices[k] has shape (new_k, old_k); the result keeps mode order. The
    one-tensor case of mode_multiply_stack.
    """
    return mode_multiply_stack(np.asarray(core)[None], matrices)[0]


def frobenius_inner(A: np.ndarray, B: np.ndarray) -> complex | float:
    """<A, B> = sum A * conj(B)."""
    return complex(np.sum(A * np.conj(B))) if np.iscomplexobj(A) or np.iscomplexobj(B) \
        else float(np.sum(A * B))


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate/flip a vector, or each vector along the last axis of a stack,
    so its first significant component is positive real.

    The component used is the first one whose magnitude exceeds 1e-8 times the
    largest (a stable notion of "first nonzero" in floating point). A zero
    vector is returned as it is.
    """
    v = np.asarray(v)
    mag = np.abs(v)
    amax = mag.max(axis=-1, keepdims=True)
    idx = (mag > 1e-8 * amax).argmax(axis=-1)
    if v.ndim == 1:
        pivot = v[idx:idx + 1]
    else:
        flat = v.reshape(-1, v.shape[-1])
        pivot = flat[np.arange(flat.shape[0]), idx.ravel()].reshape(idx.shape + (1,))
    if v.dtype.kind == "c":
        with np.errstate(divide="ignore", invalid="ignore"):
            # an array division by the modulus rounds as numpy's scalar one
            turn = np.conj(pivot) / np.hypot(pivot.real, pivot.imag)
    else:
        turn = np.sign(pivot)
    turn[amax == 0.0] = 1.0
    return v * turn
