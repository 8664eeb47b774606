"""Rank and component oracles used to check tensortopo's outputs.

Plain numpy on dense arrays. Nothing here imports tensortopo, so a fault in
the package cannot hide inside its own check. Each oracle either decides or
raises ``Ambiguous``; it never guesses near a stratum boundary.

Cited results behind the invariants:

- the 2x2x2 hyperdeterminant is the discriminant of det(A0 - lam A1); its
  sign separates real rank two (> 0) from the border-rank-three stratum (< 0),
  and there the three pairwise orientation signs of the conjugate pair label
  the four components (de Silva & Lim 2008);
- a real binary cubic has real rank exactly two when its discriminant is
  negative and rank three when it is positive (Sylvester; Comon & Ottaviani
  2012);
- an even-order real symmetric tensor of rank r has a square flattening of
  rank r whose signature counts the positive coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

KEEP = 1e-8   # singular values at least this share of the largest count
DROP = 1e-11  # singular values at most this share count as zero
SIGN = 1e-12  # invariants below this share of their natural scale are undecided


class Ambiguous(ValueError):
    """The input sits too close to a stratum boundary to decide."""


def unfold(T: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` (0-based) unfolding, remaining modes row-major."""
    return np.moveaxis(T, mode, 0).reshape(T.shape[mode], -1)


def _gap_rank(values: np.ndarray) -> int:
    """Number of magnitudes at least KEEP of the largest, if none sit
    between DROP and KEEP."""
    top = float(np.max(values))
    if top == 0.0:
        raise Ambiguous("zero matrix")
    rel = np.sort(values)[::-1] / top
    r = int(np.sum(rel >= KEEP))
    if np.any((rel < KEEP) & (rel > DROP)):
        raise Ambiguous(f"no clear gap after {r} of {rel.size} values")
    return r


def matrix_rank(M: np.ndarray) -> int:
    return _gap_rank(np.linalg.svd(M, compute_uv=False))


def flattening_ranks(T: np.ndarray) -> tuple[int, ...]:
    return tuple(matrix_rank(unfold(T, m)) for m in range(T.ndim))


def _det2(M: np.ndarray):
    return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]


def pencil(T: np.ndarray) -> tuple:
    """(a, b, c) with det(A0 - lam A1) = a lam^2 + b lam + c, A_i = T[i]."""
    A0, A1 = T[0], T[1]
    a = _det2(A1)
    b = A0[0, 1] * A1[1, 0] + A1[0, 1] * A0[1, 0] \
        - A0[0, 0] * A1[1, 1] - A1[0, 0] * A0[1, 1]
    c = _det2(A0)
    return a, b, c


def hyperdet(T: np.ndarray) -> float:
    """2x2x2 hyperdeterminant as the discriminant of the mode-1 pencil."""
    if T.shape != (2, 2, 2):
        raise ValueError("hyperdet needs a 2x2x2 array")
    a, b, c = pencil(T)
    return float(b * b - 4.0 * a * c)


def hyperdet_sign(T: np.ndarray) -> int:
    scale = float(np.sum(T * T)) ** 2
    det = hyperdet(T)
    if abs(det) <= SIGN * scale:
        raise Ambiguous(f"hyperdeterminant {det:.3e} is on the boundary")
    return 1 if det > 0 else -1


def _area(x: np.ndarray) -> float:
    """det[Re x | Im x] over |x|^2: the orientation of a complex 2-vector."""
    w = float(np.real(x[0]) * np.imag(x[1]) - np.real(x[1]) * np.imag(x[0]))
    w /= float(np.vdot(x, x).real)
    if abs(w) <= SIGN:
        raise Ambiguous("orientation area vanishes")
    return w


def sign_triple(T: np.ndarray) -> str:
    """Pairwise orientation signs (12, 13, 23) of T = X + conj(X), X rank one.

    With Delta < 0 the pencil det(A0 - lam A1) has a complex root lam; the
    first factor of one conjugate term is (lam, 1), and A0 - lam A1 leaves
    the other term's remaining factors as a rank-one residue. That residue
    carries conj(y), conj(z), whose areas are those of y and z negated.
    """
    if hyperdet_sign(T) > 0:
        raise ValueError("sign triple needs a negative hyperdeterminant")
    a, b, c = pencil(T)
    lam = (-b + 1j * np.sqrt(4.0 * a * c - b * b)) / (2.0 * a)
    residue = T[0] - lam * T[1]
    s = np.linalg.svd(residue, compute_uv=False)
    if s[1] > 1e-8 * s[0]:
        raise Ambiguous("pencil residue is not rank one")
    i, j = np.unravel_index(int(np.argmax(np.abs(residue))), residue.shape)
    u = residue[:, j]
    v = residue[i, :] / residue[i, j]
    wx = _area(np.array([lam, 1.0]))
    wy, wz = -_area(u), -_area(v)
    signs = (wx * wy, wx * wz, wy * wz)
    return "".join("+" if s > 0 else "-" for s in signs)


def square_signature(T: np.ndarray) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of the n^(d/2) x n^(d/2)
    flattening of an even-order symmetric tensor."""
    d, n = T.ndim, T.shape[0]
    if d % 2:
        raise ValueError("square flattening needs even order")
    M = T.reshape(n ** (d // 2), -1)
    lam = np.linalg.eigvalsh((M + M.T) / 2.0)
    r = _gap_rank(np.abs(lam))
    top = float(np.max(np.abs(lam)))
    pos = int(np.sum(lam >= KEEP * top))
    return pos, r - pos


def cubic_discriminant(a, b, c, d) -> float:
    """Discriminant of a x^3 + b x^2 y + c x y^2 + d y^3."""
    return float(b * b * c * c - 4.0 * a * c ** 3 - 4.0 * b ** 3 * d
                 - 27.0 * a * a * d * d + 18.0 * a * b * c * d)


def _top_frames(T: np.ndarray, r: int) -> list[np.ndarray]:
    return [np.linalg.svd(unfold(T, m), full_matrices=False)[0][:, :r]
            for m in range(T.ndim)]


def _core(T: np.ndarray, frames: list[np.ndarray]) -> np.ndarray:
    out = T
    for m, Q in enumerate(frames):
        out = np.moveaxis(np.tensordot(Q.conj().T, out, axes=(1, m)), 0, m)
    return out


def span_cubic_sign(T: np.ndarray) -> int:
    """Discriminant sign of a symmetric order-3 tensor restricted to the
    2-dimensional span of its mode-1 unfolding."""
    Q = _top_frames(T, 2)[0]
    C = _core(T, [Q, Q, Q])
    a, b, c, d = C[0, 0, 0], 3.0 * C[0, 0, 1], 3.0 * C[0, 1, 1], C[1, 1, 1]
    disc = cubic_discriminant(a, b, c, d)
    if abs(disc) <= SIGN * float(np.sum(C * C)) ** 2:
        raise Ambiguous(f"binary cubic discriminant {disc:.3e} is on the boundary")
    return 1 if disc > 0 else -1


def tucker_hyperdet_sign(T: np.ndarray) -> int:
    """Hyperdeterminant sign of the orthonormal 2x2x2 Tucker core."""
    return hyperdet_sign(_core(T, _top_frames(T, 2)))


@lru_cache(maxsize=None)
def _packed_positions(n: int, d: int) -> np.ndarray:
    slot = {idx: p for p, idx in
            enumerate(combinations_with_replacement(range(n), d))}
    return np.array([slot[tuple(sorted(full))]
                     for full in product(range(n), repeat=d)])


def dense_symmetric(n: int, d: int, packed: np.ndarray) -> np.ndarray:
    """Full n^d array from coefficients stored once per nondecreasing
    multi-index in lexicographic order."""
    return np.asarray(packed)[_packed_positions(n, d)].reshape((n,) * d)


# ---------------------------------------------------------------------------
# stratum membership and labels


def member_label(spec: dict, T: np.ndarray) -> str | None:
    """Oracle component label of T in the stratum ``spec``, or None where the
    stratum has one component or no proven count. Raises ``Ambiguous`` near
    a boundary and ``ValueError`` when T is outside the stratum."""
    kind = spec["kind"]
    ranks = flattening_ranks(T)
    if kind == "mrank":
        if ranks != spec["r"]:
            raise ValueError(f"flattening ranks {ranks}, want {spec['r']}")
        if spec.get("det_sign_mode") is None:
            return None
        M = unfold(T, spec["det_sign_mode"])
        return "+" if np.linalg.slogdet(M)[0] > 0 else "-"
    if ranks != spec["flattening_ranks"]:
        raise ValueError(f"flattening ranks {ranks}, want {spec['flattening_ranks']}")
    if kind == "brank3-222":
        if hyperdet_sign(T) > 0:
            raise ValueError("positive hyperdeterminant: real rank two")
        return sign_triple(T)
    if kind == "rank2-tucker":
        if tucker_hyperdet_sign(T) < 0:
            raise ValueError("negative core hyperdeterminant: real rank above two")
        return None
    if kind == "sym-even":
        pos, neg = square_signature(T)
        if pos + neg != spec["r"]:
            raise ValueError(f"square flattening signature ({pos}, {neg})")
        return str(pos)
    if kind == "sym-cubic-rank2":
        if span_cubic_sign(T) > 0:
            raise ValueError("positive binary cubic discriminant: real rank three")
        return None
    if kind == "flattening":
        return None
    raise ValueError(f"no oracle for {kind!r}")
