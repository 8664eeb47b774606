import itertools
import math

import numpy as np
import pytest

from tensortopo import (COMPLEX, REAL, GrassmannGeodesic, GrassmannPoint,
                        Hypermatrix, OrientationLoop, SplitMix64,
                        dominant_subspace, geodesic, gl_interpolator,
                        mode_multiply, orthogonal_interpolator,
                        random_orthogonal, sym_power, sym_tucker_compress,
                        sym_tucker_expand, tucker_compress, tucker_expand)
from tensortopo import geometry as geometry_module
from tensortopo.core import (flattening_det_signs, mrank_admissible, sym_embed_stack,
                             sym_mrank_stack)
from tensortopo.geometry import (dominant_frames, flip_exponent, principal_angles,
                                 so_rotation_path, sym_tucker_stack, tucker_stack)
from tensortopo.paths import chebyshev_grid
from tensortopo.sampling import sample_sym_mrank

TS = np.linspace(0.0, 1.0, 9)


def _frame(rng, n, r, field=REAL):
    draw = rng.complex_normals if field == COMPLEX else rng.normals
    Q, _ = np.linalg.qr(draw((n, r)))
    return GrassmannPoint(Q, field)


def test_grassmann_point_requires_orthonormal_columns():
    with pytest.raises(ValueError):
        GrassmannPoint(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), REAL)


def test_principal_angles_extremes():
    e12 = GrassmannPoint(np.eye(4)[:, :2], REAL)
    e34 = GrassmannPoint(np.eye(4)[:, 2:], REAL)
    assert np.allclose(principal_angles(e12, e12), 0.0, atol=1e-7)
    assert np.allclose(principal_angles(e12, e34), np.pi / 2, atol=1e-12)


def test_geodesic_endpoints_and_orthonormality():
    rng = SplitMix64(41)
    for field in (REAL, COMPLEX):
        a = _frame(rng, 6, 2, field)
        b = _frame(rng, 6, 2, field)
        geo = GrassmannGeodesic(a, b)
        assert np.allclose(geo.frame(0.0), a.frame, atol=1e-12)
        end = geo.frame(1.0)
        # frame(1) spans b up to the twist
        assert np.allclose(end, b.frame @ geo.twist, atol=1e-10)
        tw = geo.twist
        assert np.allclose(tw.conj().T @ tw, np.eye(2), atol=1e-12)
        for t in TS:
            F = geo.frame(t)
            assert np.allclose(F.conj().T @ F, np.eye(2), atol=1e-10)


def test_geodesic_function_form():
    rng = SplitMix64(42)
    a = _frame(rng, 5, 2)
    b = _frame(rng, 5, 2)
    point, twist = geodesic(a, b, 0.5)
    geo = GrassmannGeodesic(a, b)
    assert np.allclose(point.frame, geo.frame(0.5), atol=1e-12)
    assert np.allclose(twist, geo.twist, atol=1e-12)


def test_geodesic_shape_mismatch():
    rng = SplitMix64(43)
    with pytest.raises(ValueError):
        GrassmannGeodesic(_frame(rng, 5, 2), _frame(rng, 6, 2))


def test_orientation_loop_closes_with_holonomy():
    rng = SplitMix64(44)
    p = _frame(rng, 5, 3)
    loop = OrientationLoop(p)
    assert np.allclose(loop.frame(0.0), p.frame, atol=1e-12)
    assert np.allclose(loop.frame(1.0), p.frame @ loop.holonomy, atol=1e-12)
    assert np.allclose(loop.holonomy, np.diag([-1.0, 1.0, 1.0]), atol=0)
    for t in TS:
        F = loop.frame(t)
        assert np.allclose(F.T @ F, np.eye(3), atol=1e-10)


def test_orientation_loop_needs_room():
    rng = SplitMix64(45)
    with pytest.raises(ValueError):
        OrientationLoop(_frame(rng, 3, 3))


def _admissible_rank_tuples(max_order=5, max_rank=6):
    for d in range(2, max_order + 1):
        for ranks in itertools.product(range(1, max_rank + 1), repeat=d):
            if mrank_admissible(ranks):
                yield ranks


def _square_modes(ranks):
    return [i for i, r in enumerate(ranks) if r * r == math.prod(ranks)]


def test_flip_exponent_parity_is_shared_by_every_square_mode():
    """Why connect_mrank never needs more than one orientation loop: a loop
    at mode m negates all square-mode determinants or none."""
    tuples = 0
    for ranks in _admissible_rank_tuples():
        square = _square_modes(ranks)
        if not square:
            continue
        tuples += 1
        for m in range(len(ranks)):
            assert len({flip_exponent(ranks, i, m) % 2 for i in square}) == 1, (ranks, m)
    assert tuples > 100


def test_gaussian_core_square_flattenings_share_det_signs():
    rng = SplitMix64(49)
    seen = 0
    for ranks in _admissible_rank_tuples():
        square = [i + 1 for i in _square_modes(ranks)]
        if len(square) < 2:
            continue
        seen += 1
        for _ in range(3):
            core = rng.normals(ranks)
            signs = flattening_det_signs(core[None], square)[0]
            assert len(set(signs)) == 1, (ranks, signs)
            # a loop's holonomy at mode m multiplies the sign by
            # (-1)^flip_exponent at every square mode
            for m in range(len(ranks)):
                h = np.eye(ranks[m])
                h[0, 0] = -1.0
                moved = mode_multiply(core, [h if k == m else None
                                             for k in range(len(ranks))])
                after = flattening_det_signs(moved[None], square)[0]
                assert after == tuple(
                    s * (-1) ** flip_exponent(ranks, i - 1, m)
                    for s, i in zip(signs, square)), (ranks, m)
    assert seen > 10


def test_dominant_subspace_spans_mode_image():
    rng = SplitMix64(46)
    core = rng.normals((2, 3, 2))
    mats = [rng.normals((5, 2)), rng.normals((4, 3)), rng.normals((6, 2))]
    A = Hypermatrix(mode_multiply(core, mats), REAL)
    p = dominant_subspace(A, 1, 2)
    # the projector reproduces the column space of the mode-1 factor
    proj = p.frame @ p.frame.T
    assert np.allclose(proj @ mats[0], mats[0], atol=1e-10)


def test_tucker_round_trip():
    rng = SplitMix64(47)
    core = rng.normals((2, 2, 3))
    mats = [rng.normals((4, 2)), rng.normals((5, 2)), rng.normals((5, 3))]
    A = Hypermatrix(mode_multiply(core, mats), REAL)
    rep = tucker_compress(A, (2, 2, 3))
    back = tucker_expand(rep)
    assert np.allclose(back.data, A.data, atol=1e-10 * A.norm())
    assert rep.core.shape == (2, 2, 3)


def test_sym_tucker_round_trip():
    rng = SplitMix64(48)
    v1, v2 = rng.normals(5), rng.normals(5)
    S = sym_power(v1, 3)
    packed = S.packed + sym_power(v2, 3).packed
    from tensortopo import SymTensor
    S = SymTensor(5, 3, REAL, packed)
    frame, core = sym_tucker_compress(S, 2)
    back = sym_tucker_expand(frame, core)
    assert np.allclose(back.packed, S.packed, atol=1e-10 * S.norm())
    assert core.dim == 2 and core.order == 3


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("d", [2, 3])
def test_sym_tucker_stack_rows_match_sym_tucker_compress(field, d):
    """Each row of a stacked compression, on the ranks sym_mrank_stack
    reads, has the frame and core bits sym_tucker_compress gives it alone."""
    rng = SplitMix64(50)
    tensors = [sample_sym_mrank(4, d, 2, field, rng) for _ in range(3)]
    packed = np.stack([S.packed for S in tensors])
    ranks, _ = sym_mrank_stack(packed, 4, d)
    frames, cores = sym_tucker_stack(packed, 4, d, 2, ranks[:, 0].tolist())
    for S, F, core in zip(tensors, frames, cores):
        frame, one = sym_tucker_compress(S, 2)
        assert np.array_equal(F, frame.frame)
        assert np.array_equal(core, one.packed)


@pytest.mark.parametrize("d,n", [(3, 4), (4, 4), (4, 3)])
def test_tucker_stack_takes_one_frame_for_a_symmetric_tensor(monkeypatch, d, n):
    """Every flattening of an embedded symmetric tensor is the same matrix,
    so tucker_stack reads mode 1's frames once and gives every mode those
    bits, the frames dominant_frames gives each mode alone; a tensor that
    is not symmetric still reads every mode."""
    rng = SplitMix64(54)
    packed = np.stack([sample_sym_mrank(n, d, 2, REAL, rng).packed for _ in range(5)])
    data = sym_embed_stack(packed, n, d)
    alone = [dominant_frames(data, m + 1, 2, None)[0] for m in range(d)]
    modes = []
    real = geometry_module.dominant_frames
    monkeypatch.setattr(geometry_module, "dominant_frames",
                        lambda data, mode, *args: modes.append(mode) or real(data, mode, *args))
    frames, _core, errors = tucker_stack(data, (2,) * d, None)
    assert modes == [1] and errors == [None] * 5
    assert all(np.array_equal(F, want) for F, want in zip(frames, alone))
    modes.clear()
    tucker_stack(data + 1e-3 * rng.normals(data.shape), (n,) * d, None)
    assert modes == list(range(1, d + 1))


def _plane_turn(n, turns):
    """I_n turned by angle theta in each plane (a, b) of ``turns``."""
    Q = np.eye(n)
    for a, b, theta in turns:
        G = np.eye(n)
        G[[a, a, b, b], [a, b, a, b]] = [np.cos(theta), -np.sin(theta),
                                         np.sin(theta), np.cos(theta)]
        Q = Q @ G
    return Q


def test_so_rotation_path_endpoints_and_orthogonality():
    rng = SplitMix64(49)
    cases = []
    for n in (2, 3, 5):
        Q = random_orthogonal(n, rng)
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        cases.append(Q)
    signed_permutation = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    assert np.linalg.det(signed_permutation) > 0
    cases += [np.eye(1), -np.eye(2), -np.eye(4), np.diag([-1.0, -1.0, 1.0]),
              signed_permutation, _plane_turn(3, [(0, 2, 1e-9)]),
              _plane_turn(3, [(1, 2, np.pi - 1e-9)]),
              _plane_turn(4, [(0, 1, 0.7), (2, 3, 0.7)])]
    for Q in cases:
        n = Q.shape[0]
        path = so_rotation_path(Q)
        assert np.array_equal(path(0.0), np.eye(n))
        assert np.abs(path(1.0) - Q).max() <= 1e-12
        for t in TS:
            R = path(t)
            assert np.allclose(R.T @ R, np.eye(n), atol=1e-12)
            assert np.linalg.det(R) > 0


def test_so_rotation_path_rejects_reflections():
    with pytest.raises(ValueError):
        so_rotation_path(np.diag([-1.0, 1.0]))
    with pytest.raises(ValueError):
        so_rotation_path(2.0 * np.eye(2))


def test_orthogonal_interpolator_endpoints():
    rng = SplitMix64(50)
    pairs = []
    for _ in range(4):
        Q0 = random_orthogonal(4, rng)
        Q1 = random_orthogonal(4, rng)
        if np.linalg.det(Q0) * np.linalg.det(Q1) < 0:
            Q1 = Q1.copy()
            Q1[:, 0] = -Q1[:, 0]
        pairs.append((Q0, Q1))
    Q0, Q1 = random_orthogonal(4, rng), random_orthogonal(4, rng)
    Q0[:, 0] *= -np.sign(np.linalg.det(Q0))
    Q1[:, 0] *= -np.sign(np.linalg.det(Q1))
    assert np.linalg.det(Q0) < 0 and np.linalg.det(Q1) < 0
    pairs.append((Q0, Q1))  # two reflections
    for Q0, Q1 in pairs:
        f = orthogonal_interpolator(Q0, Q1)
        assert np.allclose(f(0.0), Q0, atol=1e-10)
        assert np.allclose(f(1.0), Q1, atol=1e-10)
        det0 = np.linalg.det(Q0)
        for t in TS:
            R = f(t)
            assert np.allclose(R.T @ R, np.eye(4), atol=1e-10)
            assert np.linalg.det(R) * det0 > 0


def test_orthogonal_interpolator_rejects_det_mismatch():
    with pytest.raises(ValueError):
        orthogonal_interpolator(np.eye(3), np.diag([-1.0, 1.0, 1.0]))


def test_gl_interpolator_endpoints_and_det_sign():
    rng = SplitMix64(51)
    for _ in range(6):
        M0 = rng.normals((3, 3))
        M1 = rng.normals((3, 3))
        if np.linalg.det(M0) * np.linalg.det(M1) < 0:
            M1 = M1.copy()
            M1[0] = -M1[0]
        f = gl_interpolator(M0, M1)
        assert np.allclose(f(0.0), M0, atol=1e-9)
        assert np.allclose(f(1.0), M1, atol=1e-9)
        s0 = np.sign(np.linalg.det(M0))
        for t in TS:
            assert np.sign(np.linalg.det(f(t))) == s0


def test_gl_interpolator_rejects_det_mismatch():
    with pytest.raises(ValueError):
        gl_interpolator(np.eye(2), np.diag([-1.0, 1.0]))


def test_gl_interpolator_rejects_rectangular():
    rng = SplitMix64(52)
    with pytest.raises(ValueError):
        gl_interpolator(rng.normals((2, 5)), rng.normals((2, 5)))


def _stacked_interpolators():
    """Per interpolator that takes an array of t: (callable of t, its ends)."""
    rng = SplitMix64(53)
    Q = random_orthogonal(4, rng)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    Q0, Q1 = random_orthogonal(3, rng), random_orthogonal(3, rng)
    if np.linalg.det(Q0) * np.linalg.det(Q1) < 0:
        Q1[:, 0] = -Q1[:, 0]
    M0, M1 = rng.normals((3, 3)), rng.normals((3, 3))
    if np.linalg.det(M0) * np.linalg.det(M1) < 0:
        M1[0] = -M1[0]
    a, b = _frame(rng, 6, 2, COMPLEX), _frame(rng, 6, 2, COMPLEX)
    geo = GrassmannGeodesic(a, b)
    p = _frame(rng, 5, 3)
    loop = OrientationLoop(p)
    return {"so_rotation_path": (so_rotation_path(Q), np.eye(4), Q),
            "orthogonal_interpolator": (orthogonal_interpolator(Q0, Q1), Q0, Q1),
            "gl_interpolator": (gl_interpolator(M0, M1), M0, M1),
            "GrassmannGeodesic.frame": (geo.frame, a.frame, b.frame @ geo.twist),
            "OrientationLoop.frame": (loop.frame, p.frame, p.frame @ loop.holonomy)}


@pytest.mark.parametrize("name", ["so_rotation_path", "orthogonal_interpolator",
                                  "gl_interpolator", "GrassmannGeodesic.frame",
                                  "OrientationLoop.frame"])
def test_stacked_interpolators_match_their_scalar_calls(name):
    f, start, end = _stacked_interpolators()[name]
    ts = chebyshev_grid(64) + [0.0, 1.0]
    rows = f(np.array(ts))
    assert rows.shape == (len(ts),) + start.shape
    for t, row in zip(ts, rows):
        assert np.array_equal(row, f(t)), t
    # both ends come out of the stack as the scalar calls give them
    assert np.array_equal(rows[-2], f(0.0)) and np.array_equal(rows[-1], f(1.0))
    assert np.allclose(rows[-2], start, atol=1e-9)
    assert np.allclose(rows[-1], end, atol=1e-9)
