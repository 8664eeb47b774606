import hashlib

import numpy as np
import pytest

from tensortopo import (COMPLEX, REAL, RetryExhausted, SplitMix64,
                        derive_seed, expected_generic_mrank, hyperdet222,
                        is_rank_one, mrank,
                        outer_product, random_invertible, random_orthogonal,
                        sample_fixed_mrank, sample_rank_r, sample_sym_mrank,
                        sample_sym_rank_r, sym_embed)
from tensortopo import kinds, sampling
from tensortopo.certify import Kind222, classify_222
from tensortopo.rng import normal_block


def test_expected_generic_mrank():
    assert expected_generic_mrank((3, 4, 5), 1) == (1, 1, 1)
    assert expected_generic_mrank((3, 4, 5), 2) == (2, 2, 2)
    assert expected_generic_mrank((2, 2, 2), 3) == (2, 2, 2)
    assert expected_generic_mrank((3, 3, 3), 4) == (3, 3, 3)
    # capped by products of the others, not only by r
    assert expected_generic_mrank((6, 2, 2), 5) == (4, 2, 2)


def test_sample_rank_r_certifies_rank_one():
    rng = SplitMix64(61)
    for field in (REAL, COMPLEX):
        T, terms = sample_rank_r((3, 4, 5), 1, field, rng)
        assert len(terms) == 1
        ok, _ = is_rank_one(T)
        assert ok
        assert np.allclose(T.data, outer_product(terms[0]).data, atol=1e-12)


def test_sample_rank_r_222_real_is_classified():
    rng = SplitMix64(62)
    for r, kind in ((2, Kind222.RANK2), (3, Kind222.BORDER_RANK3)):
        T, terms = sample_rank_r((2, 2, 2), r, REAL, rng)
        assert classify_222(T).kind is kind
        assert tuple(mrank(T)) == (2, 2, 2)


def test_sample_rank_r_reconstruction():
    rng = SplitMix64(63)
    T, terms = sample_rank_r((3, 3, 3), 2, REAL, rng)
    rebuilt = sum(outer_product(t).data for t in terms)
    assert np.allclose(T.data, rebuilt, atol=1e-12)
    assert tuple(mrank(T)) == (2, 2, 2)


def test_sample_rank_r_deterministic():
    a, _ = sample_rank_r((3, 3, 3), 2, REAL, SplitMix64(64))
    b, _ = sample_rank_r((3, 3, 3), 2, REAL, SplitMix64(64))
    assert np.array_equal(a.data, b.data)


def test_sample_sym_rank_r_signature_control():
    rng = SplitMix64(65)
    for target in (0, 1, 2):
        S, dec = sample_sym_rank_r(4, 4, 2, signature=target, rng=rng)
        assert dec.signature() == target
        assert len(dec) == 2
        assert np.allclose(dec.tensor().packed, S.packed, atol=1e-12)


def test_sample_sym_rank_r_odd_order():
    rng = SplitMix64(66)
    S, dec = sample_sym_rank_r(4, 3, 2, rng=rng)
    assert S.order == 3 and S.dim == 4
    E = sym_embed(S)
    assert tuple(mrank(E)) == (2, 2, 2)


def test_sample_sym_rank_r_rejects_impossible_signature():
    with pytest.raises(ValueError):
        sample_sym_rank_r(4, 4, 2, signature=3, rng=SplitMix64(67))


def test_sample_fixed_mrank_hits_target():
    rng = SplitMix64(68)
    for shape, ranks, field in (((3, 3, 3), (2, 2, 2), REAL),
                                ((4, 2, 2), (4, 2, 2), REAL),
                                ((5, 2, 2), (4, 2, 2), REAL),
                                ((2, 2, 2), (2, 2, 2), COMPLEX)):
        A, rep = sample_fixed_mrank(shape, ranks, field, rng)
        assert A.shape == shape
        assert tuple(mrank(A)) == ranks
        assert rep.core.shape == ranks


def test_sample_sym_mrank_hits_target():
    rng = SplitMix64(69)
    S = sample_sym_mrank(4, 3, 2, rng=rng)
    assert (S.dim, S.order) == (4, 3)
    assert tuple(mrank(sym_embed(S))) == (2, 2, 2)
    M = sample_sym_mrank(4, 2, 3, rng=rng)
    assert tuple(mrank(sym_embed(M))) == (3, 3)


def test_random_invertible_det_sign():
    rng = SplitMix64(70)
    for sign in (1, -1):
        for _ in range(5):
            M = random_invertible(3, rng, REAL, det_sign=sign)
            assert np.sign(np.linalg.det(M)) == sign
    Z = random_invertible(3, rng, COMPLEX)
    assert abs(np.linalg.det(Z)) > 1e-8


def test_random_orthogonal_is_orthogonal():
    rng = SplitMix64(71)
    Q = random_orthogonal(4, rng)
    assert np.allclose(Q.T @ Q, np.eye(4), atol=1e-12)
    U = random_orthogonal(4, rng, COMPLEX)
    assert np.allclose(U.conj().T @ U, np.eye(4), atol=1e-12)


def test_impossible_target_exhausts_retries():
    # rank 4 on (2, 2, 2) over R exceeds the maximal possible rank 3
    with pytest.raises((RetryExhausted, ValueError)):
        sample_rank_r((2, 2, 2), 4, REAL, SplitMix64(72))


def test_rank3_222_real_survives_a_long_redraw_run():
    # this stream rejects more than 100 draws in a row before one lands in
    # the border-rank-three region (about one draw in ten does)
    rng = SplitMix64(derive_seed(3304483664418628671, 140))
    A, terms = sample_rank_r((2, 2, 2), 3, REAL, rng)
    assert len(terms) == 3
    assert classify_222(A).kind is Kind222.BORDER_RANK3
    assert hyperdet222(A) == pytest.approx(-1.51, abs=0.01)


# SHA-256 of the first 20 draws from SplitMix64(0), one stratum or more per
# kind record, recorded before the samplers shared one redraw loop: every
# attempt draws its whole candidate first, and the membership rule accepts
# exactly the draws the per-sampler checks accepted, so the streams hold
_PINNED_DRAWS = {
    "rank1-real": (
        lambda rng: sample_rank_r((3, 4, 5), 1, REAL, rng)[0].data,
        "16defe6a26f329e85dcae868b2a120c144e47f6577e0430de84e0af1e5275214"),
    "rank1-complex": (
        lambda rng: sample_rank_r((3, 4, 5), 1, COMPLEX, rng)[0].data,
        "ead86d020818f3540d31b898e9cb392a58c91c15aff2e85dd5d2a76761157e52"),
    "rank2-real-222": (
        lambda rng: sample_rank_r((2, 2, 2), 2, REAL, rng)[0].data,
        "91d4217e2dbaf7f57dbe24995bcfc5072a9c81783d4870b9924aff58de45e2e7"),
    "rank2-real": (
        lambda rng: sample_rank_r((3, 3, 3), 2, REAL, rng)[0].data,
        "4d8dbffbc3d7620d4fc7a5efbe5e3e2bd6a2b9d981d46b58be061cf4ca4e411f"),
    "rank2-complex": (
        lambda rng: sample_rank_r((3, 3, 3), 2, COMPLEX, rng)[0].data,
        "47a92d20269366340bffc0490a45f778963ddc85f52e507e9797fcbdc7714e29"),
    "rank3-real-222": (
        lambda rng: sample_rank_r((2, 2, 2), 3, REAL, rng)[0].data,
        "237cfe7fd012e751d30b42fdb4ce49870dc83fc4bc5451855e15e6cb906945a4"),
    "sym-rank-even": (
        lambda rng: sample_sym_rank_r(4, 4, 2, rng=rng)[0].packed,
        "135abf412da2040813210dc5e52fb6114f554ab069a8115ca7aaa100f7e209a4"),
    "sym-rank-odd": (
        lambda rng: sample_sym_rank_r(4, 3, 2, rng=rng)[0].packed,
        "1fcda492dbbf26743a7243cb41601e8a64782f849a26a1d73332597f150de584"),
    "sym-rank-complex": (
        lambda rng: sample_sym_rank_r(3, 3, 2, field=COMPLEX, rng=rng)[0].packed,
        "f761fa69c45a15c0109b821c2d9de127f7c03c93c8188ef01aacb9bef301f3fd"),
    "mrank-real": (
        lambda rng: sample_fixed_mrank((4, 2, 2), (4, 2, 2), REAL, rng)[0].data,
        "e016316539aecbeec9355adbf85279f9aaa827d463e4fc7054ad9ddf1f8172e6"),
    "mrank-complex": (
        lambda rng: sample_fixed_mrank((2, 2, 2), (2, 2, 2), COMPLEX, rng)[0].data,
        "7256012c0d2eba44bb38c1b4c8332cd3fce43297ec0a2bde10c45250170fd304"),
    "sym-mrank": (
        lambda rng: sample_sym_mrank(4, 3, 2, rng=rng).packed,
        "3a5e7b9d4bc2ffe45728ad50db7181cd48651b328586beed4e12be969be84dbd"),
    "sym-mrank-quadratic": (
        lambda rng: sample_sym_mrank(4, 2, 3, rng=rng).packed,
        "ef9e377b1f0e1c569ee5e7cf59cfe4ea0f91ae0fdc5c995c3e28d57f73d62abd"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_DRAWS))
def test_sampler_draws_are_pinned(name):
    draw, expected = _PINNED_DRAWS[name]
    rng = SplitMix64(0)
    digest = hashlib.sha256()
    for _ in range(20):
        digest.update(draw(rng).tobytes())
    assert digest.hexdigest() == expected


def _rank3_stream_digest(rng: SplitMix64, draws: int) -> str:
    """SHA-256 over ``draws`` rank-three 2x2x2 draws: each tensor, its
    witness terms (scalar type and bits, factor bits) and the generator's
    whole state after the draw."""
    digest = hashlib.sha256()
    for _ in range(draws):
        A, terms = sample_rank_r((2, 2, 2), 3, REAL, rng)
        digest.update(A.data.tobytes())
        for term in terms:
            digest.update(type(term.scalar).__name__.encode())
            digest.update(np.float64(term.scalar).tobytes())
            for f in term.factors:
                digest.update(f.tobytes())
        digest.update(rng._state.to_bytes(8, "little"))
        digest.update(b"-" if rng._spare is None
                      else np.float64(rng._spare).tobytes())
    return digest.hexdigest()


# recorded while the rank-three sampler built and screened one candidate at
# a time: screening candidates in chunks keeps every draw, every witness and
# the generator state after each draw
_RANK3_STREAMS = {
    3: "b5e745b7c91a51c0ca6f886963e0f16d3304d3c04815adc6e6935d5abd644000",
    5: "3d6308df914f2d4717e74199610cb96e24e037b346cb0765c6757ca459fe5449",
    17: "605617ef5bb97f222e75767ff73db42a3ad7a0c71eb554e6990e5195c76eb293",
}


@pytest.mark.parametrize("seed", sorted(_RANK3_STREAMS))
def test_rank3_sampler_witnesses_and_generator_state_are_pinned(seed):
    assert _rank3_stream_digest(SplitMix64(seed), 200) == _RANK3_STREAMS[seed]


class _ZeroingStream(SplitMix64):
    """SplitMix64 with two normals in every 50 set to zero, so that some
    unit factors, vectors and coefficients come out zero and their
    candidates are rejected. Its state counts the
    normals drawn or skipped; _zeroing_block puts the same zeros in the
    samplers' blocks."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.count = 0

    def state(self) -> tuple:
        return super().state() + (self.count,)

    def skip(self, count: int) -> None:
        super().skip(count)
        self.count += count

    def normal(self) -> float:
        index, self.count = self.count, self.count + 1
        z = super().normal()
        return 0.0 if index % 50 < 2 else z


def _zeroing_block(rngs, count):
    out = normal_block(rngs, count)
    for row, rng in zip(out, rngs):
        row[[k for k in range(count) if (rng.count + k) % 50 < 2]] = 0.0
    return out


# SHA-256 over the 60 zero-injected draws of _ZeroingStream(4), each
# tensor, its witness terms and the generator's state, spare and normals
# count after the draw. Re-pinned when a candidate with a vanishing unit
# factor became a rejected draw, as one with a vanishing coefficient is: the
# stream now moves past all of that candidate's normals, where it used to
# redraw the factor alone from the generator, so later draws moved
_ZEROED_STREAM = "64670d8be2507d409d2d65a44b83c8b66aa9154da4861faa92060d317f0f534e"


def _zeroed_stream_digest(draws) -> str:
    digest = hashlib.sha256()
    for data, (state, spare, count), terms in draws:
        digest.update(data)
        for scalar, factors in terms:
            digest.update(type(scalar).__name__.encode())
            digest.update(np.float64(scalar).tobytes())
            for f in factors:
                digest.update(f)
        digest.update(state.to_bytes(8, "little"))
        digest.update(b"-" if spare is None else np.float64(spare).tobytes())
        digest.update(count.to_bytes(8, "little"))
    return digest.hexdigest()


def _vanishing_rows(monkeypatch, name: str) -> list:
    """Wrap the block builder ``sampling.<name>``: the list gets, per
    candidate it builds, whether the builder rejected it itself (status
    False), and the candidate's Gaussians."""
    seen = []
    make = getattr(sampling, name)

    def counting(*args):
        builder = make(*args)

        def build(rows, owners):
            stack, status, drawn = builder.build(rows, owners)
            seen.extend((s is False, row.copy()) for s, row in zip(status, rows))
            return stack, status, drawn
        return builder._replace(build=build)

    monkeypatch.setattr(sampling, name, counting)
    return seen


def test_rank3_chunks_reject_a_vanishing_factor_as_one_candidate_does(monkeypatch):
    def stream(chunk):
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
        rng = _ZeroingStream(4)
        out = []
        for _ in range(60):
            A, terms = sample_rank_r((2, 2, 2), 3, REAL, rng)
            out.append((A.data.tobytes(), rng.state(),
                        [(t.scalar, [f.tobytes() for f in t.factors]) for t in terms]))
        return out

    monkeypatch.setattr(sampling, "normal_block", _zeroing_block)
    chunked = stream(16)
    assert _zeroed_stream_digest(chunked) == _ZEROED_STREAM
    seen = _vanishing_rows(monkeypatch, "_rank_r_builder")
    assert chunked == stream(1)
    # one candidate a round: every candidate built is judged or rejected,
    # and the rejected ones are those with a zero unit factor
    rejected = [rows for no, rows in seen if no]
    assert len(rejected) > 0
    for rows in rejected:
        factors = rows.reshape(3, 7)[:, :6].reshape(3, 3, 2)
        assert (~factors.any(axis=2)).any()


def test_sym_rank_rejects_a_vanishing_vector_as_a_vanishing_coefficient(monkeypatch):
    """Zero-injected symmetric rank-two draws: a candidate with a zero unit
    vector and one with a zero coefficient are both rejected draws, each
    moving the stream past all of its normals, and no draw keeps either."""
    monkeypatch.setattr(sampling, "normal_block", _zeroing_block)
    seen = _vanishing_rows(monkeypatch, "_sym_rank_r_builder")
    rng = _ZeroingStream(6)
    for _ in range(60):
        S, D = sample_sym_rank_r(2, 4, 2, signature=1, rng=rng)
        # one candidate a round: the normals drawn are the candidates built
        assert rng.count == 6 * len(seen)
        assert min(abs(lam) for lam in D.coefficients) >= 1e-6
        assert min(np.linalg.norm(v) for v in D.vectors) > 0.5
    vectors = [no for no, rows in seen if not rows[:4].reshape(2, 2).any(axis=1).all()]
    coefficients = [no for no, rows in seen
                    if rows[:4].reshape(2, 2).any(axis=1).all() and not rows[4:].all()]
    assert len(vectors) > 0 and len(coefficients) > 0
    assert all(vectors) and all(coefficients)
    assert sum(no for no, _rows in seen) == len(vectors) + len(coefficients)


def test_rank3_screen_that_never_passes_exhausts_after_the_cap(monkeypatch):
    screened = []

    def never(self, stratum, stack, tol):
        screened.append(len(stack))
        return [False] * len(stack)

    monkeypatch.setattr(kinds.BorderRank3, "screen", never)
    rng = SplitMix64(9)
    with pytest.raises(RetryExhausted) as info:
        sample_rank_r((2, 2, 2), 3, REAL, rng)
    assert str(info.value) == ("could not certify a sample of "
                               "rank:r=3;shape=2,2,2;field=real after 1000 redraws")
    assert sum(screened) == 1 + sampling._MAX_REDRAWS
    # every candidate drew its 21 normals, and no more were drawn
    reference = SplitMix64(9)
    reference.normals(21 * (1 + sampling._MAX_REDRAWS))
    assert (rng._state, rng._spare) == (reference._state, reference._spare)
