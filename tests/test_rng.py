import numpy as np
import pytest

from tensortopo import SplitMix64, derive_seed
from tensortopo.rng import normal_block


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_random_in_unit_interval():
    gen = SplitMix64(3)
    xs = [gen.random() for _ in range(2000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < np.mean(xs) < 0.6


def test_normals_shape_and_moments():
    gen = SplitMix64(4)
    x = gen.normals((50, 40))
    assert x.shape == (50, 40)
    assert x.dtype == np.float64
    assert abs(x.mean()) < 0.1
    assert abs(x.std() - 1.0) < 0.05


def test_normals_scalar_shape():
    gen = SplitMix64(5)
    assert gen.normals(7).shape == (7,)


def test_complex_normals_parts():
    gen = SplitMix64(6)
    z = gen.complex_normals((30, 30))
    assert z.dtype == np.complex128
    # real and imaginary parts are independent unit Gaussians
    assert abs(z.real.std() - 1.0) < 0.1
    assert abs(z.imag.std() - 1.0) < 0.1
    assert abs(np.mean(z.real * z.imag)) < 0.1


def test_integers_bounds_and_errors():
    gen = SplitMix64(8)
    draws = [gen.integers(-3, 5) for _ in range(500)]
    assert min(draws) == -3 and max(draws) == 4
    with pytest.raises(ValueError):
        gen.integers(2, 2)


def test_spawn_matches_derive_seed():
    gen = SplitMix64(99)
    child = gen.spawn(17)
    assert child.seed == derive_seed(99, 17)
    # spawning does not advance the parent stream
    fresh = SplitMix64(99)
    assert gen.next_u64() == fresh.next_u64()


def test_derive_seed_injective_in_practice():
    seeds = {derive_seed(0, i) for i in range(4096)}
    assert len(seeds) == 4096
    assert {derive_seed(1, i) for i in range(64)}.isdisjoint(
        {derive_seed(2, i) for i in range(64)})


def _streams(count: int) -> list:
    """Fresh streams, streams with a pending spare and streams one u64 in
    (after ``integers``), in turn."""
    gens = [SplitMix64(derive_seed(11, i)) for i in range(count)]
    for k, gen in enumerate(gens):
        if k % 3 == 1:
            gen.normal()
        elif k % 3 == 2:
            gen.integers(0, 7)
    return gens


def _copy(gen: SplitMix64) -> SplitMix64:
    twin = SplitMix64(gen.seed)
    twin._state, twin._spare = gen.state()
    return twin


def test_normal_block_is_normal_called_one_at_a_time():
    gens = _streams(60)
    block = normal_block(gens, 1999)  # odd, so streams end mid-pair
    assert block.shape == (60, 1999) and block.size >= 100_000
    for gen, row in zip(gens, block):
        twin = _copy(gen)
        assert np.array_equal(row, [twin.normal() for _ in range(1999)])


def test_normal_block_leaves_the_generators_where_they_were():
    gens = _streams(9)
    before = [gen.state() for gen in gens]
    normal_block(gens, 25)
    assert [gen.state() for gen in gens] == before


@pytest.mark.parametrize("count", [0, 1, 2, 7, 8, 21])
def test_skip_leaves_the_state_that_drawing_leaves(count):
    for gen in _streams(51):
        twin = _copy(gen)
        gen.skip(count)
        for _ in range(count):
            twin.normal()
        assert gen.state() == twin.state()
        assert gen.normal() == twin.normal()
