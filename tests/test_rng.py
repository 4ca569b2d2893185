import collections

import pytest

from edgemap.rng import Prng, entropy_seed

MASK = 0xFFFFFFFFFFFFFFFF


def reference_stream(seed, count):
    """Independent transcription of splitmix64 seeding + xorshift64*."""
    x = seed & MASK
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    state = x ^ (x >> 31)
    if state == 0:
        state = 1
    out = []
    for _ in range(count):
        state ^= state >> 12
        state = (state ^ (state << 25)) & MASK
        state ^= state >> 27
        out.append((state * 0x2545F4914F6CDD1D) & MASK)
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**63, MASK])
def test_stream_matches_reference(seed):
    p = Prng(seed)
    assert [p.next_u64() for _ in range(64)] == reference_stream(seed, 64)


def test_same_seed_same_stream():
    a, b = Prng(1234), Prng(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_diverge():
    a, b = Prng(1), Prng(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_below_range_and_coverage():
    p = Prng(5)
    seen = set()
    for _ in range(2000):
        v = p.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Prng(1).below(0)


def test_uniform_int_inclusive_bounds():
    p = Prng(9)
    draws = [p.uniform_int(3, 5) for _ in range(500)]
    assert set(draws) == {3, 4, 5}
    assert p.uniform_int(4, 4) == 4
    with pytest.raises(ValueError):
        p.uniform_int(5, 4)


def test_shuffle_is_permutation():
    p = Prng(11)
    items = list(range(100))
    out = p.shuffle(items)
    assert out is items
    assert sorted(out) == list(range(100))


def test_shuffle_matches_fisher_yates_oracle():
    for size in (10, 1024):  # 1,024: the size of a port order
        recorder = Prng(77)
        mirror = Prng(77)
        items = list(range(size))
        recorder.shuffle(items)
        # replay the same draws against a hand-written Fisher-Yates
        expected = list(range(size))
        for i in range(size - 1, 0, -1):
            j = mirror.below(i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        assert items == expected


def unshift_right(y, s):
    """Invert `x ^= x >> s`: each pass fixes s more of the high bits."""
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


def unshift_left(y, s):
    """Invert `x ^= x << s` on 64 bits."""
    x = y
    for _ in range(64 // s):
        x = y ^ ((x << s) & MASK)
    return x


def prng_drawing_next(output):
    """A generator whose next output is `output`: undo the multiplier,
    then the three xorshift steps in reverse order."""
    state = (output * pow(0x2545F4914F6CDD1D, -1, 2**64)) & MASK
    state = unshift_right(unshift_left(unshift_right(state, 27), 25), 12)
    p = Prng(0)
    p._state = state
    return p


def fisher_yates(stream, size):
    """Hand-written Fisher-Yates over raw 64-bit draws, rejecting a draw
    at or above the largest multiple of the bound, as `below` documents."""
    items = list(range(size))
    for i in range(size - 1, 0, -1):
        n = i + 1
        while True:
            out = stream.next_u64()
            if out < MASK - MASK % n:
                break
        j = out % n
        items[i], items[j] = items[j], items[i]
    return items


# 2**64 - 1 is rejected for every bound; 2**64 - 8 is at or above the
# shuffle's one bound for 10 items (2**64 - 10) but under the exact limit
# for n = 10 (2**64 - 6), so it is accepted only after the exact check.
@pytest.mark.parametrize("first, rejected", [(MASK, True), (2**64 - 8, False)])
def test_a_draw_near_the_top_takes_the_exact_limit(first, rejected):
    assert prng_drawing_next(first).next_u64() == first
    mirror = prng_drawing_next(first)
    mirror.next_u64()
    second = mirror.next_u64()
    assert prng_drawing_next(first).below(10) == (second if rejected else first) % 10
    items = prng_drawing_next(first).shuffle(list(range(10)))
    assert items == fisher_yates(prng_drawing_next(first), 10)
    # the oracle's first swap partner is the accepted draw's remainder
    j = (second if rejected else first) % 10
    assert items[9] == j


def test_shuffle_not_identity_for_typical_seed():
    items = list(range(50))
    Prng(3).shuffle(items)
    assert items != list(range(50))


def test_entropy_seed_is_64bit_and_varies():
    values = {entropy_seed() for _ in range(8)}
    assert all(0 <= v <= MASK for v in values)
    assert len(values) > 1


def test_below_roughly_uniform():
    p = Prng(2024)
    counts = collections.Counter(p.below(16) for _ in range(16000))
    for bucket in range(16):
        assert 800 <= counts[bucket] <= 1200
