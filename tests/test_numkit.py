import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from plastlab.errors import DomainError, InvalidInputError
from plastlab.numkit import DrawAhead, RngStream, erfi

# the draws work on uint64 arrays in place, which must stay free of overflow
# and invalid-value warnings
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def permutation_reference(stream: RngStream, k: int) -> np.ndarray:
    """Oracle: Fisher-Yates with one randint(i + 1) call per swap."""
    perm = np.arange(k)
    for i in range(k - 1, 0, -1):
        j = int(stream.randint(i + 1)[0])
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def raw_reference(stream: RngStream, n: int) -> np.ndarray:
    """Oracle: the SplitMix64 array formula of the first numkit, slots
    counter+1 .. counter+n, advancing the counter by n."""
    idx = np.arange(stream.counter + 1, stream.counter + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(stream._key) + idx * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    stream.counter += n
    return z


def uniform_reference(stream: RngStream, a: float, b: float, n: int) -> np.ndarray:
    u = (raw_reference(stream, n) >> np.uint64(11)).astype(np.float64) * float(2.0**-53)
    return a + u * (b - a)


def randint_reference(stream: RngStream, bound: int, n: int) -> np.ndarray:
    u = uniform_reference(stream, 0.0, 1.0, n)
    return np.minimum((u * bound).astype(np.int64), bound - 1)


def normal_reference(stream: RngStream, mu: float, sigma: float, n: int) -> np.ndarray:
    m = (n + 1) // 2
    raw = raw_reference(stream, 2 * m)
    u1 = ((raw[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * float(2.0**-53)
    u2 = (raw[m:] >> np.uint64(11)).astype(np.float64) * float(2.0**-53)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * m)
    z[0::2] = r * np.cos(2.0 * math.pi * u2)
    z[1::2] = r * np.sin(2.0 * math.pi * u2)
    return mu + sigma * z[:n]


STREAM_STARTS = [
    (seed, stream_id, counter)
    for seed in (0, 1, 2**64 - 1)
    for stream_id in (0, 5, 2**63)
    for counter in (0, 1, 2**32, 2**63 - 2)
]


def quad_erfi(x: float) -> float:
    """Adaptive-quadrature oracle for erfi."""
    val, _ = integrate.quad(lambda t: math.exp(t * t), 0.0, x, limit=200)
    return 2.0 / math.sqrt(math.pi) * val


class TestErfi:
    def test_zero(self):
        assert erfi(0.0) == 0.0

    def test_reference_point(self):
        # frozen from the quadrature oracle
        assert abs(erfi(1.0) - 1.6504257587975428) < 1e-9
        assert abs(erfi(1.0) - quad_erfi(1.0)) < 1e-9

    def test_odd_symmetry(self):
        for x in (0.3, 1.0, 2.5, 4.2, 5.9):
            assert erfi(-x) == -erfi(x)

    def test_quadrature_oracle_grid(self):
        for x in np.linspace(0.05, 6.0, 40):
            want = quad_erfi(float(x))
            got = erfi(float(x))
            assert abs(got - want) <= max(1e-9, 1e-12 * abs(want))

    def test_monotone_on_domain(self):
        xs = np.linspace(-6.0, 6.0, 201)
        ys = [erfi(float(x)) for x in xs]
        assert np.all(np.diff(ys) > 0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            erfi(6.0001)
        with pytest.raises(DomainError):
            erfi(float("nan"))


class TestRngStream:
    def test_bit_identical_replay(self):
        a = RngStream(1234, 7).normal(0.0, 1.0, 1000)
        b = RngStream(1234, 7).normal(0.0, 1.0, 1000)
        assert a.tobytes() == b.tobytes()

    def test_degenerate_normal(self):
        np.testing.assert_array_equal(RngStream(1).normal(0.0, 0.0, 3), [0.0, 0.0, 0.0])

    def test_degenerate_uniform(self):
        np.testing.assert_array_equal(RngStream(1).uniform(2.0, 2.0, 1), [2.0])

    def test_streams_differ(self):
        a = RngStream(99, 0).uniform(0.0, 1.0, 64)
        b = RngStream(99, 1).uniform(0.0, 1.0, 64)
        assert not np.array_equal(a, b)

    def test_counter_advance_documented(self):
        s = RngStream(5, 5)
        s.uniform(0.0, 1.0, 10)
        assert s.counter == 10
        s.normal(0.0, 1.0, 3)  # odd n rounds up to a Box-Muller pair
        assert s.counter == 10 + 4
        s.permutation(6)
        assert s.counter == 14 + 5

    def test_chunked_draws_continue_sequence(self):
        s1 = RngStream(42, 3)
        whole = s1.uniform(0.0, 1.0, 10)
        s2 = RngStream(42, 3)
        parts = np.concatenate([s2.uniform(0.0, 1.0, 4), s2.uniform(0.0, 1.0, 6)])
        np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 16, 1000])
    def test_permutation_matches_per_element_reference(self, k):
        for seed, stream_id, counter in ((0, 0, 0), (3, 1, 7), (2**40 + 5, 9, 12345)):
            fast = RngStream(seed, stream_id, counter)
            ref = RngStream(seed, stream_id, counter)
            got = fast.permutation(k)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, permutation_reference(ref, k))
            assert fast.counter == ref.counter == counter + max(k - 1, 0)
            # the next draw continues the same sequence
            assert fast.uniform(0.0, 1.0, 1)[0] == ref.uniform(0.0, 1.0, 1)[0]

    def test_uniform_range(self):
        u = RngStream(21, 0).uniform(-2.0, 3.0, 4096)
        assert np.all(u >= -2.0) and np.all(u < 3.0)

    def test_normal_moments(self):
        z = RngStream(13, 1).normal(1.0, 2.0, 200_000)
        assert abs(float(z.mean()) - 1.0) < 0.02
        assert abs(float(z.std()) - 2.0) < 0.02

    def test_randint_bounds(self):
        r = RngStream(17, 0).randint(5, 10_000)
        assert set(np.unique(r)) == {0, 1, 2, 3, 4}

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            RngStream(1).uniform(1.0, 0.0, 3)
        with pytest.raises(InvalidInputError):
            RngStream(1).normal(0.0, -1.0, 3)
        with pytest.raises(InvalidInputError):
            RngStream(1).uniform(0.0, 1.0, 0)


class TestDrawsMatchArrayFormula:
    """Every draw, bit for bit, against the array formulas it replaced."""

    def test_one_value_uniform_is_the_bulk_draws_first_value(self):
        for start in STREAM_STARTS:
            for a, b in ((0.0, 1.0), (-2.5, 3.0), (-1e300, 1e300)):
                one, two, ref = RngStream(*start), RngStream(*start), RngStream(*start)
                got = one.uniform(a, b, 1)
                assert got.dtype == np.float64 and got.shape == (1,)
                assert got.tobytes() == two.uniform(a, b, 2)[:1].tobytes(), start
                assert got.tobytes() == uniform_reference(ref, a, b, 1).tobytes(), start
                assert one.counter == ref.counter == start[2] + 1

    def test_one_value_randint_is_the_bulk_draws_first_value(self):
        for start in STREAM_STARTS:
            for bound in (1, 2, 5, 7, 2**31, 2**53):
                one, two, ref = RngStream(*start), RngStream(*start), RngStream(*start)
                got = one.randint(bound, 1)
                assert got.dtype == np.int64 and got.shape == (1,)
                assert got.tobytes() == two.randint(bound, 2)[:1].tobytes(), start
                assert got.tobytes() == randint_reference(ref, bound, 1).tobytes(), start
                assert one.counter == ref.counter == start[2] + 1

    def test_successive_one_value_randints_follow_the_bulk_draw(self):
        for bound in (1, 2, 5, 7, 2**31, 2**53):
            one, ref = RngStream(9, 5), RngStream(9, 5)
            got = np.concatenate([one.randint(bound, 1) for _ in range(500)])
            assert got.tobytes() == randint_reference(ref, bound, 500).tobytes(), bound
            assert one.counter == ref.counter == 500

    def test_degenerate_one_value_uniform_returns_a(self):
        for start in STREAM_STARTS:
            for a in (2.0, -3.5, 0.0, 1e-300):
                got = RngStream(*start).uniform(a, a, 1)
                assert got.tobytes() == np.array([a]).tobytes(), start

    @pytest.mark.parametrize("n", [1, 2, 3, 255, 4096])
    def test_bulk_draws(self, n):
        for start in STREAM_STARTS:
            for draw, ref_draw, args in (
                ("uniform", uniform_reference, (-2.5, 3.0)),
                ("randint", randint_reference, (7,)),
                ("normal", normal_reference, (0.0, 1.0)),
                ("normal", normal_reference, (1.5, 2.5)),
                ("normal", normal_reference, (-4.0, 0.0)),
            ):
                fast, ref = RngStream(*start), RngStream(*start)
                got = getattr(fast, draw)(*args, n)
                want = ref_draw(ref, *args, n)
                assert got.dtype == want.dtype and got.shape == want.shape == (n,)
                assert got.tobytes() == want.tobytes(), (draw, args, start)
                assert fast.counter == ref.counter


def _recording_transform(calls: list, fail_on: int = 0):
    """A transform that copies its block of uniforms and notes, per call,
    whether it ran on a helper thread; call number `fail_on` raises."""

    def transform(u):
        calls.append(threading.current_thread() is not threading.main_thread())
        if len(calls) == fail_on:
            raise ValueError(f"block {fail_on}")
        return [(u.copy(),)]

    return transform


class TestDrawAheadHelper:
    """The next block made on a helper thread: the same values as one draw
    per call, used only when it starts where the stream stands."""

    def test_an_undisturbed_stream_uses_each_block_made_ahead(self):
        calls, stream, ref = [], RngStream(4, 2), RngStream(4, 2)
        ahead, transform = DrawAhead(4, helper=True), _recording_transform(calls)
        for _ in range(12):
            ((got,),) = ahead.take("k", stream, 3, transform)
            assert got.tobytes() == ref.uniform(0.0, 1.0, 3).tobytes()
        ahead.close()
        assert stream.counter == ref.counter == 36
        # the first block is drawn here; the other two, and one past the end, on helpers
        assert calls == [False, True, True, True]

    def test_a_helpers_error_reaches_the_caller_only_when_its_block_is_used(self):
        stream, calls = RngStream(5, 2), []
        ahead, transform = DrawAhead(4, helper=True), _recording_transform(calls, fail_on=2)
        for _ in range(4):
            ahead.take("k", stream, 3, transform)
        with pytest.raises(ValueError, match="block 2"):
            ahead.take("k", stream, 3, transform)
        # dropped unused: another key, a moved counter, or the holder closed
        for move in ("key", "counter", "close"):
            stream, calls = RngStream(5, 2), []
            ahead, transform = DrawAhead(4, helper=True), _recording_transform(calls, fail_on=2)
            ahead.take("k", stream, 3, transform)
            if move == "key":
                ahead.take("other", stream, 3, transform)
            elif move == "counter":
                stream.counter += 12
                ahead.take("k", stream, 3, transform)
            ahead.close()
            assert len(calls) >= 2 and ahead.next is None

    def test_a_holder_without_a_helper_starts_no_thread(self):
        calls, stream = [], RngStream(6, 2)
        ahead = DrawAhead(4)
        for _ in range(9):
            ahead.take("k", stream, 3, _recording_transform(calls))
        assert ahead.next is None and calls == [False] * 3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**63), st.integers(0, 2**63))
def test_rng_determinism_property(seed, stream_id):
    a = RngStream(seed, stream_id).uniform(0.0, 1.0, 16)
    b = RngStream(seed, stream_id).uniform(0.0, 1.0, 16)
    assert a.tobytes() == b.tobytes()
