import math
import multiprocessing
import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from plastlab.envs import PROBE_DIM, PROBE_OUT
from plastlab.errors import DomainError, InvalidInputError
from plastlab.learners import network_specs
from plastlab.net import chain_slots, draw_layers, shape_layers
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


@dataclass(frozen=True)
class _PidTransform:
    """A transform that pickles: it copies its block of uniforms beside the
    id of the process that ran it, and raises `error` on the block whose
    first uniform is `bad`."""

    bad: float = -1.0
    error: type = ValueError

    def __call__(self, u):
        if u[0, 0] == self.bad:
            raise self.error(f"block at {self.bad}")
        return [(u.copy(), np.full(len(u), os.getpid()))]


def _first_uniform(seed: int, stream_id: int, counter: int) -> float:
    return float(RngStream(seed, stream_id, counter).uniform(0.0, 1.0, 1)[0])


class TestDrawAheadHelper:
    """The next block made in a helper process: the same values as one draw
    per call, used only when it starts where the stream stands."""

    def test_an_undisturbed_stream_uses_each_block_made_ahead(self):
        stream, ref = RngStream(4, 2), RngStream(4, 2)
        ahead, pids = DrawAhead(4, helper=True), []
        for _ in range(12):
            ((got, pid),) = ahead.take("k", stream, 3, _PidTransform())
            assert got.tobytes() == ref.uniform(0.0, 1.0, 3).tobytes()
            pids.append(int(pid))
        helper = ahead.proc.pid
        # one block past the end is asked for, and dropped by close
        assert ahead.next == ((4, 2, "k"), 36)
        ahead.close()
        assert stream.counter == ref.counter == 36
        # the first block is drawn here; the other two by the helper
        assert pids == [os.getpid()] * 4 + [helper] * 8 and helper != os.getpid()
        assert ahead.proc is None and multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [ValueError, DomainError])
    def test_a_helpers_error_reaches_the_caller_only_when_its_block_is_used(self, error):
        transform = _PidTransform(_first_uniform(5, 2, 12), error)
        stream, ahead = RngStream(5, 2), DrawAhead(4, helper=True)
        for _ in range(4):
            ahead.take("k", stream, 3, transform)
        with pytest.raises(error, match="block at") as raised:
            ahead.take("k", stream, 3, transform)
        assert type(raised.value) is error and ahead.next is None
        ahead.close()
        # dropped unused: another key, a moved counter, or the holder closed
        for move in ("key", "counter", "close"):
            stream, ahead = RngStream(5, 2), DrawAhead(4, helper=True)
            ahead.take("k", stream, 3, transform)
            assert ahead.next == ((5, 2, "k"), 12)  # the block that raises
            if move == "key":
                ahead.take("other", stream, 3, transform)
            elif move == "counter":
                stream.counter += 12
                ahead.take("k", stream, 3, transform)
            ahead.close()
            assert ahead.next is None and ahead.proc is None
        assert multiprocessing.active_children() == []

    def test_a_block_that_outgrows_the_mapping_gets_a_fresh_helper(self):
        """A key whose block is larger than the mapping closes the helper and
        forks one with a mapping that fits; a smaller block keeps it."""
        stream, ref = RngStream(9, 2), RngStream(9, 2)
        ahead, procs, pids = DrawAhead(4, helper=True), [], []
        for slots in [3] * 5 + [6] * 5 + [2] * 5:  # the key is the width: 128, 224 and 96 bytes a block
            ((got, pid),) = ahead.take(slots, stream, slots, _PidTransform())
            assert got.tobytes() == ref.uniform(0.0, 1.0, slots).tobytes()
            pids.append(int(pid))
            procs += [ahead.proc] if ahead.proc not in procs else []
        assert len(ahead.buf) == 224
        ahead.close()
        assert [p.exitcode for p in procs] == [0, 0] and multiprocessing.active_children() == []
        here, first, second = os.getpid(), procs[0].pid, procs[1].pid
        assert pids == [here] * 4 + [first] + [here] * 4 + [second] + [here] * 4 + [second]

    def test_a_reply_carries_no_arrays(self, monkeypatch):
        """The helper writes the probe net's blocks of inits into the shared
        mapping: each reply the run's end of the pipe reads is under 1 KB,
        against 352,512 bytes of draws, and the draws are those of one
        draw per call."""
        from multiprocessing.connection import Connection

        read, real = [], Connection._recv_bytes  # recv and recv_bytes both read through it

        def reading(conn, maxsize=None):
            buf = real(conn, maxsize)
            read.append(buf.getbuffer().nbytes)
            return buf

        monkeypatch.setattr(Connection, "_recv_bytes", reading)
        specs = network_specs(PROBE_DIM, PROBE_OUT, (64, 64), "relu", False)
        stream, ref, ahead = RngStream(0, 3), RngStream(0, 3), DrawAhead(8, helper=True)
        for _ in range(40):
            got = ahead.take(specs, stream, chain_slots(specs), partial(shape_layers, specs))
            for pair, want in zip(got, draw_layers(specs, ref)):
                assert [a.tobytes() for a in pair] == [a[0].tobytes() for a in want]
        assert sum(a.nbytes for arrays in ahead.draws for a in arrays) == 352512
        ahead.close()
        assert len(read) == 4 and max(read) < 1024

    def test_a_helper_starts_no_resource_tracker(self, monkeypatch):
        """The mapping is anonymous: no multiprocessing.resource_tracker
        process is asked for, as multiprocessing.shared_memory would."""
        from multiprocessing import resource_tracker

        asked = []
        monkeypatch.setattr(resource_tracker.ResourceTracker, "ensure_running", lambda tracker: asked.append(1))
        stream, ahead = RngStream(10, 2), DrawAhead(4, helper=True)
        for _ in range(12):
            ahead.take("k", stream, 3, _PidTransform())
        ahead.close()
        assert asked == []

    def test_a_holder_without_a_helper_starts_no_process(self):
        calls, stream = [], RngStream(6, 2)
        ahead = DrawAhead(4)

        def recording(u):
            calls.append(os.getpid())
            return _PidTransform()(u)

        for _ in range(9):
            ahead.take("k", stream, 3, recording)
        assert ahead.next is None and ahead.proc is None
        assert calls == [os.getpid()] * 3 and multiprocessing.active_children() == []

    @pytest.mark.parametrize("pending", [True, False], ids=["replying", "waiting"])
    def test_the_helper_exits_quietly_once_the_runs_end_is_gone(self, pending, capfd):
        """Without a stop message, as when the run's process dies, the end of
        its pipe ends the helper with code 0 and nothing on stderr, whether
        its reply finds no reader or it waits for the next ask."""
        ahead = DrawAhead(4, helper=True)
        ahead.take("k", RngStream(7, 2), 3, _PidTransform())
        if not pending:
            ahead.conn.recv()  # the helper now waits for the next ask
        proc = ahead.proc
        ahead.conn.close()
        proc.join(timeout=30)
        assert proc.exitcode == 0
        assert capfd.readouterr().err == ""


    def test_close_stops_the_helper_whatever_the_pipe_holds(self):
        """A Ctrl-C can cut a refill short after its recv and before the
        holder notes that no reply is pending; close still stops the helper
        (waiting there for that reply once left the run and the helper each
        waiting for the other)."""
        ahead = DrawAhead(4, helper=True)
        ahead.take("k", RngStream(8, 2), 3, _PidTransform())
        proc = ahead.proc
        ahead.conn.recv()  # the reply is gone while ahead.next still names it
        closer = threading.Thread(target=ahead.close, daemon=True)
        closer.start()
        closer.join(timeout=30)
        assert not closer.is_alive() and proc.exitcode == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**63), st.integers(0, 2**63))
def test_rng_determinism_property(seed, stream_id):
    a = RngStream(seed, stream_id).uniform(0.0, 1.0, 16)
    b = RngStream(seed, stream_id).uniform(0.0, 1.0, 16)
    assert a.tobytes() == b.tobytes()
