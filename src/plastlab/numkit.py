"""Deterministic numerical substrate: RNG streams, draws made ahead, Box-Muller, erfi.

Everything here is pure and platform-stable: the RNG is counter-based so that
independent streams can be split from one master seed without correlation, and
two runs with equal seeds produce bit-identical draws.
"""

from __future__ import annotations

import math
import signal
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import DomainError, InvalidInputError

_MASK64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_PHI_U = np.uint64(_PHI)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (np.uint64(k) for k in (11, 27, 30, 31))
_INV_2_53 = float(2.0 ** -53)


def _mix_int(z: int) -> int:
    """SplitMix64 finalizer on Python ints (keys and one-value draws)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class RngStream:
    """Counter-based random stream identified by (seed, stream_id).

    Draw i of the stream is a pure function of (seed, stream_id, i), so equal
    streams replay identical sequences on any platform and distinct stream ids
    give independent sequences.  Each draw method advances ``counter`` by a
    documented, fixed amount: ``uniform``/``randint`` consume one counter slot
    per value, ``normal`` consumes ``2 * ceil(n / 2)`` slots (Box-Muller
    pairs), ``permutation(k)`` consumes ``k - 1`` slots (Fisher-Yates, drawn
    in one ``uniform`` call: a draw depends only on its slot, so one bulk call
    and k - 1 one-value calls return the same values).
    """

    seed: int
    stream_id: int = 0
    counter: int = 0
    _key: int = field(init=False, repr=False)

    def __post_init__(self):
        self.seed = int(self.seed) & _MASK64
        self.stream_id = int(self.stream_id) & _MASK64
        self._key = _mix_int(_mix_int(self.seed ^ _PHI) + _mix_int(self.stream_id))

    def _raw(self, n: int) -> np.ndarray:
        """Top 53 bits of SplitMix64(key + slot * phi), slots counter+1 .. counter+n."""
        z = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        z *= _PHI_U
        z += np.uint64(self._key)
        t = np.empty_like(z)
        for shift, mult in ((_SHIFT30, _MIX1), (_SHIFT27, _MIX2)):
            z ^= np.right_shift(z, shift, out=t)
            z *= mult
        z ^= np.right_shift(z, _SHIFT31, out=t)
        z >>= _SHIFT11
        self.counter += n
        return z

    def _unit(self, n: int) -> np.ndarray:
        """The next n slots as floats on [0, 1): multiples of 2^-53, exact."""
        u = self._raw(n).astype(np.float64)
        u *= _INV_2_53
        return u

    def uniform(self, a: float, b: float, n: int) -> np.ndarray:
        """n iid draws from U[a, b); degenerate a == b returns a exactly."""
        if n < 1:
            raise InvalidInputError("n must be >= 1")
        if not a <= b:
            raise InvalidInputError(f"uniform bounds must satisfy a <= b, got ({a}, {b})")
        if n == 1:  # the same value in Python ints and floats, no array round trip
            self.counter += 1
            u = float(_mix_int(self._key + self.counter * _PHI) >> 11) * _INV_2_53
            return np.array([a + u * (b - a)])
        u = self._unit(n)
        u *= b - a
        u += a
        return u

    def normal(self, mu: float, sigma: float, n: int) -> np.ndarray:
        """n iid draws from N(mu, sigma^2) via Box-Muller; sigma == 0 returns mu."""
        if n < 1:
            raise InvalidInputError("n must be >= 1")
        if sigma < 0:
            raise InvalidInputError(f"sigma must be >= 0, got {sigma}")
        return box_muller(self._unit(2 * ((n + 1) // 2)), mu, sigma)[:n]

    def randint(self, bound: int, n: int = 1) -> np.ndarray:
        """n integers uniform on [0, bound)."""
        if bound < 1:
            raise InvalidInputError(f"bound must be >= 1, got {bound}")
        u = self.uniform(0.0, 1.0, n)
        if n == 1:  # the array formula below, on Python ints
            return np.array([min(int(u[0] * bound), bound - 1)], dtype=np.int64)
        return np.minimum((u * bound).astype(np.int64), bound - 1)

    def permutation(self, k: int) -> np.ndarray:
        """Fisher-Yates permutation of range(k) as int64, consuming k - 1 draws.

        The k - 1 uniforms come from one call; swap i (i = k-1 .. 1) uses draw
        k-1-i, made an index on [0, i] by the ``randint`` formula.
        """
        if k < 2:
            return np.arange(k, dtype=np.int64)
        bounds = np.arange(k, 1, -1)
        js = np.minimum((self.uniform(0.0, 1.0, k - 1) * bounds).astype(np.int64), bounds - 1)
        perm = list(range(k))
        for i, j in zip(range(k - 1, 0, -1), js.tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


class DrawAhead:
    """Draws of one kind made ahead on a copy of a stream, `steps` at a time.

    A draw uses `slots` slots of the stream, and `transform(u)` turns a
    (k, slots) block of their uniforms, one row per draw, into a list of
    tuples of arrays whose leading axis is the draw. Since u is a pure
    function of the stream's (seed, id, counter), a block made on a copy of
    the stream holds the draws the next k calls would make. `take` serves
    draw j while the stream stands j draws past the block's start with the
    same key, and moves the stream past it; otherwise (other draws moved the
    counter, the key changed, or all are used) it refills.

    With `helper`, each refill also asks one helper process, forked at the
    first refill, for the next block: the helper draws that block's uniforms
    itself and writes their transform (which must pickle) into a mapping it
    shares with the run, while the caller uses this block. Its reply is
    None, or what the transform raised. The next refill takes that block if
    it has the same seed, stream id, key and start, copying its arrays out
    of the mapping in the layout of the block it replaces (a key's draws
    keep their layout), and raises the error, if any; otherwise it drops it
    and draws afresh. A block that outgrows the mapping gets a new helper
    with a mapping that fits. `close` closes the run's end of the pipe,
    which stops the helper, and joins it. Not run state: an empty holder
    serves the same values.
    """

    def __init__(self, steps: int, helper: bool = False):
        self.steps = steps
        self.origin: tuple | None = None  # (seed, stream id, key) of the draws
        self.start = self.slots = 0  # counter before draw 0; slots per draw
        self.draws: list[tuple[np.ndarray, ...]] = []
        self.helper = helper
        self.conn = self.proc = self.buf = None  # the run's end of the helper's pipe; the helper; their mapping
        self.next: tuple | None = None  # (origin, start) of the block asked of the helper

    def take(self, key, stream: RngStream, slots: int, transform) -> list[tuple[np.ndarray, ...]]:
        origin = (stream.seed, stream.stream_id, key)
        j = -1
        if self.origin == origin:
            j, rem = divmod(stream.counter - self.start, self.slots)
            j = j if rem == 0 and j < self.steps else -1
        if j < 0:
            self._refill(origin, stream.counter, slots, transform)
            j = 0
        stream.counter += slots
        return [tuple(a[j] for a in arrays) for arrays in self.draws]

    def _refill(self, origin: tuple, start: int, slots: int, transform) -> None:
        made, self.next = self.next, None
        error = self.conn.recv() if made else None
        if made != (origin, start):
            draws = transform(_units(origin[0], origin[1], start, self.steps, slots))
        elif error is not None:
            raise error
        else:  # copies the run owns, so the helper may write the next block
            draws = [tuple(v.copy() for v in views) for views in _packed(self.buf, self.draws)]
        self.origin, self.start, self.slots, self.draws = origin, start, slots, draws
        if self.helper:
            size = sum(a.nbytes for arrays in draws for a in arrays)
            if self.proc is not None and size > len(self.buf):
                self.close()
            if self.proc is None:
                self._fork(size)
            self.next = (origin, start + self.steps * slots)
            self.conn.send((origin[0], origin[1], self.next[1], self.steps, slots, transform))

    def _fork(self, size: int) -> None:
        import mmap  # loaded, like multiprocessing, only where a helper starts
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.buf = mmap.mmap(-1, max(1, size))  # anonymous and shared with the child
        self.conn, end = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(end, self.conn, self.buf), daemon=True)
        self.proc.start()
        end.close()

    def close(self) -> None:
        """Stop the helper, if any, and join it. The end of the pipe is the
        stop message: a Ctrl-C that cut a send or recv short would leave a
        message on it half said, and the helper and the run each waiting."""
        if self.proc is not None:
            self.conn.close()
            self.proc.join()
            self.conn = self.proc = self.buf = self.next = None


def _units(seed: int, stream_id: int, start: int, steps: int, slots: int) -> np.ndarray:
    """The (steps, slots) block of uniforms a stream at counter `start` draws next."""
    return RngStream(seed, stream_id, start).uniform(0.0, 1.0, steps * slots).reshape(steps, -1)


def _packed(buf, draws: list[tuple[np.ndarray, ...]]) -> list[tuple[np.ndarray, ...]]:
    """Views of `buf` laid out like `draws`: its arrays one after another."""
    offsets = accumulate((a.nbytes for arrays in draws for a in arrays), initial=0)
    return [tuple(np.ndarray(a.shape, a.dtype, buf, next(offsets)) for a in arrays) for arrays in draws]


def _serve(conn, run_end, buf) -> None:
    """A helper process: for each (seed, stream id, start, steps, slots,
    transform) asked, write the transform of that block's uniforms into
    `buf`, its arrays one after another, and reply None, or send what it
    raised. The arrays never cross the pipe: the run knows their layout.
    It stops quietly once the run's end of the pipe is closed, by `close`
    or with the run's process; Ctrl-C reaches the run, which then closes it."""
    run_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            *block, transform = conn.recv()
            reply = None
            try:
                draws = transform(_units(*block))
                for views, arrays in zip(_packed(buf, draws), draws):
                    for view, a in zip(views, arrays):
                        view[...] = a
            except Exception as exc:
                reply = exc
            conn.send(reply)
    except (EOFError, OSError):
        pass


def box_muller(u: np.ndarray, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """N(mu, sigma^2) draws from uniforms on [0, 1), one Box-Muller block per row.

    A row of 2m uniforms [u1 | u2] gives m pairs (r cos t, r sin t), with
    r = sqrt(-2 log(u1 + 2^-53)) (u1 shifted into (0, 1] so the log is finite)
    and t = 2 pi u2, interleaved into 2m values. Every value depends only on
    its own row, so k rows in one call return what k one-row calls return.
    Works in place on u; the result has u's shape.
    """
    m = u.shape[-1] // 2
    u1, u2 = u[..., :m], u[..., m:]
    u1 += _INV_2_53
    r = np.sqrt(np.multiply(np.log(u1, out=u1), -2.0, out=u1), out=u1)
    u2 *= 2.0 * math.pi
    z = np.empty(u.shape[:-1] + (m, 2))
    np.cos(u2, out=z[..., 0])
    np.sin(u2, out=z[..., 1])
    z *= r[..., None]
    z *= sigma
    z += mu
    return z.reshape(u.shape)


_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SERIES_CUTOFF = 3.0
_ERFI_DOMAIN = 6.0


def _erfi_series(x: float) -> float:
    """Maclaurin series (2/sqrt(pi)) * sum x^(2n+1) / (n! (2n+1)), Kahan-summed.

    All terms share the sign of x, so there is no cancellation anywhere in the
    supported domain.
    """
    x2 = x * x
    term = x  # x^(2n+1) / n!
    total = x
    comp = 0.0
    for n in range(1, 300):
        term *= x2 / n
        contrib = term / (2 * n + 1)
        y = contrib - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(contrib) <= 1e-18 * abs(total):
            break
    return _TWO_OVER_SQRT_PI * total


def _gauss_legendre_exp_sq(lo: float, hi: float) -> float:
    """Integral of exp(t^2) over [lo, hi] by composite 24-node Gauss-Legendre."""
    panels = max(1, int(math.ceil((hi - lo) / 0.25)))
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        t = mid + half * nodes
        total += half * float(np.sum(weights * np.exp(t * t)))
    return total


_ERFI_AT_CUTOFF = _erfi_series(_SERIES_CUTOFF)


def erfi(x: float) -> float:
    """The imaginary error function (2/sqrt(pi)) * integral_0^x exp(t^2) dt.

    Supported for |x| <= 6 (the range the scale tuners need); odd in x.
    Maclaurin series below |x| = 3, series value at 3 plus Gauss-Legendre
    quadrature of the tail beyond.
    """
    if not math.isfinite(x):
        raise DomainError(f"erfi argument must be finite, got {x}")
    ax = abs(x)
    if ax > _ERFI_DOMAIN:
        raise DomainError(f"erfi argument out of domain: |{x}| > {_ERFI_DOMAIN}")
    if ax <= _SERIES_CUTOFF:
        return _erfi_series(x)
    tail = _TWO_OVER_SQRT_PI * _gauss_legendre_exp_sq(_SERIES_CUTOFF, ax)
    return math.copysign(_ERFI_AT_CUTOFF + tail, x)
