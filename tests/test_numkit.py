import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from plastlab.errors import DomainError, InvalidInputError
from plastlab.numkit import RngStream, erfi, svd_values


def jacobi_singular_values(m: np.ndarray) -> np.ndarray:
    """Brute-force oracle: cyclic Jacobi eigensolver on m^T m, sqrt of spectrum."""
    a = m.T @ m
    n = a.shape[0]
    for _ in range(100):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < 1e-14:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < 1e-14:
            break
    eig = np.clip(np.sort(np.diag(a))[::-1], 0.0, None)
    return np.sqrt(eig)


def permutation_reference(stream: RngStream, k: int) -> np.ndarray:
    """Oracle: Fisher-Yates with one randint(i + 1) call per swap."""
    perm = np.arange(k)
    for i in range(k - 1, 0, -1):
        j = int(stream.randint(i + 1)[0])
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def quad_erfi(x: float) -> float:
    """Adaptive-quadrature oracle for erfi."""
    val, _ = integrate.quad(lambda t: math.exp(t * t), 0.0, x, limit=200)
    return 2.0 / math.sqrt(math.pi) * val


class TestSvdValues:
    def test_identity(self):
        np.testing.assert_allclose(svd_values(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(svd_values(np.diag([3.0, 0.0])), [3.0, 0.0], atol=1e-12)

    def test_matches_jacobi_oracle(self):
        stream = RngStream(7, 1)
        m = stream.normal(0.0, 1.0, 20).reshape(5, 4)
        np.testing.assert_allclose(svd_values(m), jacobi_singular_values(m), atol=1e-8)

    def test_count_and_order(self):
        stream = RngStream(3, 2)
        m = stream.normal(0.0, 2.0, 21).reshape(3, 7)
        vals = svd_values(m)
        assert vals.shape == (3,)
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) <= 0)

    def test_transpose_invariance(self):
        stream = RngStream(11, 4)
        m = stream.normal(0.0, 1.0, 24).reshape(4, 6)
        a, b = svd_values(m), svd_values(m.T)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_frobenius_identity(self):
        stream = RngStream(5, 9)
        m = stream.normal(0.0, 3.0, 30).reshape(6, 5)
        fro2 = float(np.sum(m * m))
        assert math.isclose(float(np.sum(svd_values(m) ** 2)), fro2, rel_tol=1e-6)

    def test_nonfinite_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 1] = np.nan
        with pytest.raises(InvalidInputError):
            svd_values(bad)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(InvalidInputError):
            svd_values(np.ones(3))


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**63), st.integers(0, 2**63))
def test_rng_determinism_property(seed, stream_id):
    a = RngStream(seed, stream_id).uniform(0.0, 1.0, 16)
    b = RngStream(seed, stream_id).uniform(0.0, 1.0, 16)
    assert a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6))
def test_svd_frobenius_property(seed, rows, cols):
    m = RngStream(seed, 1).normal(0.0, 1.0, rows * cols).reshape(rows, cols)
    sv = svd_values(m)
    assert sv.shape == (min(rows, cols),)
    fro2 = float(np.sum(m * m))
    assert abs(float(np.sum(sv**2)) - fro2) <= 1e-6 * max(fro2, 1.0)
