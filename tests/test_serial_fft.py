"""In-memory transform: bit-reversal permutation, twiddles, crossings, full FFT."""

import tracemalloc

import numpy as np
import pytest

import slidefft.serial as serial
from slidefft.mesh import MeshConfig, mesh_create
from slidefft.serial import (FlopCounter, bit_reverse_index, build_permutation, butterfly,
                             dft_oracle, fft_serial, ifft_serial, log2_exact, merge_level,
                             twiddle_table)
from slidefft.wave import distribute, gather, plan_wave


def complex_input(seed, n, batch=None):
    rng = np.random.default_rng(seed)
    shape = (n,) if batch is None else (batch, n)
    return rng.random(shape) + 1j * rng.random(shape)


def crossing(e, o, u):
    l, r = e.copy(), o.copy()
    butterfly(l, r, u)
    return l, r


def rel_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestPermutation:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_final_row_reverses_bits(self, m):
        # independent oracle: reverse the m-bit pattern of each index
        expect = [bit_reverse_index(i, m) for i in range(1 << m)]
        assert build_permutation(m).final_row.tolist() == expect

    @pytest.mark.parametrize("m", range(1, 11))
    def test_final_row_is_involution(self, m):
        row = build_permutation(m).final_row
        assert np.array_equal(row[row], np.arange(1 << m))

    def test_linear_memory_and_no_cache(self):
        tracemalloc.start()
        try:
            first = build_permutation(20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
        assert build_permutation(20).final_row is not first.final_row

    def test_rejects_bad_level_count(self):
        with pytest.raises(ValueError):
            build_permutation(0)

    def test_bit_reverse_spot_values(self):
        assert bit_reverse_index(1, 3) == 4
        assert bit_reverse_index(3, 3) == 6
        assert bit_reverse_index(0, 5) == 0

    def test_bit_reverse_range_check(self):
        with pytest.raises(ValueError):
            bit_reverse_index(8, 3)
        with pytest.raises(ValueError):
            bit_reverse_index(-1, 3)
        with pytest.raises(ValueError, match="bit width"):
            bit_reverse_index(0, -1)


class TestTwiddles:
    def test_small_tables(self):
        assert twiddle_table(2)[-1].tolist() == [1]
        np.testing.assert_allclose(twiddle_table(4)[-1], [1, -1j], atol=1e-15)

    @pytest.mark.parametrize("N", [2 ** p for p in range(1, 13)])
    def test_product_closed_form(self, N):
        """Product of the N/2 table entries collapses to a single phase."""
        product = np.prod(twiddle_table(N)[-1])
        expect = np.exp(-1j * np.pi * (N // 2 - 1) / 2)
        assert abs(product - expect) < 1e-12

    def test_unit_magnitude_and_leading_one(self):
        for N in (2, 8, 64, 1024):
            factors = twiddle_table(N)[-1]
            assert factors[0] == 1
            np.testing.assert_allclose(np.abs(factors), 1.0, atol=1e-15)

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            twiddle_table(6)

    def test_peak_is_the_tables_kept(self):
        """The exp table is built in one buffer, which every level views: no
        temporary outlives it (the peak was 1.5x it with an int64 arange)."""
        twiddle_table.cache_clear()
        tracemalloc.start()
        try:
            tables = twiddle_table(1 << 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * tables[-1].nbytes

    def test_every_level_table_is_its_own_exp(self):
        """Each level of the 2**20-point table, a read-only view of every
        (2**20/N)-th root of the last, is bit for bit the exp of its own
        angles 2*pi*k/N."""
        top = twiddle_table(1 << 20)
        assert len(top) == 20
        for level, factors in enumerate(top):
            N = 2 << level
            expect = np.exp(-2j * np.pi * np.arange(N // 2) / N)
            assert factors.tobytes() == expect.tobytes(), N
            assert np.shares_memory(factors, top[-1]) and not factors.flags.writeable
            if N <= 1 << 12:
                assert [t.tobytes() for t in twiddle_table(N)] == \
                    [t.tobytes() for t in top[: level + 1]]


class TestCrossing:
    def test_sum_difference(self):
        l, r = crossing(np.array([1.0 + 0j]), np.array([1.0 + 0j]),
                        np.array([1.0 + 0j]))
        assert l.tolist() == [2 + 0j]
        assert r.tolist() == [0 + 0j]

    def test_quarter_turn(self):
        l, r = crossing(np.array([0j]), np.array([1 + 0j]), np.array([-1j]))
        assert l.tolist() == [-1j]
        assert r.tolist() == [1j]

    def test_matches_block_matrix(self):
        # [L; R] = [[I, D], [I, -D]] [E; O] with D = diag(twiddles)
        rng = np.random.default_rng(3)
        e = rng.random(4) + 1j * rng.random(4)
        o = rng.random(4) + 1j * rng.random(4)
        u = twiddle_table(8)[-1]
        l, r = crossing(e, o, u)
        np.testing.assert_allclose(l, e + u * o, atol=1e-15)
        np.testing.assert_allclose(r, e - u * o, atol=1e-15)

    @pytest.mark.parametrize("N", [2, 4, 16])
    def test_merge_level_runs_in_place_through_a_view(self, N):
        """Merging a strided view writes L = E + U*O over each pair's first
        half and R = E - U*O over its second, and touches nothing else."""
        planes = complex_input(12, 3 * 16, batch=2).reshape(2, 3, 16)
        before = planes.copy()
        u = twiddle_table(N)[-1]
        assert merge_level(planes[:, 1, :], u) is None
        pairs = before[:, 1, :].reshape(2, 16 // N, N)
        e, o = pairs[..., : N // 2], pairs[..., N // 2 :]
        expect = np.concatenate([e + u * o, e - u * o], axis=-1).reshape(2, 16)
        assert planes[:, 1, :].tobytes() == expect.tobytes()
        np.testing.assert_array_equal(planes[:, ::2, :], before[:, ::2, :])


class TestTransform:
    def test_impulse_spectrum_is_flat(self):
        x = np.zeros(16, complex)
        x[0] = 1
        np.testing.assert_allclose(fft_serial(x), np.ones(16), atol=1e-15)

    def test_constant_concentrates_in_bin_zero(self):
        X = fft_serial(np.ones(32, complex))
        expect = np.zeros(32, complex)
        expect[0] = 32
        np.testing.assert_allclose(X, expect, atol=1e-12)

    def test_oracle_trivia(self):
        np.testing.assert_allclose(dft_oracle(np.array([1.0 + 0j])), [1])
        np.testing.assert_allclose(dft_oracle(np.array([1, 0], complex)), [1, 1])
        np.testing.assert_allclose(dft_oracle(np.array([0, 1], complex)), [1, -1])

    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_quadratic_oracle(self, m):
        x = complex_input(100 + m, 1 << m)
        got, want = fft_serial(x), dft_oracle(x)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12

    def test_input_unchanged_and_output_contiguous(self):
        x = complex_input(14, 64, batch=3)
        before = x.copy()
        assert fft_serial(x).flags.c_contiguous
        np.testing.assert_array_equal(x, before)

    def test_batched_axis(self):
        x = complex_input(4, 64, batch=5)
        X = fft_serial(x)
        for i in range(5):
            np.testing.assert_array_equal(X[i], fft_serial(x[i]))

    def test_parseval_energy(self):
        x = complex_input(9, 256)
        X = fft_serial(x)
        t = np.sum(np.abs(x) ** 2)
        f = np.sum(np.abs(X) ** 2)
        assert abs(f - 256 * t) / (256 * t) < 1e-12

    def test_linearity(self):
        x, y = complex_input(5, 128), complex_input(6, 128)
        lhs = fft_serial(2.5 * x + 1j * y)
        rhs = 2.5 * fft_serial(x) + 1j * fft_serial(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_round_trip(self):
        x = complex_input(8, 32)
        back = ifft_serial(fft_serial(x))
        assert np.max(np.abs(back - x)) < 1e-12

    def test_inverse_trivia(self):
        X = np.zeros(8, complex)
        X[0] = 8
        np.testing.assert_allclose(ifft_serial(X), np.ones(8), atol=1e-13)
        np.testing.assert_allclose(ifft_serial(np.ones(8, complex)),
                                   np.eye(8)[0], atol=1e-13)

    @pytest.mark.parametrize("m", [1, 4, 7, 10])
    def test_flop_count_is_five_n_log_n(self, m):
        n = 1 << m
        counter = FlopCounter()
        fft_serial(complex_input(m, n), counter)
        assert counter.flops == 5 * n * m

    def test_single_point_passthrough(self):
        x = np.array([3.0 - 1j])
        counter = FlopCounter()
        np.testing.assert_array_equal(fft_serial(x, counter), x)
        assert counter.flops == 0

    def test_rejects_non_power_length(self):
        with pytest.raises(ValueError):
            fft_serial(np.ones(12, complex))

    def test_rejects_non_finite(self):
        x = np.ones(8, complex)
        x[3] = np.nan
        with pytest.raises(ValueError):
            fft_serial(x)

    def test_levels_run_in_place(self):
        """A warm transform holds its permuted copy and one U*O temporary,
        not a second level buffer: under 2.5x the batch's bytes (a spare
        buffer of the batch's size would take it to about 2.9x)."""
        x = complex_input(26, 4096, batch=10)
        fft_serial(x)
        tracemalloc.start()
        try:
            fft_serial(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x.nbytes

    def test_strided_input_is_taken_like_its_copy(self):
        """Every entry point accepts a complex input whose last axis is
        strided, and returns what it returns for the contiguous copy."""
        x = complex_input(25, 32, batch=2)[:, ::2]
        assert not x.flags.c_contiguous

        def wave(y):
            mesh = mesh_create(MeshConfig(rows=1, cols=4))
            layout = plan_wave(16, 2, 64, mesh)
            distribute(y, layout, mesh)
            return gather(layout, mesh)

        for transform in (fft_serial, ifft_serial, dft_oracle, wave):
            np.testing.assert_array_equal(transform(x), transform(np.ascontiguousarray(x)))

    def test_log2_exact(self):
        assert log2_exact(1) == 0
        assert log2_exact(1024) == 10
        for bad in (0, -4, 3, 12):
            with pytest.raises(ValueError):
                log2_exact(bad)


class TestOracle:
    @staticmethod
    def brute_force(x):
        """The quadratic sum over (j*k) % n, in blocks of 2**16 // n bins."""
        n = x.shape[-1]
        roots = np.exp(-2j * np.pi * np.arange(n) / n)
        X = np.empty_like(x)
        k = np.arange(n, dtype=np.min_scalar_type((n - 1) ** 2))
        block = max(1, 2**16 // n)
        for j0 in range(0, n, block):
            j = k[j0 : j0 + block]
            X[..., j0 : j0 + len(j)] = x @ roots[np.outer(k, j) % n]
        return X

    def test_matches_numpy_at_4096(self):
        x = complex_input(21, 4096, batch=10)
        assert rel_error(dft_oracle(x), np.fft.fft(x)) < 1e-14

    @pytest.mark.parametrize("n", [3, 12, 16, 17, 256, 257, 1000, 2**13])
    def test_matches_numpy_at_any_length(self, n):
        """Factors n1 x n2 that differ: 3 x 4, 25 x 40, 64 x 128, ..."""
        x = complex_input(n, n, batch=4)
        assert rel_error(dft_oracle(x), np.fft.fft(x)) < 1e-14

    @pytest.mark.parametrize("batch", [(), (2, 3)])
    def test_matches_numpy_at_a_prime_length(self, batch):
        """A prime n has no split (n1 = 1): the sum is the brute-force one,
        bit for bit, with the batch folded into one 2-D product."""
        n = 4099
        x = complex_input(27, n * int(np.prod(batch))).reshape(batch + (n,))
        assert np.array_equal(dft_oracle(x), self.brute_force(x))
        assert rel_error(dft_oracle(x), np.fft.fft(x)) < 1e-14

    def test_any_batch_shape(self):
        x = complex_input(22, 2 * 3 * 10).reshape(2, 3, 10)
        np.testing.assert_allclose(dft_oracle(x), np.fft.fft(x), atol=1e-13)

    def test_any_memory_layout(self):
        """A batch in Fortran order is taken like its C-ordered copy."""
        x = np.asfortranarray(complex_input(29, 2 * 3 * 16).reshape(2, 3, 16))
        assert rel_error(dft_oracle(x), np.fft.fft(x)) < 1e-14

    def test_independent_of_the_radix_2_code(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dft_oracle used the code it checks")

        for name in ("twiddle_table", "merge_level", "butterfly", "build_permutation",
                     "fft_serial"):
            monkeypatch.setattr(serial, name, refuse)
        x = complex_input(23, 64, batch=2)
        assert rel_error(serial.dft_oracle(x), np.fft.fft(x)) < 1e-14

    @pytest.mark.parametrize("n", [64, 256, 4096, 257, 1000])
    def test_equals_the_modular_index_oracle(self, n):
        """The factored sum of a composite n adds in another order than the
        brute-force sum over (j*k) % n, so the two agree to rounding; a
        prime n has no split, and its sum is the brute-force one, bit for
        bit."""
        x = complex_input(25, n, batch=10)
        if n == 257:
            assert np.array_equal(dft_oracle(x), self.brute_force(x))
        else:
            assert rel_error(dft_oracle(x), self.brute_force(x)) < 1e-14

    def test_bounded_memory(self):
        x = complex_input(24, 4096, batch=10)
        tracemalloc.start()
        try:
            dft_oracle(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_bounded_memory_at_a_prime_length(self):
        """A prime n builds its whole n x n sum in column blocks too."""
        x = complex_input(28, 4099, batch=10)
        tracemalloc.start()
        try:
            dft_oracle(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
