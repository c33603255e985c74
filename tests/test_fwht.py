"""Walsh-Hadamard transform: identities, sign rule, kernel cross-checks."""

import numpy as np
import pytest
import scipy.linalg

from kronjl.errors import ShapeError
from kronjl.fwht import (
    _digits, _scaled_sylvester, _sylvester, _transformed, active_backend, fwht,
    fwht_axis, hadamard_matrix, last_block,
)


def _transform_matrix(n):
    return fwht_axis(np.eye(n), axis=0)


def test_frozen_examples():
    assert np.allclose(fwht(np.array([1.0, 0, 0, 0])), [0.5, 0.5, 0.5, 0.5])
    out = fwht(np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(out, [1.0, 0.0], atol=1e-15)
    assert np.allclose(hadamard_matrix(4)[:, 0], 0.5)


def test_orthonormal_small_sizes():
    for n in [1, 2, 4, 8, 16, 32, 64, 128]:
        h = _transform_matrix(n)
        assert np.max(np.abs(h.T @ h - np.eye(n))) <= 1e-12


def test_involution():
    rng = np.random.default_rng(3)
    for n in [2, 8, 64, 256]:
        x = rng.standard_normal(n)
        back = fwht(fwht(x))
        assert np.max(np.abs(back - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))


def test_sign_rule_oracle():
    # H[j, k] = (-1)^{<j, k>_bits} / sqrt(n), indices 0-based
    for n in [2, 4, 8, 16]:
        expected = np.array(
            [
                [(-1) ** bin(j & k).count("1") for k in range(n)]
                for j in range(n)
            ],
            dtype=float,
        ) / np.sqrt(n)
        assert np.max(np.abs(hadamard_matrix(n) - expected)) <= 1e-14
        assert np.max(np.abs(_transform_matrix(n) - expected)) <= 1e-14


def test_against_scipy_hadamard():
    for n in [2, 8, 32, 128]:
        ref = scipy.linalg.hadamard(n) / np.sqrt(n)
        assert np.max(np.abs(hadamard_matrix(n) - ref)) <= 1e-14
        assert np.max(np.abs(_transform_matrix(n) - ref)) <= 1e-13
        block = fwht_axis(np.eye(n), 1)
        assert np.max(np.abs(block - ref)) <= 1e-13
    # three uneven digits (32, 16, 16); a few columns, since the full
    # float64 matrix would take 512 MiB
    n, cols = 8192, [0, 1, 777, 4096, 8191]
    ref = scipy.linalg.hadamard(n, dtype=np.int8)[:, cols] / np.sqrt(n)
    units = np.zeros((n, len(cols)))
    units[cols, range(len(cols))] = 1.0
    assert np.max(np.abs(fwht_axis(units, 0) - ref)) <= 1e-13
    block = fwht_axis(np.ascontiguousarray(units.T), 1)
    assert np.max(np.abs(block.T - ref)) <= 1e-13


def test_norm_preserved():
    rng = np.random.default_rng(9)
    for n in [4, 64, 1024]:
        x = rng.standard_normal(n)
        assert np.isclose(np.linalg.norm(fwht(x)), np.linalg.norm(x))


def test_non_power_of_two_rejected():
    with pytest.raises(ShapeError):
        fwht(np.ones(3))
    with pytest.raises(ShapeError):
        fwht_axis(np.ones((2, 5)), axis=1)
    with pytest.raises(ShapeError):
        hadamard_matrix(12)
    with pytest.raises(ShapeError):
        last_block(768, 1)


def test_out_of_range_axis_rejected():
    # a ShapeError, which the CLI maps to an exit code, not an IndexError
    for axis in (2, -3, 5):
        with pytest.raises(ShapeError, match=f"axis {axis}"):
            fwht_axis(np.ones((4, 8)), axis)
    with pytest.raises(ShapeError, match="axis 0"):
        fwht_axis(np.float64(1.0), 0)


def test_fwht_axis_matches_columnwise():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 3))
    out = fwht_axis(a, axis=0)
    for j in range(3):
        assert np.allclose(out[:, j], fwht(a[:, j]))
    # and along the last axis of a 3-d array
    b = rng.standard_normal((2, 3, 16))
    out3 = fwht_axis(b, axis=2)
    for i in range(2):
        for j in range(3):
            assert np.allclose(out3[i, j], fwht(b[i, j]))
    # middle and negative axes of a 4-d array, contiguous or not, at
    # lengths whose digit split is uneven (one digit, 16x8, 32x16x16)
    for n in [2, 128, 8192]:
        c = rng.standard_normal((2, 3, n, 2))
        views = [
            (c, 2),
            (c, -2),
            (c.transpose(0, 2, 1, 3), 1),
            (c[:, ::2, :, ::-1], -2),
        ]
        for view, axis in views:
            before = view.copy()
            got = fwht_axis(view, axis)
            assert np.allclose(got, np.apply_along_axis(fwht, axis, view))
            assert np.array_equal(view, before)


def test_a_lone_row_transforms_as_in_a_batch():
    # numpy sends a one-row product to gemv, which rounds unlike gemm; the
    # kernel runs a lone row as gemm, so its bytes match any batch's
    rng = np.random.default_rng(12)
    for k in range(1, 14):
        x = rng.standard_normal((5, 1 << k))
        batch = fwht_axis(x, 1)
        for i in range(5):
            assert np.array_equal(fwht(x[i]), batch[i])
            assert np.array_equal(fwht_axis(x[i:i + 1], 1)[0], batch[i])


def _unfolded(a, k):
    # the kernel with the scale as a pass of its own: +-1 digit products,
    # then one multiply by 1/sqrt(4^k) = 2^-k, along the last axis of a
    # (pre, 4^k) array
    pre, n = a.shape
    cur, post = a, n
    for r in _digits(n):
        post //= r
        if post == 1:
            rows = cur.reshape(pre, r)
            cur = rows @ _sylvester(r) if pre > 1 else (
                rows.repeat(2, axis=0) @ _sylvester(r))[:1]
        else:
            cur = np.matmul(_sylvester(r), cur.reshape(pre, r, post))
        pre *= r
    return cur.reshape(a.shape) * 2.0**-k


def test_scale_on_the_last_digit_keeps_the_bytes_at_lengths_4k():
    # at n = 4^k the folded scale 2^-k is a power of two, so every product
    # and sum rounds as with the +-1 digit, then scaled
    rng = np.random.default_rng(13)
    for k in range(10):
        x = rng.standard_normal((3, 4**k))
        want = _unfolded(x, k)
        assert fwht(x[0]).tobytes() == want[0].tobytes(), k
        assert fwht_axis(x, 1).tobytes() == want.tobytes(), k


def test_sylvester_tables_are_read_only():
    # the +-1 matrix keeps exact integer sums (the adversarial family's
    # energies in theory_oracles); the scaled last digits are shared by
    # every call, so neither is writable
    for r in (1, 2, 4, 8, 16, 32):
        h = _sylvester(r)
        assert not h.flags.writeable
        assert np.array_equal(np.abs(h), np.ones((r, r)))
        for n in (r, 32 * r, 1 << 18):
            scaled = _scaled_sylvester(r, n)
            assert not scaled.flags.writeable
            assert np.array_equal(scaled, h * (1.0 / np.sqrt(n)))


def test_input_not_mutated():
    x = np.ones(8)
    fwht(x)
    assert np.array_equal(x, np.ones(8))


def test_active_backend_reports():
    assert active_backend() == "numpy"


def test_last_block_splits_only_where_m_is_small_against_n():
    # the m gathered 32-wide rows make at most a quarter of the row
    assert last_block(1 << 16, 512) == 32
    assert last_block(1 << 16, 513) == 1
    assert last_block(128, 1) == 32
    assert last_block(64, 1) == 1
    assert last_block(1, 1) == 1


@pytest.mark.parametrize("shape, axis, count", [
    ((3, 1), 1, 0), ((3, 32), 1, 1), ((2, 1 << 10), 1, 2),
    ((2, 1 << 13, 32), 1, 3), ((1, 1 << 18), 1, 4)])
def test_transform_in_lent_buffers_gives_the_fresh_bytes(shape, axis, count):
    # the input sits in the first of two lent buffers, at its front or
    # behind other data (as transforms._block_rows's gathered rows do):
    # digit i writes buffer (i + 1) % 2, so the first never overwrites the
    # input it reads, and the result is the fresh path's, in buffer
    # count % 2
    assert len(_digits(shape[axis])) == count
    a = np.random.default_rng(count).standard_normal(shape)
    want = _transformed(a, axis)
    for offset in (0, 5):
        whole = np.full(2 * (a.size + offset), np.nan)
        bufs = (whole[:a.size + offset], whole[a.size + offset:])
        held = bufs[0][offset:].reshape(shape)
        held[...] = a
        got = _transformed(held, axis, bufs)
        assert np.array_equal(got, want)
        assert np.shares_memory(got, bufs[count % 2][:a.size])
    assert not np.shares_memory(want, a)


def test_a_split_last_block_is_one_kernel_digit():
    # transforms._block_rows reads the gathered rows from the buffer the
    # high-bit transform left free and runs the last block into the other;
    # a block of two digits would land back in the free buffer, where the
    # index of the entries it keeps then goes
    for k in range(25):
        for m in (1, 2, 3, 7, 64, 100, 1 << 10, 1 << 14, (1 << 16) + 1):
            r = last_block(1 << k, m)
            if r > 1:
                assert _digits(r) == (r,)
