"""Scrambled Sobol' nets: the direction table, the net property, and
blocks that are slices of their chunk's net."""

import numpy as np
import pytest

from uncertlab.propagation import block_rows
from uncertlab.rng import (MAX_NET_INPUTS, NET_BITS, net_uniforms, scramble,
                           sobol_columns, substream)

NET = 1 << NET_BITS


def digits(uniforms: np.ndarray) -> np.ndarray:
    """The 52-digit points x of uniforms (x + 1/2) 2^-52, as uint64."""
    x = uniforms * 2.0 ** 52 - 0.5
    assert np.array_equal(x, np.floor(x)) and x.min() >= 0.0
    assert x.max() < 2.0 ** 52
    return x.astype(np.uint64)


def whole_net(net, n_inputs: int) -> np.ndarray:
    return net_uniforms(net, 0, np.empty((n_inputs, NET), np.uint64))


def test_direction_table_is_scipys_unscrambled_sobol():
    # in scipy's Gray-code order, point 2^(k+1) - 1 is natural point
    # 2^k: generator column k alone
    qmc = pytest.importorskip("scipy.stats.qmc")
    want = np.empty((MAX_NET_INPUTS, NET_BITS))
    for k in range(NET_BITS):
        engine = qmc.Sobol(MAX_NET_INPUTS, scramble=False)
        engine.fast_forward(2 ** (k + 1) - 1)
        want[:, k] = engine.random(1)[0]
    have = sobol_columns(MAX_NET_INPUTS).astype(np.float64) * 2.0 ** -52
    assert np.array_equal(have, want)


def test_unscrambled_points_are_scipys_bit_for_bit():
    qmc = pytest.importorskip("scipy.stats.qmc")
    n_inputs, m = 24, 12
    gray_order = qmc.Sobol(n_inputs, scramble=False).random_base2(m)
    n = np.arange(1 << m)
    natural = np.empty_like(gray_order)
    natural[n ^ (n >> 1)] = gray_order
    columns = sobol_columns(n_inputs)
    u = net_uniforms((np.zeros(n_inputs, np.uint64), columns), 0,
                     np.empty((n_inputs, 1 << m), np.uint64))
    assert np.array_equal(digits(u).T * 2.0 ** -52, natural)


@pytest.mark.parametrize("seed, chunk", [(0, 0), (1, 5), (2 ** 40, 31)])
def test_scrambled_net_has_one_point_in_every_elementary_interval(seed,
                                                                  chunk):
    # in the first two coordinates, each box of 2^-a by 2^-(16 - a)
    x1, x2 = digits(whole_net(scramble(sobol_columns(2),
                                       substream(seed, chunk)), 2))
    for a in range(NET_BITS + 1):
        box = ((x1 >> np.uint64(52 - a)) << np.uint64(NET_BITS - a)
               | x2 >> np.uint64(52 - NET_BITS + a))
        assert len(np.unique(box)) == NET, a


def test_scramble_keeps_leading_digits_and_fills_the_rest():
    # a unit lower triangular matrix keeps each column's leading digit
    # and, from random entries below the diagonal, fills the 36 digits
    # the table leaves 0
    columns = sobol_columns(24)
    _, scrambled = scramble(columns, substream(3, 0))
    assert np.array_equal(np.frexp(scrambled.astype(np.float64))[1],
                          np.frexp(columns.astype(np.float64))[1])
    assert not (columns & np.uint64(2 ** 36 - 1)).any()
    assert (scrambled & np.uint64(2 ** 36 - 1)).all()


@pytest.mark.parametrize("n_inputs", [1, 2, 3, 5, 24])
def test_a_block_alone_is_its_slice_of_the_whole_net(n_inputs):
    net = scramble(sobol_columns(n_inputs), substream(7, 2))
    whole = whole_net(net, n_inputs)
    rows = block_rows(n_inputs)
    for width in (rows, rows // 4, 1):
        for offset in {k * width % NET
                       for k in (0, 1, -1, NET // width // 2 + 3)}:
            block = net_uniforms(net, offset,
                                 np.empty((n_inputs, width), np.uint64))
            assert np.array_equal(block, whole[:, offset:offset + width]), \
                (width, offset)


@pytest.mark.parametrize("n_inputs", [3, MAX_NET_INPUTS])
def test_points_are_the_shift_xor_the_columns_of_their_index(n_inputs):
    # point i, one XOR at a time, against a block at the largest input
    # count's block size
    shift, columns = net = scramble(sobol_columns(n_inputs), substream(5, 1))
    width = block_rows(MAX_NET_INPUTS)
    for offset in (0, 37 * width, NET - width):
        want = []
        for i in range(offset, offset + width):
            x = shift.copy()
            for k in range(NET_BITS):
                if i >> k & 1:
                    x ^= columns[:, k]
            want.append(x)
        block = net_uniforms(net, offset,
                             np.empty((n_inputs, width), np.uint64))
        assert np.array_equal(digits(block), np.array(want).T), offset


def test_uniforms_lie_strictly_inside_the_unit_interval():
    # the smallest and largest 52-digit points give 2^-53 and 1 - 2^-53
    columns = np.zeros((2, NET_BITS), np.uint64)
    shift = np.array([0, 2 ** 52 - 1], np.uint64)
    u = net_uniforms((shift, columns), 0, np.empty((2, 4), np.uint64))
    assert (u[0] == 2.0 ** -53).all() and (u[1] == 1.0 - 2.0 ** -53).all()
    x = whole_net(scramble(sobol_columns(3), substream(4, 0)), 3)
    assert 0.0 < x.min() and x.max() < 1.0
    digits(x)


def test_chunks_and_seeds_scramble_differently():
    columns = sobol_columns(2)
    nets = [whole_net(scramble(columns, substream(seed, chunk)), 2)
            for seed, chunk in ((9, 0), (9, 1), (10, 0))]
    for i, a in enumerate(nets):
        for b in nets[i + 1:]:
            assert not np.isin(a, b).any()
