"""Deterministic random streams and scrambled Sobol' nets.

All randomness in the package flows through ``substream(seed, stream)``:
a numpy ``Generator`` backed by the counter-based Philox bit generator,
keyed by ``SeedSequence(seed, spawn_key=(stream,))``. Distinct stream
indices give disjoint substreams: Monte Carlo chunk i draws its net's
scramble from stream i, ``vi.optimize`` all training steps from stream
0 (a block of steps per call). ``verify`` draws its predict case's
records from stream 1 and its Monte Carlo case, one chunk, from stream
0, so the two never share a draw.
``numpy.random`` loads on the first call: conformity, predict, taylor
and analytic runs never load it.

Monte Carlo draws no pseudo-random uniforms. Each chunk is one base-2
Sobol' net of 2^16 points: Joe and Kuo's (2008) direction numbers for
the first :data:`MAX_NET_INPUTS` inputs, 16 generator columns each, are
package data (``sobol_directions.npy``, each column a 16-bit binary
fraction) read with ``np.load`` on the first Monte Carlo run.
:func:`scramble` applies Matousek's linear matrix scramble and a
digital shift, drawn from the chunk's own substream, to those columns
once, at 52 binary digits; Owen (1997) gives such nets' variance.
Point i of the net is the shift XOR the columns of i's set bits, so
:func:`net_uniforms` builds any aligned power-of-two range of points by
XOR doubling, and a range depends only on (seed, chunk, range), never
on what was built before it. A point's 52 digits with the exponent bits
of 1.0 make a double 1 + x 2^-52; less 1 - 2^-53 that is (x + 1/2)
2^-52 exactly, so every uniform lies in [2^-53, 1 - 2^-53] and every
inverse CDF stays finite.
"""

import functools
import os

import numpy as np

# inputs the direction table covers; Monte Carlo refuses more
MAX_NET_INPUTS = 1024
# a net holds 2^NET_BITS points: one Monte Carlo chunk
NET_BITS = 16
# binary digits of a scrambled coordinate: a double's fraction
_DIGITS = 52
_ONE_BITS = np.uint64(0x3FF0000000000000)    # 1.0's exponent bits
_BELOW_ONE = 1.0 - 2.0 ** -53


def substream(seed: int, stream: int = 0) -> "np.random.Generator":
    """Return the deterministic generator for (seed, stream)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if stream < 0:
        raise ValueError(f"stream index must be non-negative, got {stream}")
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


@functools.cache
def _direction_table() -> np.ndarray:
    """The (MAX_NET_INPUTS, NET_BITS) uint16 table, read once."""
    table = np.load(os.path.join(os.path.dirname(__file__),
                                 "sobol_directions.npy"))
    table.flags.writeable = False
    return table


def sobol_columns(n_inputs: int) -> np.ndarray:
    """The unscrambled generator columns of the first ``n_inputs``
    inputs, at most MAX_NET_INPUTS, shape (n_inputs, NET_BITS), as
    52-digit uint64 fractions."""
    return (_direction_table()[:n_inputs].astype(np.uint64)
            << np.uint64(_DIGITS - NET_BITS))


def scramble(columns: np.ndarray,
             rng: "np.random.Generator") -> tuple[np.ndarray, np.ndarray]:
    """A net's (shift, scrambled columns): per input a random lower
    triangular binary matrix with unit diagonal times each column, and
    a random 52-digit shift, both drawn from ``rng``."""
    n = len(columns)
    digit = np.arange(NET_BITS, dtype=np.uint64)
    # column s of the matrix: its diagonal digit s plus random lower ones
    place = np.uint64(_DIGITS - 1) - digit
    lower = rng.integers(0, 1 << _DIGITS, (n, NET_BITS), dtype=np.uint64)
    matrix = (lower >> (digit + np.uint64(1))) | (np.uint64(1) << place)
    # column k's scrambled value: XOR of the matrix columns of its digits
    has_digit = (columns[:, :, None] >> place) & np.uint64(1)
    scrambled = np.bitwise_xor.reduce(has_digit * matrix[:, None, :], axis=2)
    shift = rng.integers(0, 1 << _DIGITS, n, dtype=np.uint64)
    return shift, scrambled


def net_uniforms(net: tuple[np.ndarray, np.ndarray], offset: int,
                 out: np.ndarray) -> np.ndarray:
    """Uniforms of the net's points offset .. offset + R - 1, one row
    per input, as a float64 view of the uint64 (N, R) ``out``; R is a
    power of two and ``offset`` a multiple of it."""
    shift, columns = net
    level = out.shape[1].bit_length() - 1
    high = [k for k in range(level, NET_BITS) if offset >> k & 1]
    # the exponent bits ride along: no column reaches them
    out[:, 0] = (np.bitwise_xor.reduce(columns[:, high], axis=1)
                 ^ shift) | _ONE_BITS
    for k in range(level):
        np.bitwise_xor(out[:, :1 << k], columns[:, k, None],
                       out=out[:, 1 << k:2 << k])
    uniforms = out.view(np.float64)
    uniforms -= _BELOW_ONE
    return uniforms
