"""Fairness and throughput summaries over users drawn from the density."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

# PCG64 as NumPy seeds it (see _pcg64_doubles): the 128-bit LCG multiplier,
# then SeedSequence's hash constants
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
HASH_INIT_A, HASH_MULT_A = 0x43B0D7E5, 0x931E8875
HASH_INIT_B, HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
DRAW_BLOCK = 1024  # draws per block, each jumped to from the block's start
DRAW_TILE = 1 << 14  # seeds x steps drawn at once, about 128 kB per temporary
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


@dataclass(frozen=True)
class UserSample:
    """The grid cell of each sampled user, one row of cells per seed."""

    cells: np.ndarray

    @property
    def n_users(self):
        """Every user drawn: n_seeds * n_users."""
        return self.cells.size


def sample_users(grid, n_users, seeds):
    """Draw n_users users' cells from the cell-mass distribution for each
    of a sequence of non-negative integer seeds: cells of shape
    (len(seeds), n_users).

    Inverse-CDF sampling over the flat cell masses.  Each row is that
    seed's own stream: PCG64 seeded through SeedSequence, the doubles
    NumPy's default_rng(seed).random(n_users) gives, computed here
    (_pcg64_doubles), so the draws do not move with NumPy's Generator.  The
    CDF, built for this call, ends at exactly 1 and draws lie in [0, 1), so
    every index is a cell with positive mass.  All draws are located in one
    search, taken in sorted order so it walks the CDF once.  ValueError
    names n_users when NumPy cannot shape or allocate the draws; a negative
    seed raises ValueError too.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    try:
        draws = np.empty((len(seeds), n_users))
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"cannot draw n_users = {n_users} users for n_seeds = {len(seeds)}: "
                         f"{exc}") from None
    _pcg64_doubles(seeds, draws)
    flat = draws.reshape(-1)
    order = np.argsort(flat)
    cells = np.empty(flat.size, dtype=np.intp)
    cells[order] = np.searchsorted(_cell_cdf(grid), flat[order], side="right")
    return UserSample(cells=cells.reshape(draws.shape))


def _cell_cdf(grid):
    """Cumulative cell mass scaled to end at exactly 1."""
    cdf = np.cumsum(grid.cell_mass)
    cdf /= cdf[-1]
    return cdf


def _pcg64_doubles(seeds, out):
    """Fill row r of out, a C-ordered float64 (len(seeds), n) array, with the
    n doubles np.random.default_rng(seeds[r]).random(n) gives, bit for bit.

    That stream is PCG64 (O'Neill 2014): a 128-bit LCG s -> a s + inc whose
    every step outputs the 64 bits hi ^ lo of s rotated right by s >> 122,
    of which a double keeps the top 53.  A block's draw j is the state j
    steps on from the block's start s, A_j s + C_j inc with the jump table's
    A_j = a**j and C_j = sum_{i<j} a**i, for DRAW_BLOCK steps at a time and
    as many seeds as fit a DRAW_TILE tile; the next block starts from the
    block's last state, and the first from the seeded state.
    """
    state, inc = _seed_states(seeds)
    n = out.shape[1]
    a_hi, a_lo, c_hi, c_lo = _jump_table()
    group = max(1, DRAW_TILE // min(n, DRAW_BLOCK))
    for first in range(0, len(out), group):
        rows = slice(first, first + group)
        s = (state[0][rows, None], state[1][rows, None])
        i = (inc[0][rows, None], inc[1][rows, None])
        for start in range(0, n, DRAW_BLOCK):
            j = slice(0, min(DRAW_BLOCK, n - start))
            hi, lo = _affine((a_hi[j], a_lo[j]), (c_hi[j], c_lo[j]), s, i)
            s = (hi[:, -1:].copy(), lo[:, -1:].copy())
            x, rot = np.bitwise_xor(lo, hi, out=lo), np.right_shift(hi, 58, out=hi)
            x = (x >> rot) | (x << ((64 - rot) & 63))  # rotate right by rot
            x >>= 11
            np.multiply(x, 2.0**-53, out=out[rows, start:start + x.shape[1]])


def _seed_states(seeds):
    """Each seed's PCG64 state as default_rng(seed) leaves it and its
    increment, as (hi, lo) pairs of uint64 arrays: the
    SeedSequence(seed).generate_state(4, uint64) words w0..w3 give
    inc = (w2 w3) << 1 | 1 and s = inc + (w0 w1), and seeding takes one
    step, to a s + inc."""
    seeds = [operator.index(seed) for seed in seeds]
    if min(seeds, default=0) < 0:
        raise ValueError("seeds must be non-negative")
    # little-endian 32-bit words, zero-padded to the pool of 4: SeedSequence
    # mixes a missing word in as 0
    n_words = np.array([max(1, -(-seed.bit_length() // 32)) for seed in seeds], dtype=int)
    width = max(4, int(n_words.max(initial=0)))
    words = np.frombuffer(b"".join(seed.to_bytes(4 * width, "little") for seed in seeds),
                          dtype="<u4").reshape(len(seeds), width)
    hashes = _hash_constants(HASH_INIT_A, HASH_MULT_A, 16 + 4 * (width - 4))
    pool = _hashmix(words[:, :4], hashes[:5])
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], hashes[k:k + 4]))
        k += 3
    for w in range(4, width):
        more = n_words > w
        pool[more] = _mix(pool[more], _hashmix(words[more, w:w + 1], hashes[k:k + 5]))
        k += 4
    out = _hashmix(np.tile(pool, 2), _hash_constants(HASH_INIT_B, HASH_MULT_B, 8))
    out = out.astype(np.uint64)
    w = out[:, 0::2] | out[:, 1::2] << 32  # w0..w3, each from two little-endian words
    inc = (w[:, 2] << 1 | w[:, 3] >> 63, w[:, 3] << 1 | 1)
    lo = inc[1] + w[:, 1]
    state = (inc[0] + w[:, 0] + (lo < w[:, 1]), lo)
    return _affine((PCG_MULT >> 64, PCG_MULT & _M64), (0, 1), state, inc), inc


@functools.cache
def _jump_table():
    """A_j = a**j and C_j = sum_{i<j} a**i mod 2**128 for j = 1..DRAW_BLOCK,
    as four read-only uint64 rows: A_j's high and low words, then C_j's."""
    power, total, table = 1, 0, []
    for _ in range(DRAW_BLOCK):
        power, total = power * PCG_MULT & _M128, total + power & _M128
        table.append((power >> 64, power & _M64, total >> 64, total & _M64))
    table = np.array(table, dtype=np.uint64).T.copy()
    table.setflags(write=False)
    return table


def _affine(a, c, s, inc):
    """a * s + c * inc mod 2**128, each a (hi, lo) pair of uint64 arrays,
    broadcast together."""
    (a_hi, a_lo), (c_hi, c_lo), (s_hi, s_lo), (i_hi, i_lo) = a, c, s, inc
    p = a_lo * s_lo
    lo = c_lo * i_lo
    lo += p
    hi = _mulhi(a_lo, s_lo)
    hi += _mulhi(c_lo, i_lo)
    hi += lo < p
    for x, y in ((a_lo, s_hi), (a_hi, s_lo), (c_lo, i_hi), (c_hi, i_lo)):
        hi += np.multiply(x, y, out=p)
    return hi, lo


def _mulhi(x, y):
    """The high 64 bits of the 128-bit products x * y of uint64 values, from
    their 32-bit halves."""
    x0, x1, y0, y1 = x & _M32, x >> 32, y & _M32, y >> 32
    hi, mid = x1 * y1, x0 * y0
    mid >>= 32
    for cross in (x0 * y1, x1 * y0):
        mid += cross & _M32
        cross >>= 32
        hi += cross
    mid >>= 32
    hi += mid
    return hi


def _hash_constants(init, mult, n):
    """init * mult**k mod 2**32 for k = 0..n, as uint32."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _M32)
    return np.array(h, dtype=np.uint32)


def _hashmix(v, h):
    """SeedSequence's hashmix of uint32 v, one call per entry along the last
    axis: call k xors in h[k], then multiplies by h[k + 1]."""
    return _xorshift((v ^ h[:-1]) * h[1:])


def _mix(x, y):
    """SeedSequence's mix of uint32 x and y."""
    return _xorshift(x * MIX_MULT_L - y * MIX_MULT_R)


def _xorshift(v):
    """v ^ (v >> 16), in place."""
    v ^= v >> 16
    return v


def jain_index(values):
    """Fairness of an allocation: (sum v)^2 / (n * sum v^2), 1 when even.

    Defined for non-negative allocations with at least one positive entry;
    all-zero input raises ValueError.  A 2-D allocation is scored row by
    row: the result is an array holding, for each row, the float the 1-D
    call on that row returns, bit for bit, and any all-zero row raises.
    """
    v = np.asarray(values, dtype=float, order="C")  # C rows sum as 1-D arrays do
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError("need a 1-D or 2-D, non-empty allocation")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("allocations must be finite and non-negative")
    rows = v.reshape(-1, v.shape[-1])
    peak = rows.max(axis=1, keepdims=True)
    if np.any(peak == 0.0):
        raise ValueError("Jain's index is undefined for an all-zero allocation")
    w = rows / peak  # rescale so the sums cannot over- or underflow
    n = rows.shape[1]
    # Python floats, as the 1-D index always took: float ** 2 is C pow, which
    # is not always s * s
    index = [s**2 / (n * q) for s, q in zip(w.sum(axis=1).tolist(), (w**2).sum(axis=1).tolist())]
    return index[0] if v.ndim == 1 else np.array(index)


def service_per_user(service, sample):
    """Bits for each sampled user: service holds each cell's bits per user
    on its own link, zero on unassigned cells."""
    return service[sample.cells]


def total_data_service(grid, service, n_users):
    """Total bits delivered to the expected user population, from each
    cell's bits per user (zero on unassigned cells)."""
    idx = np.flatnonzero(service)
    # einsum, not a BLAS dot: a threaded ddot stalls when the CPUs are busy
    return n_users * float(np.einsum("c,c->", service[idx], grid.cell_mass[idx]))
