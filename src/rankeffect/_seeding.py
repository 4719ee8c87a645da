"""The generator states of a seed's child streams, computed a block at a time.

Replicate ``i`` of a scenario draws from ``PCG64(SeedSequence(seed,
spawn_key=(i,)))``.  At small samples building those objects costs more than
the normals they draw, so this module computes the same states for a block of
indices with the same two fixed algorithms: NumPy's ``SeedSequence`` (its
``hashmix`` and ``mix`` over a pool of four 32-bit words, then
``generate_state``; NEP 19 keeps them stable) and the PCG64 seeding of
O'Neill, *PCG*, HMC-CS-2014-0905 (2014).  The seed's words are mixed once, in
Python ints; each index's words and the output words are ``uint64``
arithmetic over the block, masked to 32 bits.
"""

import functools

import numpy as np

MASK32 = 0xFFFF_FFFF
MASK128 = (1 << 128) - 1
POOL_SIZE = 4
# SeedSequence's hash and mix constants
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.cache
def _hash_consts(steps: int) -> tuple[int, ...]:
    """``INIT_A * MULT_A**k mod 2**32`` for ``k <= steps``.

    Entropy ``hashmix`` step ``k`` xors with constant ``k`` and multiplies by
    constant ``k + 1``, whatever the words it hashes.
    """
    consts = [INIT_A]
    for _ in range(steps):
        consts.append(consts[-1] * MULT_A & MASK32)
    return tuple(consts)


def _mix(x, y):
    """``mix`` of pool words ``x`` and hashed words ``y``: Python ints or ``uint64`` arrays."""
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return result ^ result >> 16


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """The pool after the seed's words, and the ``hashmix`` steps taken."""
    words = [seed & MASK32]
    while seed := seed >> 32:
        words.append(seed & MASK32)
    words += [0] * (POOL_SIZE - len(words))  # a spawn key pads the seed to the pool
    # 4 steps fill the pool, 12 cross-mix it and 4 mix in each further word
    consts = _hash_consts(POOL_SIZE**2 + POOL_SIZE * (len(words) - POOL_SIZE))
    step = 0

    def hashmix(value):
        nonlocal step
        value = (value ^ consts[step]) * consts[step + 1] & MASK32
        step += 1
        return value ^ value >> 16

    pool = [hashmix(word) for word in words[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool, step


@functools.cache
def _round_consts(step: int) -> tuple[np.ndarray, np.ndarray]:
    """Per pool word, the ``hashmix`` constants of a spawn word mixed in at ``step``."""
    consts = np.array(_hash_consts(step + POOL_SIZE)[step:], np.uint64)[:, None]
    consts.setflags(write=False)  # shared by every call through the cache
    return consts[:-1], consts[1:]


def _mix_in(pool: np.ndarray, words: np.ndarray, step: int) -> np.ndarray:
    """The ``(4, R)`` pool with each index's word mixed into its every word."""
    xor, mult = _round_consts(step)
    hashed = words ^ xor
    hashed *= mult
    hashed &= MASK32
    hashed ^= hashed >> 16
    return _mix(pool, hashed)


_OUT_ROWS = np.arange(8) % POOL_SIZE
_OUT_CONSTS = np.array(
    [INIT_B * pow(MULT_B, k, 1 << 32) & MASK32 for k in range(9)], np.uint64
)[:, None]


def seed_words(seed, indices) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(8)`` for each ``i``.

    An ``(8, len(indices))`` ``uint64`` array, one column an index.  An index
    of 2**32 or more has a spawn key of two words and takes one more round.

    Raises
    ------
    ValueError
        An index is negative, as ``SeedSequence`` rejects it.
    OverflowError
        An index is at least 2**64.
    """
    if min(indices, default=0) < 0:  # numpy < 2 would wrap it to uint64
        raise ValueError(f"replicate index {min(indices)} is negative")
    pool, step = _seed_pool(int(seed))  # numpy-integer scalars would overflow
    index = np.array(indices, dtype=np.uint64)
    pool = _mix_in(np.array(pool, np.uint64)[:, None], index & MASK32, step)
    high = index >> 32
    if high.any():
        pool = np.where(high > 0, _mix_in(pool, high, step + POOL_SIZE), pool)
    out = pool[_OUT_ROWS] ^ _OUT_CONSTS[:-1]
    out *= _OUT_CONSTS[1:]
    out &= MASK32
    out ^= out >> 16
    return out


def pcg64_states(seed, indices) -> list[tuple[int, int]]:
    """The ``(state, inc)`` of ``PCG64(SeedSequence(seed, spawn_key=(i,)))`` for each ``i``."""
    words = seed_words(seed, indices)
    # generate_state(4, np.uint64): (initstate high, low, initseq high, low)
    halves = (words[0::2] | words[1::2] << 32).tolist()
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*halves):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & MASK128
        states.append(((((state_hi << 64 | state_lo) + inc) * PCG_MULT + inc) & MASK128, inc))
    return states
