"""Deterministic stream splitting for all randomized code paths.

Every random draw in the library comes from a substream addressed by a
master seed plus a tuple of integer tags.  Stream ``(seed, *tags)`` is the
PCG64 generator seeded by ``numpy.random.SeedSequence(entropy=seed,
spawn_key=tags)``, whose hash NumPy keeps stable across versions (NEP 19).
That hash mixes the key material through a counter-based function, so
streams with different tags are independent and a stream never changes
when unrelated parts of a computation are added or removed (e.g.
extending a trace horizon, adding replicas).

A single stream (:func:`substream`) is numpy's own.  A sampler needs the
streams ``(seed, *tags, k)`` of a whole array of keys ``k``:
:func:`stream_states` lets ``SeedSequence`` mix the seed and the leading
tags once, then mixes in each key's word and emits the four state words
for all keys at once, with the constants of SeedSequence's hash.  The
states are the ones ``SeedSequence`` gives; the tests hold them to it.  A
sampler derives all its window states in one call and builds a window's
generator only when it draws from it (:class:`Streams`).
"""

from __future__ import annotations

import functools

import numpy as np

from .graphon_core import GraphonError

# Stream namespace tags.  Values are part of the on-disk reproducibility
# contract: changing them changes every sampled object.
#
# Sampler stream layout "window-v1" (written into trace JSON as "sampler").
# The samplers draw in windows: unit time windows for the graphon process,
# blocks of 256 arrivals for the sequential and dense models.  A window's
# edges, to all earlier vertices and among its own, come from one stream per
# window, so a run no longer builds one stream per vertex.  The earlier
# layout, unnamed in its trace files, drew one stream per arriving vertex
# (tag 2, retired and not to be reused).  Its process vertex windows (tag 1)
# and dense features (tag 5, index 0) are unchanged, so those births and
# features are bit-identical across the two layouts; edges and sequential
# features are not.  Drawing all windows' vertices before any edges leaves
# each stream's draws, and so this layout and its traces, unchanged.
# Outside the Caron-Fox Poisson path the layout defines one uniform coin per
# pair (u, v), u < v, drawn row by row in row-major order on the stream of
# the window holding v: v coins for row v.  The samplers read only the coins
# a decision needs -- a pair with W = 0 or W = 1 needs none -- and skip the
# rest with PCG64 ``bit_generator.advance`` (one 64-bit output per double),
# so a window whose pairs are all decided never builds its stream, and the
# layout and every trace stay those of the full draw.
#
# Layout "control-v1" draws the time-inhomogeneous control process, whose
# kernel reads birth times: unit window k takes a Poisson(1) count, that many
# sorted uniform births in [k, k + 1), and then its edge coins in the order
# of window-v1, all from the one stream (TAG_CONTROL, k).  Its traces record
# the kernel as their graphon and the births as their features.
TAG_WINDOW = 1  # Poisson vertex windows of a graphon process
TAG_SEQ_FEATURE = 3  # features of one arrival block of the sequential model
TAG_SEQ_EDGE = 4  # edges of one arrival block of the sequential model
TAG_WRANDOM = 5  # dense W-random graphs: (5, 0) features, (5, 1, b) edges of block b
TAG_REPLICA = 6  # experiment replicas
TAG_HEURISTIC = 7  # randomized cut-norm starts
# Tag 8 drew annealing restarts that took an acceptance uniform only for
# uphill swaps, so exact ties steered which draws came next; it is retired
# and not to be reused.  Tag 13 draws one uniform on every non-identity swap.
TAG_ANNEAL = 13  # annealing restarts
TAG_PERMTEST = 9  # exchangeability test permutations and sign flips
TAG_CONTROL = 10  # layout control-v1: births, then edges, of unit window k
TAG_GENERIC = 11  # ad-hoc draws (demo scripts, graph families)
TAG_WINDOW_EDGES = 12  # edges of one vertex window of a graphon process

# The constants of NumPy's SeedSequence hash (numpy/random/bit_generator.pyx).
_MASK = 0xFFFFFFFF
_POOL = 4  # 32-bit pool words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hash of the entropy words
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hash of the output words
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """The hash constants ``init * mult**i`` for ``first <= i < first + count``, as a uint64 column."""
    consts = [init * pow(mult, i, 1 << 32) & _MASK for i in range(first, first + count)]
    return np.array(consts, dtype=np.uint64)[:, None]


# The hash steps take uint64 arrays: products of two 32-bit words fit in 64 bits, and a
# uint64 difference wraps modulo 2^64, a multiple of 2^32.
def _hashmix(value, const, next_const):
    value = (value ^ const) * next_const & _MASK
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK
    return result ^ result >> 16


# generate_state(4, np.uint64) hashes pool word i % 4 into 32-bit output word i of 8
_OUT = _consts(_INIT_B, _MULT_B, 0, 2 * _POOL + 1)


def _words(value: int) -> int:
    """How many 32-bit words SeedSequence makes of a non-negative integer; one for 0."""
    return max(1, -(-value.bit_length() // 32))


def _checked(seed, tags) -> tuple[int, tuple[int, ...]]:
    """The seed and tags as ints; a negative one raises :class:`GraphonError`,
    so every entry point reports it as malformed input."""
    seed, tags = int(seed), tuple(int(t) for t in tags)
    if seed < 0 or any(t < 0 for t in tags):
        raise GraphonError("seed and tags must be non-negative integers")
    if not tags:
        raise ValueError("a stream needs at least one tag")
    return seed, tags


def stream_states(seed: int, tags, keys) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(*tags, k)).generate_state(4, np.uint64)`` for each ``k`` in ``keys``.

    Returns a C-ordered (len(keys), 4) uint64 array, one row per key; ``keys``
    must lie in [0, 2^32) and ``tags`` must not be empty.  The seed and
    ``tags`` are mixed once, by ``SeedSequence``.
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    if (keys >> 32).any():  # negative, or 2^32 and more
        raise ValueError("stream keys must lie in [0, 2**32)")
    seed, tags = _checked(seed, tags)
    pool = np.random.SeedSequence(seed, spawn_key=tags).pool.astype(np.uint64)[:, None]
    # mixing the seed, padded to the pool, and the tags took four hash steps per word
    c = _consts(_INIT_A, _MULT_A, _POOL * (max(_POOL, _words(seed)) + sum(map(_words, tags))), _POOL + 1)
    mixed = _mix(pool, _hashmix(keys.astype(np.uint64), c[:-1], c[1:]))  # (4, n)
    out = _hashmix(np.concatenate((mixed, mixed)), _OUT[:-1], _OUT[1:])  # (8, n)
    # little-endian pairs of 32-bit words; C order, so each row is one contiguous state
    return np.ascontiguousarray((out[0::2] | out[1::2] << np.uint64(32)).T)


@functools.cache
def _state_type() -> type:
    """A seed sequence that hands PCG64 one precomputed state.

    Made on first use: subclassing ``ISeedSequence`` loads ``numpy.random``,
    which importing graphonlab does not otherwise do.
    """
    from numpy.random.bit_generator import ISeedSequence

    class State(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for (4, np.uint64)

    return State


def generator(state: np.ndarray) -> np.random.Generator:
    """The PCG64 generator seeded with one row of :func:`stream_states`."""
    # PCG64 reads four words from the state's buffer, not its values: a strided row would seed a wrong stream
    state = np.ascontiguousarray(state, dtype=np.uint64)
    if state.shape != (_POOL,):
        raise ValueError("a stream state is four 64-bit words")
    return np.random.Generator(np.random.PCG64(_state_type()(state)))


class Streams:
    """The generators ``(seed, *tags, k)`` for ``k`` in ``keys``, each built when first asked for.

    All states are derived on construction, in one call; ``streams[i]`` is
    the generator of ``keys[i]``, the same object on every call.
    """

    def __init__(self, seed: int, tags, keys):
        self.states = stream_states(seed, tags, keys)
        self.built = {}

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> np.random.Generator:
        if i not in self.built:
            self.built[i] = generator(self.states[i])
        return self.built[i]


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, *tags)``; at least one tag."""
    seed, tags = _checked(seed, tags)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tags)))
