"""Deterministic stream splitting for all randomized code paths.

Every random draw in the library comes from a substream addressed by a
master seed plus a tuple of integer tags.  Stream ``(seed, *tags)`` is the
PCG64 generator seeded with the four 64-bit words of
``numpy.random.SeedSequence(entropy=seed, spawn_key=tags).generate_state(4,
np.uint64)``.  That hash mixes the key material through a counter-based
function, so streams with different tags are independent and a stream never
changes when unrelated parts of a computation are added or removed (e.g.
extending a trace horizon, adding replicas).

The states are computed here, not by ``SeedSequence``: :func:`stream_states`
mixes the seed and the leading tags once and then the last tag of a whole
array of keys at once, with the constants of NumPy's SeedSequence hash,
which NumPy keeps stable across versions (NEP 19).  The words, and so every
stream and the layout below, are the ones ``SeedSequence`` gives; the tests
hold them to it.  A sampler derives all its window states in one call and
builds a window's generator only when it draws from it (:class:`Streams`).
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


def _consts(init: int, mult: int, steps: int) -> list[int]:
    """The hash constant before each of ``steps`` hashes from ``init``, and after the last."""
    out = [init]
    for _ in range(steps):
        out.append(out[-1] * mult & _MASK)
    return out


# The hash steps take Python ints or uint64 arrays: products of two 32-bit words fit in
# 64 bits, and a uint64 difference wraps modulo 2^64, a multiple of 2^32.
def _hashmix(value, const, next_const):
    value = (value ^ const) * next_const & _MASK
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK
    return result ^ result >> 16


# generate_state(4, np.uint64) hashes pool word i % 4 into 32-bit output word i of 8
_OUT = np.array(_consts(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint64)[:, None]
_A = _consts(_INIT_A, _MULT_A, 64)  # enough for a seed below 2^128 and up to 11 tag words


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer; ``[0]`` for 0.

    A negative seed or tag raises :class:`GraphonError`, so every entry point
    reports it as malformed input."""
    if value < 0:
        raise GraphonError("seed and tags must be non-negative integers")
    words = [value & _MASK]
    while value > _MASK:
        value >>= 32
        words.append(value & _MASK)
    return words


def _entropy(seed: int, tags) -> list[int]:
    """SeedSequence's entropy words for a nonempty spawn key: the seed padded to the pool, then the tags."""
    words = _words(int(seed))
    words += [0] * (_POOL - len(words))
    for t in tags:
        words += _words(int(t))
    return words


def _mixed_pool(words: list[int]) -> tuple[list[int], list[int]]:
    """SeedSequence's pool after mixing ``words`` (at least four), and the hash constants of one more word."""
    steps = _POOL * len(words) + _POOL
    c = _A if steps < len(_A) else _consts(_INIT_A, _MULT_A, steps)
    pool = [_hashmix(v, c[i], c[i + 1]) for i, v in enumerate(words[:_POOL])]
    i = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], c[i], c[i + 1]))
                i += 1
    for v in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(v, c[i], c[i + 1]))
            i += 1
    return pool, c[i:i + _POOL + 1]


def _states(pool: list[int], consts: list[int], last: np.ndarray) -> np.ndarray:
    """(n, 4) uint64 states of the pool after mixing in each word of ``last`` (n,) in turn."""
    c = np.array(consts, dtype=np.uint64)[:, None]
    mixed = _mix(np.array(pool, dtype=np.uint64)[:, None], _hashmix(last, c[:-1], c[1:]))  # (4, n)
    out = _hashmix(np.concatenate((mixed, mixed)), _OUT[:-1], _OUT[1:])  # (8, n)
    # little-endian pairs of 32-bit words; C order, so each row is one contiguous state
    return np.ascontiguousarray((out[0::2] | out[1::2] << np.uint64(32)).T)


def stream_states(seed: int, tags, keys) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(*tags, k)).generate_state(4, np.uint64)`` for each ``k`` in ``keys``.

    Returns a C-ordered (len(keys), 4) uint64 array, one row per key; ``keys``
    must lie in [0, 2^32).  The seed and ``tags`` are mixed once.
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    if (keys >> 32).any():  # negative, or 2^32 and more
        raise ValueError("stream keys must lie in [0, 2**32)")
    return _states(*_mixed_pool(_entropy(seed, tags)), keys.astype(np.uint64))


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
    if not tags:
        raise ValueError("a substream needs at least one tag")
    *words, last = _entropy(seed, tags)  # a last tag of 2^32 or more ends in its high word
    return generator(_states(*_mixed_pool(words), np.array([last], dtype=np.uint64))[0])
