"""Stream derivation against numpy's SeedSequence, the formula it computes.

``_rng`` lets ``SeedSequence`` mix the seed and the leading tags and mixes
in the last key word itself, for a whole array of keys at once; single
streams are ``SeedSequence``'s own.  Here ``np.random.SeedSequence`` is
also the oracle: every state, and the draws of every generator, must equal
the ones it gives for the full key.  The seeds 2^128 - 1 (four words) and
2^128 (five) sit on either side of the four-word pool, which the seed is
padded to, so the count of hash steps before the key word is checked on
both sides.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphonlab

from graphonlab._rng import TAG_REPLICA, Streams, generator, stream_states, substream
from graphonlab.experiments import replica_seed, replica_seeds
from graphonlab.graphon_core import GraphonError

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128, 2**130 + 7]
PREFIXES = [(12,), (5, 1), (2**32 + 5,), (7, 2**40 + 3), (0,)]
KEYS = [0, 1, 2, 255, 256, 2**31, 2**32 - 1]


def _oracle_state(seed, tags):
    return np.random.SeedSequence(seed, spawn_key=tuple(tags)).generate_state(4, np.uint64)


def _oracle_draws(seed, tags, count=16):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(tags)))).random(count)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", PREFIXES, ids=["one_tag", "two_tags", "one_wide_tag", "wide_second_tag", "zero_tag"])
def test_states_and_draws_equal_seed_sequence(seed, prefix):
    states = stream_states(seed, prefix, KEYS)
    assert states.shape == (len(KEYS), 4) and states.dtype == np.uint64
    for key, state in zip(KEYS, states):
        assert np.array_equal(state, _oracle_state(seed, (*prefix, key)))
        assert np.array_equal(generator(state).random(16), _oracle_draws(seed, (*prefix, key)))


@pytest.mark.parametrize("seed", SEEDS)
def test_substream_equals_seed_sequence(seed):
    for tags in [(12, 0), (5, 1, 3), (2**32 + 5,), (7, 2**40 + 3), (11, 2**32), (3, 2**70 + 1)]:
        assert np.array_equal(substream(seed, *tags).random(16), _oracle_draws(seed, tags))


def test_empty_keys():
    states = stream_states(3, (1,), np.zeros(0, dtype=np.int64))
    assert states.shape == (0, 4) and states.dtype == np.uint64
    assert len(Streams(3, (1,), [])) == 0


def test_rows_are_contiguous():
    # PCG64 seeds from the buffer of the state array, so a strided row would give another stream
    states = stream_states(9, (12,), range(5))
    assert states.flags.c_contiguous
    strided = np.asfortranarray(states)
    assert not strided[2].flags.c_contiguous
    assert np.array_equal(generator(strided[2]).random(16), _oracle_draws(9, (12, 2)))
    assert np.array_equal(generator(states.T[:, 2]).random(16), _oracle_draws(9, (12, 2)))


def test_bad_keys_and_seeds_are_rejected():
    for keys in ([2**32], [-1], np.array([0, 2**40])):
        with pytest.raises(ValueError):
            stream_states(0, (1,), keys)
    with pytest.raises(ValueError):
        substream(-1, 1)
    with pytest.raises(ValueError):
        substream(0, 1, -2)
    with pytest.raises(ValueError):
        substream(0)
    with pytest.raises(ValueError):
        generator(np.zeros(2, dtype=np.uint64))


def test_stream_states_need_a_leading_tag():
    # SeedSequence pads the seed to the pool only under a spawn key, so the leading tags may not be empty
    with pytest.raises(ValueError, match="at least one tag"):
        stream_states(0, (), [0])


def test_negative_seeds_are_malformed_input():
    # GraphonError, which every entry point and the command line report as malformed input
    for seed, tags in ((-1, (1,)), (0, (1, -2)), (-(2 ** 40), (6,))):
        with pytest.raises(GraphonError, match="non-negative"):
            substream(seed, *tags)
        with pytest.raises(GraphonError, match="non-negative"):
            stream_states(seed, tags, [0])


def test_streams_build_lazily_once():
    streams = Streams(4, (12,), [3, 9, 27])
    assert len(streams) == 3 and streams.built == {}
    rng = streams[1]
    assert streams[1] is rng and list(streams.built) == [1]
    assert np.array_equal(rng.random(16), _oracle_draws(4, (12, 9)))
    built = list(streams)
    assert built[1] is rng and len(streams.built) == 3
    assert np.array_equal(built[2].random(16), _oracle_draws(4, (12, 27)))


def test_replica_seeds_are_pinned():
    # the values SeedSequence(master, spawn_key=(TAG_REPLICA, index)).generate_state(1, np.uint64)[0] gives
    pinned = {(0, 0): 14654392231624963458, (7, 3): 13867255081647942538, (7, 4): 6343675779462118914,
              (2**40, 500_000): 11168685302120711798, (123456789, 17): 16355199957535147331}
    for (master, index), value in pinned.items():
        assert replica_seed(master, index) == value
        oracle = np.random.SeedSequence(master, spawn_key=(TAG_REPLICA, index)).generate_state(1, np.uint64)[0]
        assert value == int(oracle)
    assert replica_seeds(7, range(3, 5)) == [pinned[7, 3], pinned[7, 4]]
    assert all(type(s) is int for s in replica_seeds(7, range(3)))


def test_import_leaves_numpy_random_unloaded():
    """Importing every module derives no stream, so numpy.random loads at the first draw, not at import."""
    script = (
        "import importlib, pkgutil, sys\n"
        "import graphonlab\n"
        "for mod in pkgutil.iter_modules(graphonlab.__path__):\n"
        "    importlib.import_module('graphonlab.' + mod.name)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(graphonlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]
