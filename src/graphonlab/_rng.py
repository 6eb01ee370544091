"""Deterministic stream splitting for all randomized code paths.

Every random draw in the library comes from a substream addressed by a
master seed plus a tuple of integer tags.  Substreams are derived with
``numpy.random.SeedSequence(entropy=seed, spawn_key=tags)``, which hashes
the key material through a counter-based mixing function, so streams with
different tags are independent and a stream never changes when unrelated
parts of a computation are added or removed (e.g. extending a trace
horizon, adding replicas).
"""

from __future__ import annotations

import numpy as np

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
TAG_CONTROL = 10  # time-inhomogeneous control sampler: births, then edges, of window k
TAG_GENERIC = 11  # ad-hoc draws (demo scripts, graph families)
TAG_WINDOW_EDGES = 12  # edges of one vertex window of a graphon process


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, *tags)``."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(t) for t in tags))
    return np.random.Generator(np.random.PCG64(ss))
