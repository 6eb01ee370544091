"""Motif counting and rescaled homomorphism densities.

Counts are exact backtracking enumerations of adjacency-preserving maps;
densities rescale by ``(2|E|)^(k/2)`` for graphs and by ``||W||_1^(k/2)``
for graphons.  Divergence of analytic densities is decided by tail-exponent
arithmetic on the degree function, never by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import TAG_GENERIC, substream
from .graphon_core import (
    AnalyticGraphon,
    CaronFoxGraphon,
    CostLimitError,
    GraphonError,
    InfiniteBlockGraphon,
    MixedMembershipGraphon,
    RegionIndicatorGraphon,
    StepGraphon,
    degree_profile,
    flatten_to_line,
    l1_norm,
)

__all__ = [
    "MotifGraph",
    "motif",
    "HDensity",
    "StarMoment",
    "count_embeddings",
    "rescaled_density",
    "h_analytic",
    "star_moment",
]

MAX_MOTIF_VERTICES = 8
MAX_ASSIGNMENT_WORK = 10 ** 8


@dataclass(frozen=True)
class MotifGraph:
    """A small simple connected graph used as a density test pattern."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        k = self.num_vertices
        if k < 2:
            raise GraphonError("motifs need at least two vertices")
        if k > MAX_MOTIF_VERTICES:
            raise CostLimitError(f"motifs are capped at {MAX_MOTIF_VERTICES} vertices", float(k) ** k)
        seen = set()
        touched = set()
        for u, v in self.edges:
            if not (0 <= u < k and 0 <= v < k) or u == v:
                raise GraphonError(f"bad motif edge ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphonError(f"duplicate motif edge ({u}, {v})")
            seen.add(key)
            touched.update(key)
        if touched != set(range(k)):
            raise GraphonError("motifs must have no isolated vertices")
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        if not self._connected():
            raise GraphonError("motifs must be connected")

    def _connected(self) -> bool:
        adj = self.adjacency_lists()
        stack, seen = [0], {0}
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == self.num_vertices

    def adjacency_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency_lists()]

    @property
    def max_degree(self) -> int:
        return max(self.degrees())


def motif(name: str) -> MotifGraph:
    """Named motif library: edge, path3, triangle, c4, k4 and star_k (k <= 6)."""
    name = name.lower()
    if name == "edge":
        return MotifGraph(2, ((0, 1),))
    if name == "path3":
        return MotifGraph(3, ((0, 1), (1, 2)))
    if name == "triangle":
        return MotifGraph(3, ((0, 1), (1, 2), (0, 2)))
    if name == "c4":
        return MotifGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    if name == "k4":
        return MotifGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    if name.startswith("star_"):
        k = int(name.split("_", 1)[1])
        if not (1 <= k <= 6):
            raise GraphonError("star motifs support 1 to 6 leaves")
        return MotifGraph(k + 1, tuple((0, i) for i in range(1, k + 1)))
    raise GraphonError(f"unknown motif {name!r}")


def _search_order(f: MotifGraph) -> list[int]:
    """Vertex order where each vertex after the first touches a placed one."""
    adj = f.adjacency_lists()
    deg = f.degrees()
    order = [max(range(f.num_vertices), key=lambda v: deg[v])]
    placed = set(order)
    while len(order) < f.num_vertices:
        nxt = max(
            (v for v in range(f.num_vertices) if v not in placed and any(u in placed for u in adj[v])),
            key=lambda v: deg[v],
        )
        order.append(nxt)
        placed.add(nxt)
    return order


def count_embeddings(f: MotifGraph, g) -> tuple[int, int]:
    """Exact ``(inj, hom)`` counts of adjacency-preserving labeled maps.

    Backtracks in an order where every motif vertex is anchored to an
    already-placed neighbor, so candidates are intersections of adjacency
    sets; the injective pass additionally prunes candidates by degree.
    """
    labels = [int(x) for x in g.labels.tolist()]
    neighbors: dict[int, set[int]] = {lab: set() for lab in labels}
    for u, v in g.edge_list():
        neighbors[u].add(v)
        neighbors[v].add(u)
    order = _search_order(f)
    adj = f.adjacency_lists()
    f_deg = f.degrees()
    placed_nbrs: list[list[int]] = []
    for rank, v in enumerate(order):
        before = order[:rank]
        placed_nbrs.append([before.index(u) for u in adj[v] if u in before])

    def run(injective: bool) -> int:
        total = 0
        images: list[int] = []
        used: set[int] = set()

        def recurse(rank: int):
            nonlocal total
            if rank == len(order):
                total += 1
                return
            anchors = placed_nbrs[rank]
            if anchors:
                cands = neighbors[images[anchors[0]]]
                for a in anchors[1:]:
                    cands = cands & neighbors[images[a]]
            else:
                cands = neighbors.keys()
            want = f_deg[order[rank]]
            for c in cands:
                if injective:
                    if c in used or len(neighbors[c]) < want:
                        continue
                    used.add(c)
                images.append(c)
                recurse(rank + 1)
                images.pop()
                if injective:
                    used.discard(c)

        recurse(0)
        return total

    return run(True), run(False)


def rescaled_density(f: MotifGraph, g) -> tuple[float, float]:
    """``(h, h_inj)``: counts divided by ``(2|E|)^(|V(F)|/2)``.

    The edge motif has density exactly 1 on every graph with an edge.
    """
    e = g.num_edges
    if e < 1:
        raise GraphonError("rescaled density is undefined on an edge-less graph")
    inj, hom = count_embeddings(f, g)
    k = f.num_vertices
    denom = (2 * e) ** (k // 2)
    if k % 2 == 0:
        return hom / denom, inj / denom
    root = math.sqrt(2 * e)
    return hom / denom / root, inj / denom / root


@dataclass(frozen=True)
class HDensity:
    """Analytic rescaled density; ``finite=False`` flags a divergent value."""

    value: float
    stderr: float
    finite: bool


@dataclass(frozen=True)
class StarMoment:
    """Finiteness verdict and estimate of ``int D_W^k`` (the k-leaf star density
    numerator).  ``verdict`` is ``"finite"`` or ``"infinite"``; families whose
    tail exponents were undecidable would conservatively report ``"unknown"``,
    but every built-in family decides."""

    verdict: str
    value: float


def star_moment(w, k: int) -> StarMoment:
    """Finiteness of ``int D_W^k d mu`` by exact sums or tail-exponent arithmetic.

    Finiteness for the k-leaf star propagates to every connected motif of
    maximal degree at most k, which is how divergence pre-checks work.
    """
    if k < 1:
        raise GraphonError("star moments need k >= 1")
    if isinstance(w, StepGraphon):
        d = w.block_degrees()
        return StarMoment("finite", float((w.masses * d ** k).sum()))
    if isinstance(w, InfiniteBlockGraphon):
        return star_moment(flatten_to_line(w), k)
    if isinstance(w, (CaronFoxGraphon, RegionIndicatorGraphon, MixedMembershipGraphon)):
        if isinstance(w, RegionIndicatorGraphon):
            p0, _ = w.star_tail_exponents()
            if k * p0 >= 1.0:
                return StarMoment("infinite", math.inf)
        # Caron-Fox tails decay like x^-gamma with gamma > 1, so every moment
        # of the degree function is finite.
        prof = degree_profile(w, grid_points=2048)
        return StarMoment("finite", float((prof.weights * prof.degrees ** k).sum()))
    raise GraphonError(f"not a graphon: {type(w).__name__}")


def _step_density_numerator(f: MotifGraph, w: StepGraphon) -> float:
    n = w.n_blocks
    k = f.num_vertices
    if n == 0:
        return 0.0
    if float(n) ** k > MAX_ASSIGNMENT_WORK:
        raise CostLimitError(f"block assignment sum needs {n}^{k} terms", float(n) ** k)
    letters = "abcdefgh"[:k]
    operands = []
    subs = []
    for u, v in f.edges:
        operands.append(w.values)
        subs.append(letters[u] + letters[v])
    for v in range(k):
        operands.append(np.asarray(w.masses))
        subs.append(letters[v])
    return float(np.einsum(",".join(subs) + "->", *operands, optimize=True))


def h_analytic(f: MotifGraph, w, mc_samples: int = 100_000, seed: int = 0) -> HDensity:
    """Rescaled density ``h(F, W)``: exact block sums for step graphons,
    Monte Carlo over the truncated region for analytic families.

    A divergence pre-check on the star moment of the motif's maximal degree
    returns an infinite flag instead of a number when the integral cannot
    be finite.
    """
    norm = l1_norm(w)
    if norm <= 0:
        raise GraphonError("h(F, W) needs ||W||_1 > 0")
    k = f.num_vertices
    if isinstance(w, StepGraphon):
        return HDensity(_step_density_numerator(f, w) / norm ** (k / 2.0), 0.0, True)
    if isinstance(w, InfiniteBlockGraphon):
        return h_analytic(f, flatten_to_line(w), mc_samples, seed)
    if isinstance(w, AnalyticGraphon):
        check = star_moment(w, f.max_degree)
        if check.verdict == "infinite":
            return HDensity(math.inf, 0.0, False)
        rng = substream(seed, TAG_GENERIC, 17)
        vol = w.region_mass()
        feats = w.sample_features(mc_samples * k, rng)
        feats = np.asarray(feats, dtype=float).reshape(mc_samples, k, -1)
        prod = np.ones(mc_samples)
        for u, v in f.edges:
            if feats.shape[2] == 1:
                prod *= w.kernel(feats[:, u, 0], feats[:, v, 0])
            else:
                prod *= w.kernel(feats[:, u, :], feats[:, v, :])
        scale = vol ** k / norm ** (k / 2.0)
        value = float(prod.mean()) * scale
        stderr = float(prod.std(ddof=1)) / math.sqrt(mc_samples) * scale
        return HDensity(value, stderr, True)
    raise GraphonError(f"not a graphon: {type(w).__name__}")
