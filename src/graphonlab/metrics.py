"""Cut norms, couplings and invariant distances between step graphons.

Distances are computed by the reduction pipeline that is valid for step
kernels: re-express both graphons on equal-mass blocks (rounding masses to
a common quantum and padding with zero blocks, which never changes the
distance), then optimize the cut norm of the difference over block
permutations.  Exact mode minimizes over every permutation of the common
refinement at the quantum used; when masses were rounded, the
mass-perturbation bound ``3 eps ||W||_1`` is added.  Either way the result
is an upper bound on the distance, not the distance: splitting blocks
admits fractional overlays that no permutation reaches, so a finer quantum
can give a smaller value.  The label ``exact`` says only that the
enumeration was complete and no mass was rounded.  Anneal mode searches
permutations by simulated annealing and is always labelled an upper bound.

The exact search is pruned without giving up exactness.  For a fixed
permutation let ``r`` be the differences of the block row sums (degrees)
of the two kernels; taking ``V`` as the whole space shows that the cut norm
of the difference is at least ``max(sum r+, sum r-) q^2`` and its L1 norm at
least ``sum |r| q^2``.  Permutations are scored in increasing order of this
bound and the search stops once the next bound exceeds the best value found,
so only the permutations whose bound reaches the minimum are scored; their
count is reported as ``budget_spent``.  Anneal mode estimates its work, the
evaluations its budget allows times the multiply-adds of one objective, and
raises ``CostLimitError`` above ``MAX_ANNEAL_WORK`` before evaluating any.

Every cut value comes from :func:`_cut_values`: a split subset enumeration
with BLAS reductions, within about ``4 n eps sum|m|`` of exact, exactly 0 on
zero input, and the same for a matrix in any stack, so ties break as in a
full search.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._rng import TAG_ANNEAL, TAG_HEURISTIC, substream
from .graphon_core import (
    MAX_DISCRETIZE_BLOCKS,
    CostLimitError,
    GraphonError,
    Partition,
    StepGraphon,
    _cell_average,
    _overlay,
    evaluate,
    l1_norm,
    stretch,
    zero_graphon,
)
from .sampling import SampledGraph

__all__ = [
    "Coupling",
    "CutNormResult",
    "DistanceReport",
    "cut_norm",
    "build_coupling",
    "common_refinement",
    "cut_distance",
    "invariant_l1_distance",
    "canonical_graphons",
    "stretched_cut_distance",
    "graph_graphon_distance_estimate",
    "weak_regularity_partition",
]

EXACT_CUTNORM_MAX_BLOCKS = 26
CUT_LOW_BLOCKS = 14  # blocks of U enumerated by one subset product; subsets of the rest are added to it
EXACT_PERM_MAX_BLOCKS = 8
PERM_CHUNK = 256
DEFAULT_QUANTUM_GRID = 1e-3
MARGINAL_TOL = 1e-10
ANNEAL_RESTARTS = 8
MAX_ANNEAL_WORK = 10 ** 11  # multiply-adds: 12 blocks at budget 60,000 take 4.4e10, 20 blocks at 50,000 take 3.5e12

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Cut norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutNormResult:
    """Cut norm value with the block-subset rectangle achieving it.

    ``mode`` is ``"exact"`` (true optimum; attained on unions of blocks) or
    ``"heuristic_lower"`` (best rectangle found by alternating maximization,
    a lower bound on the supremum).  ``evaluations`` counts the work: the
    ``2^n`` subsets ``U`` enumerated in exact mode, the start x sweep
    evaluations in heuristic mode.
    """

    value: float
    u_blocks: tuple[int, ...]
    v_blocks: tuple[int, ...]
    mode: str
    evaluations: int


@lru_cache(maxsize=8)
def _subset_bits(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1).astype(float)


def _block_integral_matrix(w: StepGraphon) -> np.ndarray:
    return w.values * np.outer(w.masses, w.masses)


def _cut_values(ms: np.ndarray):
    """max over block subsets U, V of |sum_{U x V} m| for each matrix ``m`` of
    the stack ``ms`` (shape ``(..., n, n)``), by enumerating U.

    Returns the maxima, the bitmask of each first maximizing ``U`` and the
    sign of its rectangle sum (``V`` is then the columns of that sign), all
    of shape ``ms.shape[:-2]``.  Above ``EXACT_CUTNORM_MAX_BLOCKS`` blocks it
    returns ``max(sum m+, sum m-)``, an upper bound since every rectangle sum
    lies in ``[-sum m-, sum m+]``, and ``None`` for the maximizer.

    Column sums split as ``s(U) = s(U_low) + s(U_high)`` over the first
    ``CUT_LOW_BLOCKS`` blocks and the rest, each half one product with the
    cached subset bits; the ``2^n`` sums are formed one high subset at a
    time.  The positive side is clamped in place and reduced by a product
    with a ones vector, the negative side is that minus the row sum of
    ``U``.  Ties go to the positive side within a high subset, else to the
    smaller bitmask.  Values are within about ``4 n eps sum|m|`` of exact,
    exact zeros stay 0, and every BLAS call is made per matrix, so a value
    does not depend on the rest of the stack.
    """
    lead, n = ms.shape[:-2], ms.shape[-1]
    if n > EXACT_CUTNORM_MAX_BLOCKS:
        pos, neg = (np.clip(x, 0.0, None).sum(axis=(-2, -1)) for x in (ms, -ms))
        return np.maximum(pos, neg), None, None
    flat = ms.reshape(math.prod(lead), n, n)
    low = min(n, CUT_LOW_BLOCKS)
    rows = flat.sum(axis=2)[:, :, None]
    low_bits, high_bits = _subset_bits(low), _subset_bits(n - low)
    s_low, t_low = low_bits @ flat[:, :low], (low_bits @ rows[:, :low])[..., 0]
    s_high, t_high = high_bits @ flat[:, low:], (high_bits @ rows[:, low:])[..., 0]
    s = s_low if low == n else np.empty_like(s_low)
    ones, k = np.ones(n), len(flat)
    best, best_u, best_sign = np.zeros(k), np.zeros(k, dtype=np.int64), np.ones(k)
    for h in range(s_high.shape[1]):
        if low < n:
            np.add(s_low, s_high[:, h, None], out=s)
        pos = np.maximum(s, 0.0, out=s) @ ones
        for vals, sign in ((pos, 1.0), (pos - (t_low + t_high[:, h, None]), -1.0)):
            i = vals.argmax(axis=1)
            top = vals[np.arange(k), i]
            better = top > best
            best[better], best_u[better], best_sign[better] = top[better], (h << low) + i[better], sign
    return best.reshape(lead), best_u.reshape(lead), best_sign.reshape(lead)


def _heuristic_cut(m: np.ndarray, rng: np.random.Generator, starts: int = 32) -> CutNormResult:
    """Alternating sign-flip maximization; a lower bound on the supremum."""
    n = m.shape[0]
    if n == 0:
        return CutNormResult(0.0, (), (), "heuristic_lower", 0)
    best, best_u, best_v, sweeps = 0.0, (), (), 0
    for _ in range(starts):
        v = rng.random(n) < 0.5
        value = -1.0
        for _ in range(64):
            sweeps += 1
            s = m[:, v].sum(axis=1) if v.any() else np.zeros(n)
            u_pos, u_neg = s > 0, s < 0
            pick_u, sign = (u_pos, 1.0) if s[u_pos].sum() >= -s[u_neg].sum() else (u_neg, -1.0)
            t = m[pick_u, :].sum(axis=0) if pick_u.any() else np.zeros(n)
            v_new = t > 0 if sign > 0 else t < 0
            new_value = abs(float(m[np.ix_(pick_u, v_new)].sum())) if pick_u.any() and v_new.any() else 0.0
            if new_value <= value + 1e-15:
                break
            value, v = new_value, v_new
            u = pick_u
        if value > best:
            best = value
            best_u = tuple(int(i) for i in np.flatnonzero(u))
            best_v = tuple(int(j) for j in np.flatnonzero(v))
    return CutNormResult(best, best_u, best_v, "heuristic_lower", sweeps)


def cut_norm(w: StepGraphon, mode: str = "exact", seed: int = 0, starts: int = 32) -> CutNormResult:
    """Cut norm ``sup_{U,V} |int_{UxV} W|`` of a step graphon.

    The optimum is attained on unions of blocks, so exact mode enumerates
    the ``2^n`` block subsets ``U`` with :func:`_cut_values` (about
    ``2^n n + 2^min(n, 14) n^2`` multiply-adds; the value is exact up to
    ``4 n eps`` times the L1 norm) and picks ``V`` by column-sum sign.
    Heuristic mode runs alternating maximization from random starts and its
    value is a lower bound on the supremum.  The block count and
    ``evaluations`` are logged at DEBUG.
    """
    if not isinstance(w, StepGraphon):
        raise GraphonError("cut_norm operates on step graphons")
    m = _block_integral_matrix(w)
    n = w.n_blocks
    if mode == "exact":
        if n > EXACT_CUTNORM_MAX_BLOCKS:
            raise CostLimitError(
                f"exact cut norm limited to {EXACT_CUTNORM_MAX_BLOCKS} blocks, got {n}", float(2 ** n) * n)
        best, best_u, sign = (x.item() for x in _cut_values(m))
        u = tuple(i for i in range(n) if (best_u >> i) & 1)
        s = m[list(u), :].sum(axis=0) if u else np.zeros(n)
        res = CutNormResult(best, u, tuple(int(j) for j in range(n) if sign * s[j] > 0), "exact", 1 << n)
    elif mode == "heuristic":
        res = _heuristic_cut(m, substream(seed, TAG_HEURISTIC, 0), starts)
    else:
        raise GraphonError(f"unknown cut_norm mode {mode!r}")
    logger.debug("cut_norm %s: %d blocks, %d evaluations", mode, n, res.evaluations)
    return res


# ---------------------------------------------------------------------------
# Couplings and refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coupling:
    """Nonnegative matrix with prescribed row and column mass marginals."""

    matrix: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.min(initial=0.0) < 0:
            raise GraphonError("coupling entries must be non-negative")
        if not np.allclose(m.sum(axis=1), self.row_masses, atol=MARGINAL_TOL, rtol=0):
            raise GraphonError("row marginals do not match")
        if not np.allclose(m.sum(axis=0), self.col_masses, atol=MARGINAL_TOL, rtol=0):
            raise GraphonError("column marginals do not match")


def build_coupling(masses1, masses2) -> Coupling:
    """Interval-overlap coupling of two block decompositions of the half line.

    Lay both mass vectors out as adjacent intervals from 0; the coupling of
    block ``i`` with block ``j`` is the length of their overlap.  Totals must
    agree (pad with zero-valued tail blocks first when they do not).
    """
    m1 = np.asarray(masses1, dtype=float)
    m2 = np.asarray(masses2, dtype=float)
    if abs(m1.sum() - m2.sum()) > MARGINAL_TOL:
        raise GraphonError(
            f"total masses differ ({m1.sum()} vs {m2.sum()}); extend with zero blocks first"
        )
    c1 = np.concatenate([[0.0], np.cumsum(m1)])
    c2 = np.concatenate([[0.0], np.cumsum(m2)])
    lo = np.maximum(c1[:-1, None], c2[None, :-1])
    hi = np.minimum(c1[1:, None], c2[None, 1:])
    matrix = np.clip(hi - lo, 0.0, None)
    return Coupling(matrix, m1, m2)


def _quantize(w: StepGraphon, q: float) -> tuple[StepGraphon, float, float]:
    """Split every block into equal-mass-q pieces after rounding its mass.

    Returns the refined graphon, the rounded total mass, and the absolute
    total-mass distortion (snapped to zero below float-dust scale, so that
    exactly commensurable masses keep a zero perturbation bound).
    """
    if w.n_blocks == 0:
        return w, 0.0, 0.0
    counts = _block_counts(w, q)
    idx = np.repeat(np.arange(w.n_blocks), counts)
    refined = StepGraphon(np.full(idx.size, q), w.values[np.ix_(idx, idx)], w.ambient_infinite)
    rounded_total = q * counts.sum()
    distortion = abs(w.total_mass - rounded_total)
    if distortion <= 64 * np.finfo(float).eps * max(1.0, w.total_mass):
        distortion = 0.0
    return refined, rounded_total, distortion


def _float_gcd(a: float, b: float, tol: float) -> float:
    while b > tol:
        a, b = b, math.fmod(a, b)
    return a


def _default_quantum(w1: StepGraphon, w2: StepGraphon) -> float:
    """Largest quantum dividing every block mass of both graphons.

    A floating Euclid pass handles exactly commensurable masses whatever
    their scale (e.g. the equal irrational blocks of stretched canonical
    graphons); when that would explode the block count, fall back to the
    coarser rule: the gcd of the masses rounded to the 1e-3 grid.
    """
    masses = np.concatenate([w1.masses, w2.masses])
    if masses.size == 0:
        return 1.0
    tol = 1e-9 * float(masses.max())
    g = float(masses[0])
    for m in masses[1:]:
        g = _float_gcd(g, float(m), tol)
    if g > 0 and float(masses.sum() / g) <= 4096.5:
        return g
    ints = np.round(masses / DEFAULT_QUANTUM_GRID).astype(np.int64)
    if ints.min() < 1:
        raise GraphonError("masses below 5e-4 cannot be quantized with the default rule; pass quantum")
    return float(np.gcd.reduce(ints)) * DEFAULT_QUANTUM_GRID


def _block_counts(w: StepGraphon, q: float) -> np.ndarray:
    """Number of mass-``q`` pieces each block's mass rounds to (at least one)."""
    counts = np.round(w.masses / q).astype(int)
    if counts.size and counts.min() < 1:
        raise GraphonError(f"quantum {q} is larger than the smallest block mass")
    return counts


def _refined_block_count(w1: StepGraphon, w2: StepGraphon, q: float) -> int:
    """Equal-mass block count of :func:`common_refinement` without building it."""
    if q <= 0:
        raise GraphonError("quantum must be positive")
    return max(int(_block_counts(w, q).sum()) for w in (w1, w2))


def common_refinement(w1: StepGraphon, w2: StepGraphon, q: float) -> tuple[StepGraphon, StepGraphon, float]:
    """Re-express both graphons on blocks of equal mass ``q``.

    Block masses are rounded to the nearest multiple of ``q`` (values are
    unchanged), totals are equalized by padding with zero blocks, and the
    returned perturbation bound is ``3 eps max(||W1||_1, ||W2||_1)`` where
    ``eps`` sums the relative total-mass distortion of both graphons.
    """
    if q <= 0:
        raise GraphonError("quantum must be positive")
    r1, t1, d1 = _quantize(w1, q)
    r2, t2, d2 = _quantize(w2, q)
    eps = (d1 / t1 if t1 else 0.0) + (d2 / t2 if t2 else 0.0)
    bound = 3.0 * eps * max(l1_norm(w1), l1_norm(w2))
    n1, n2 = r1.n_blocks, r2.n_blocks
    if n1 < n2:
        r1 = r1.append_zero_blocks([q] * (n2 - n1))
    elif n2 < n1:
        r2 = r2.append_zero_blocks([q] * (n1 - n2))
    return r1, r2, bound


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistanceReport:
    """Result of a distance computation.

    ``mode`` is ``"exact"`` only when the permutation enumeration ran with
    zero mass-quantization error; the value is then the minimum over block
    permutations of the common refinement at the quantum used.  That is an
    upper bound on the distance, which splitting blocks can lower, not the
    distance itself.  Otherwise (annealed searches and quantized inputs)
    the value is a certified upper bound, labelled ``"upper_bound"``.
    ``witness`` holds the permutation (or coupling description) achieving
    the value and ``quantization_error`` the mass-perturbation slack
    included in ``value``.  ``budget_spent`` counts the permutations whose
    objective was evaluated: annealing steps in anneal mode, permutations
    scored before the degree bound pruned the rest in exact mode, and 0
    when only the proportional-coupling bound applies.
    """

    value: float
    mode: str
    witness: tuple | dict
    quantization_error: float
    budget_spent: int


@lru_cache(maxsize=EXACT_PERM_MAX_BLOCKS + 1)
def _lex_permutations(n: int) -> np.ndarray:
    """All permutations of ``range(n)`` in lexicographic order, one per row of
    a read-only ``intp`` array (``itertools.permutations`` order).

    The table for ``k`` is built from the one for ``k - 1``: each first
    element ``f`` in turn, followed by the shorter table with the entries
    ``>= f`` raised by one, which keeps its rows in lexicographic order.
    """
    perms = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        first = np.repeat(np.arange(k, dtype=np.intp), len(perms))
        rest = np.tile(perms, (k, 1))
        rest += rest >= first[:, None]
        perms = np.column_stack((first, rest))
    perms.setflags(write=False)
    return perms


def _perm_objectives(a1: np.ndarray, a2: np.ndarray, perms: np.ndarray, q2: float, kind: str) -> np.ndarray:
    """Objective of every row of ``perms``: the L1 norm of ``a1 - a2[perm][:, perm]``
    times ``q2``, or the cut value (:func:`_cut_values`) of that difference times ``q2``."""
    diff = a1[None, :, :] - a2[perms[:, :, None], perms[:, None, :]]
    if kind == "l1":
        return np.abs(diff).sum(axis=(1, 2)) * q2
    return _cut_values(diff * q2)[0]


def _enumerate_permutations(a1: np.ndarray, a2: np.ndarray, q2: float, kind: str):
    """Exact minimum of the objective over all block permutations.

    Permutations are scored best-first in increasing order of their degree
    bound (a stable sort, so ties keep lexicographic order), ``PERM_CHUNK``
    at a time, until the next bound exceeds the best value by more than
    ``1e-12`` of the inputs' L1 scale, which covers float rounding in the
    bound.  Every permutation left unscored has an objective above the
    minimum, and ties are broken on the lexicographic index, so the witness
    is the lexicographically first minimizer, as in a full enumeration.
    Returns ``(value, witness, scored)``.
    """
    n = a1.shape[0]
    if n == 0:
        return 0.0, (), 0
    perms = _lex_permutations(n)
    # degree-difference lower bound of every objective (see the module docstring)
    r = a1.sum(axis=1)[None, :] - a2.sum(axis=1)[perms]
    if kind == "l1":
        bound = np.abs(r).sum(axis=1) * q2
    else:
        bound = np.maximum(np.clip(r, 0.0, None).sum(axis=1), np.clip(-r, 0.0, None).sum(axis=1)) * q2
    order = np.argsort(bound, kind="stable")
    slack = 1e-12 * float(np.abs(a1).sum() + np.abs(a2).sum()) * q2
    best, best_idx, scored, pos = math.inf, 0, 0, 0
    while pos < order.size and bound[order[pos]] <= best + slack:
        idx = order[pos:pos + PERM_CHUNK]
        pos += idx.size
        vals = _perm_objectives(a1, a2, perms[idx], q2, kind)
        scored += idx.size
        low = float(vals.min())
        first = int(idx[vals == low].min())
        if low < best or (low == best and first < best_idx):
            best, best_idx = low, first
            if best == 0.0:
                # no objective is negative: only a lexicographically earlier tie can still win
                rest = order[pos:]
                order = np.concatenate((order[:pos], rest[rest < best_idx]))
    return best, tuple(int(p) for p in perms[best_idx]), scored


def _anneal_work(n: int, kind: str, budget: int) -> float:
    """Multiply-adds of :func:`_anneal_permutations`: its most evaluations times
    the subset enumeration of :func:`_cut_values`, or the difference and its sums."""
    subsets = kind == "cut" and n <= EXACT_CUTNORM_MAX_BLOCKS
    per_eval = n * ((1 << min(n, CUT_LOW_BLOCKS)) * n + 3.0 * (1 << n)) if subsets else 3.0 * n * n
    return ANNEAL_RESTARTS * (1 + max(1, budget // ANNEAL_RESTARTS)) * per_eval


def _anneal_permutations(a1, a2, q2, kind, seed, budget):
    """Simulated annealing over block permutations with pairwise swaps; the
    objective is :func:`_perm_objectives`, so every value is an upper bound."""
    n = a1.shape[0]
    if n == 0:
        return 0.0, (), 0
    steps = max(1, budget // ANNEAL_RESTARTS)
    best_val, best_perm, spent = math.inf, np.arange(n), 0
    for r in range(ANNEAL_RESTARTS):
        rng = substream(seed, TAG_ANNEAL, r)
        perm = np.arange(n) if r == 0 else rng.permutation(n)
        val = float(_perm_objectives(a1, a2, perm[None], q2, kind)[0])
        spent += 1
        if val < best_val:
            best_val, best_perm = val, perm.copy()
        t0 = max(val, 1e-12)
        alpha = (1e-4) ** (1.0 / steps)  # geometric cooling to t0 * 1e-4
        temp = t0
        for _ in range(steps):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                temp *= alpha
                continue
            cand = perm.copy()
            cand[i], cand[j] = cand[j], cand[i]
            cand_val = float(_perm_objectives(a1, a2, cand[None], q2, kind)[0])
            spent += 1
            u = rng.random()  # drawn on every step, so ties and last-bit changes leave the stream in step
            if cand_val <= val or u < math.exp(-(cand_val - val) / max(temp, 1e-300)):
                perm, val = cand, cand_val
                if val < best_val:
                    best_val, best_perm = val, perm.copy()
            temp *= alpha
            if best_val <= 1e-15:
                return best_val, tuple(int(p) for p in best_perm), spent
    return best_val, tuple(int(p) for p in best_perm), spent


def _proportional_masses(w1: StepGraphon, w2: StepGraphon):
    """Ratio r >= 1 with masses(big) = r * masses(small), or None."""
    if w1.n_blocks != w2.n_blocks or w1.n_blocks == 0:
        return None
    lo, hi = (w1, w2) if w1.total_mass <= w2.total_mass else (w2, w1)
    r = hi.total_mass / lo.total_mass
    if r <= 1.0 + 1e-15:
        return None  # equal measures: the permutation pipeline owns this case
    if np.allclose(hi.masses, r * lo.masses, rtol=1e-12, atol=0):
        return lo, hi, r
    return None


def _proportional_coupling_value(lo: StepGraphon, hi: StepGraphon, r: float, kind: str) -> float:
    """Certified value under the measure-perturbation coupling.

    The larger-measure graphon is coupled to the zero extension of the
    smaller one so that matching blocks sit on the diagonal: block ``i``
    contributes a kept piece of mass ``m_i`` (kernel difference
    ``a_lo - a_hi``) and a surplus piece of mass ``(r-1) m_i`` where the
    extension is zero (kernel difference ``-a_hi``).  For identical kernels
    this realizes the ``3 eps ||W||_1`` mass-perturbation bound.
    """
    n = lo.n_blocks
    d = np.zeros((2 * n, 2 * n))
    d[:n, :n] = lo.values - hi.values
    d[:n, n:] = -hi.values
    d[n:, :n] = -hi.values
    d[n:, n:] = -hi.values
    masses = np.concatenate([lo.masses, (r - 1.0) * lo.masses])
    if kind == "l1":
        return float(masses @ np.abs(d) @ masses)
    return float(_cut_values(d * np.outer(masses, masses))[0])


def _distance(w1, w2, kind, mode, budget, seed, quantum) -> DistanceReport:
    if not isinstance(w1, StepGraphon) or not isinstance(w2, StepGraphon):
        raise GraphonError("distances operate on step graphons; discretize analytic families first")
    if mode not in ("exact", "anneal"):
        raise GraphonError(f"unknown distance mode {mode!r}")
    if w1.n_blocks == 0 and w2.n_blocks == 0:
        return DistanceReport(0.0, "exact", (), 0.0, 0)

    candidates: list[tuple[float, str, tuple | dict, float]] = []
    prop = _proportional_masses(w1, w2)
    if prop is not None:
        lo, hi, r = prop
        val = _proportional_coupling_value(lo, hi, r, kind)
        candidates.append((val, "upper_bound", {"coupling": "proportional", "ratio": r}, 0.0))

    spent = 0
    try:
        q = _default_quantum(w1, w2) if quantum is None else float(quantum)
        n = _refined_block_count(w1, w2, q)
    except GraphonError:
        if not candidates:
            raise
        n = None
    limit = EXACT_PERM_MAX_BLOCKS if mode == "exact" else MAX_DISCRETIZE_BLOCKS
    refusal = None
    if n is not None and n > limit:
        hint = " or use mode='anneal'" if mode == "exact" else ""
        refusal = (f"{mode} mode limited to {limit} equal-mass blocks, refinement has {n} (pass a coarser quantum{hint})",
                   math.factorial(min(n, 20)) * (2.0 ** min(n, 26)) * n if hint else float(budget) * n * n)
    elif n is not None and mode == "anneal":
        work = _anneal_work(n, kind, budget)
        if work > MAX_ANNEAL_WORK:
            refusal = (f"anneal mode limited to {MAX_ANNEAL_WORK:.3g} multiply-adds, {n} blocks at budget {budget} "
                       f"need {work:.3g} (pass a smaller budget or a coarser quantum)", work)
    if refusal is not None:
        if not candidates:
            raise CostLimitError(*refusal)
        n = None  # the proportional certificate stands in for the infeasible search
    if n is not None:
        r1, r2, qbound = common_refinement(w1, w2, q)
        q2 = q * q
        if mode == "exact":
            best, perm, spent = _enumerate_permutations(r1.values, r2.values, q2, kind)
            label = "exact" if qbound == 0.0 else "upper_bound"
            candidates.append((best + qbound, label, perm, qbound))
        else:
            best, perm, spent = _anneal_permutations(r1.values, r2.values, q2, kind, seed, budget)
            candidates.append((best + qbound, "upper_bound", perm, qbound))

    candidates.sort(key=lambda c: (c[0], c[1] != "exact"))
    value, label, witness, qerr = candidates[0]
    return DistanceReport(float(value), label, witness, float(qerr), spent)


def cut_distance(w1, w2, mode: str = "exact", budget: int = 50_000, seed: int = 0, quantum=None) -> DistanceReport:
    """Cut distance (infimum of the cut norm of the difference over couplings).

    Exact mode minimizes over all equal-mass block permutations after
    :func:`common_refinement` at the quantum used, plus the rounding slack
    when masses were rounded.  The result is an upper bound on the
    distance even when labelled ``exact``: splitting the blocks further
    (a smaller ``quantum``) can lower it.  The search scores permutations
    in increasing order of the degree-difference lower bound
    ``max(sum r+, sum r-) q^2`` (``r`` the block row-sum differences under
    the permutation, ``q`` the block mass) and stops once that bound
    exceeds the best value; value and witness equal those of a full
    lexicographic enumeration (ties go to the lexicographically first
    permutation), and ``budget_spent`` is the number scored.  Anneal
    mode searches permutations by simulated annealing (always an upper
    bound).  Inputs whose masses are exactly proportional additionally get
    a certified measure-perturbation coupling bound, and the best candidate
    wins.
    """
    return _distance(w1, w2, "cut", mode, budget, seed, quantum)


def invariant_l1_distance(w1, w2, mode: str = "exact", budget: int = 50_000, seed: int = 0, quantum=None) -> DistanceReport:
    """Invariant L1 distance: same reduction as :func:`cut_distance` with an
    L1 objective (exact per permutation, no subset search needed)."""
    return _distance(w1, w2, "l1", mode, budget, seed, quantum)


# ---------------------------------------------------------------------------
# Canonical and stretched graphons of graphs
# ---------------------------------------------------------------------------


def canonical_graphons(g) -> tuple[StepGraphon, StepGraphon]:
    """Canonical graphon on [0,1] and its stretched unit-L1-norm form.

    The canonical graphon gives every vertex a block of mass ``1/n`` with
    0/1 adjacency values; the stretched form gives every vertex mass
    ``1/sqrt(2|E|)`` so its L1 norm is exactly 1.  Edge-less graphs map to
    the zero graphon (the stretched convention).
    """
    n = g.num_vertices
    if n == 0:
        return zero_graphon(), zero_graphon()
    rows = g.edge_rows()
    adj = np.zeros((n, n))
    adj[rows[:, 0], rows[:, 1]] = 1.0
    adj[rows[:, 1], rows[:, 0]] = 1.0
    adj.setflags(write=False)  # both graphons then share it instead of copying it
    canonical = StepGraphon(np.full(n, 1.0 / n), adj, ambient_infinite=True)
    e = g.num_edges
    if e == 0:
        return canonical, zero_graphon()
    stretched = StepGraphon(np.full(n, 1.0 / math.sqrt(2.0 * e)), adj, ambient_infinite=True)
    return canonical, stretched


def _as_stretched(obj) -> StepGraphon:
    if isinstance(obj, StepGraphon):
        return stretch(obj)
    if isinstance(obj, SampledGraph):
        return canonical_graphons(obj.drop_isolated())[1]
    raise GraphonError(
        f"stretched distance needs a graph or a step graphon, got {type(obj).__name__}"
    )


def stretched_cut_distance(a, b, mode: str = "exact", budget: int = 50_000, seed: int = 0, quantum=None) -> DistanceReport:
    """Cut distance after rescaling each side's measure to unit L1 norm.

    Graphs, a trace as its final graph, enter through their stretched
    canonical graphon (isolated vertices are removed first; they never
    change the value), step graphons through :func:`stretch`.
    """
    return cut_distance(_as_stretched(a), _as_stretched(b), mode, budget, seed, quantum)


# ---------------------------------------------------------------------------
# Graph-vs-graphon convergence surrogate
# ---------------------------------------------------------------------------


def _overlap_difference(h: StepGraphon, b: StepGraphon) -> StepGraphon:
    """Difference kernel under the interval-overlap (identity) coupling."""
    lows, widths = _overlay(h.boundaries, b.boundaries, [max(h.total_mass, b.total_mass)])
    mids = lows + widths / 2
    x, y = mids[:, None], mids[None, :]
    return StepGraphon(widths, evaluate(h, x, y) - evaluate(b, x, y))


def graph_graphon_distance_estimate(trace, w: StepGraphon, alignment: str = "feature_oracle") -> float:
    """Measurable surrogate for the stretched distance of a sampled process
    snapshot to its generating graphon.  It is neither an upper nor a lower
    bound on that distance: the graph is averaged over vertex groups before
    the cut norm is taken, so the within-group term is dropped.

    Vertices of the final snapshot (isolated vertices removed) are grouped
    into blocks -- by their true features (``feature_oracle``) or by sorting
    degrees against block degrees (``degree_sort``) -- the stretched
    canonical graphon is averaged over that grouping, and the cut norm of
    its difference with ``stretch(w)`` is taken under the identity
    (interval-overlap) coupling: exactly up to ``EXACT_CUTNORM_MAX_BLOCKS``
    blocks, and as the upper bound ``max(sum m+, sum m-)`` above.

    The average comes from counts: a group of ``n_a`` vertices has mass
    ``n_a / sqrt(2|E|)`` and value ``e_ab / (n_a n_b)`` against group ``b``,
    ``e_ab`` counting ordered adjacent pairs; empty groups are dropped.
    Cost: O(|V| + |E|) (plus a degree sort under ``degree_sort``) and k^2
    block work for ``k`` blocks, with no |V| x |V| array.
    """
    if not isinstance(w, StepGraphon):
        raise GraphonError("distance estimate needs a step graphon reference")
    g = trace.drop_isolated()
    b = stretch(w)
    if g.num_edges == 0:
        return l1_norm(b)
    ell = 1.0 / math.sqrt(2.0 * g.num_edges)

    n = g.num_vertices
    if alignment == "feature_oracle":
        groups = w.block_of(g.features[:, 0])
        if np.any(groups < 0):
            raise GraphonError("feature oracle: some features fall outside the graphon's blocks "
                               "(block structure mismatch)")
        if isinstance(trace.graphon, StepGraphon) and trace.graphon.n_blocks != w.n_blocks:
            raise GraphonError(
                f"block-count mismatch: trace sampled from {trace.graphon.n_blocks} blocks, reference has {w.n_blocks}"
            )
    elif alignment == "degree_sort":
        order = np.argsort(-g.degree_sequence(), kind="stable")
        block_order = np.argsort(-w.block_degrees(), kind="stable")
        cum = np.cumsum(w.masses[block_order]) / w.total_mass
        cuts = np.round(cum * n).astype(int)
        groups = np.empty(n, dtype=int)
        groups[order] = block_order[np.searchsorted(cuts, np.arange(n), side="right")]
    else:
        raise GraphonError(f"unknown alignment {alignment!r}")

    k = w.n_blocks
    sizes = np.bincount(groups, minlength=k)
    present = np.flatnonzero(sizes)
    sizes = sizes[present].astype(float)
    counts = g.group_edge_counts(groups, k)[np.ix_(present, present)]
    h = StepGraphon(sizes * ell, counts / np.outer(sizes, sizes), ambient_infinite=True)
    return float(_cut_values(_block_integral_matrix(_overlap_difference(h, b)))[0])


# ---------------------------------------------------------------------------
# Weak regularity partitions
# ---------------------------------------------------------------------------


def weak_regularity_partition(w: StepGraphon, k: int, budget: int = 64, seed: int = 0) -> tuple[Partition, float]:
    """Greedy Frieze-Kannan refinement into at most ``k`` classes.

    Repeatedly finds a heuristic cut-norm witness of ``W - W_P`` and splits
    every class by the witness sets until ``k`` classes are reached or the
    budget of witness searches is spent.  Returns the partition with the
    smallest heuristic residual seen (so the residual is nonincreasing in
    ``k``) together with that residual.
    """
    if k < 1:
        raise GraphonError("class count k must be at least 1")
    if not isinstance(w, StepGraphon):
        raise GraphonError("weak_regularity_partition operates on step graphons")
    if w.n_blocks == 0:
        return Partition((), ()), 0.0

    def residual_of(assign: np.ndarray, it: int) -> tuple[float, CutNormResult]:
        expanded = _cell_average(w, assign, int(assign.max()) + 1)[np.ix_(assign, assign)]
        diff = StepGraphon(w.masses, w.values - expanded, w.ambient_infinite)
        res = _heuristic_cut(_block_integral_matrix(diff), substream(seed, TAG_HEURISTIC, 10 + it), starts=16)
        return res.value, res

    assignment = np.zeros(w.n_blocks, dtype=int)
    best_assignment = assignment.copy()
    best_residual, witness = residual_of(assignment, 0)
    spent = 1
    it = 0
    while spent < budget:
        if best_residual <= 1e-15:
            break
        changed = False
        for side in (witness.u_blocks, witness.v_blocks):
            marks = np.zeros(w.n_blocks, dtype=int)
            marks[list(side)] = 1
            refined = assignment * 2 + marks
            _, refined = np.unique(refined, return_inverse=True)
            n_cells = int(refined.max()) + 1 if refined.size else 0
            if n_cells > k or np.array_equal(refined, assignment):
                continue
            assignment = refined
            changed = True
        if not changed:
            break
        it += 1
        value, witness = residual_of(assignment, it)
        spent += 1
        if value < best_residual:
            best_residual, best_assignment = value, assignment.copy()
    return Partition.from_assignment(w, best_assignment.tolist()), best_residual
