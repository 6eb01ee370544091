"""Graphon representations over sigma-finite measure spaces.

A graphon is an integrable symmetric kernel W on a measure space.  Every
family answers one interface, :class:`Graphon`: ``kernel(x, y)``, which is 0
outside the sampling region, ``feature_dim``, ``region_mass()`` and
``sample_features(count, rng)`` for the region where features are drawn,
``l1_truncated(tol)`` and ``tail_l1_bound(m)`` for its L1 mass,
``degree_function(xs)`` and ``star_tail_exponents()`` for its degrees, and
``step_form()``, a step graphon on the line together with the L1 residual
it leaves out.  Every exact computation reduces to that step form, so the
operations below make one call on the graphon instead of switching on its
family.  Two kinds implement the interface:

* :class:`StepGraphon` -- a finite symmetric step kernel over ordered,
  mass-weighted blocks of the half line, with an implicit zero-valued
  tail of infinite mass when ``ambient_infinite`` is set.  Its answers are
  exact block arithmetic, and every metric computation reduces to it.
* :class:`AnalyticGraphon` -- a closed enumeration of closed-form kernel
  families (Caron-Fox style ``1 - exp(-f(x) f(y))`` kernels, a region
  indicator under a power-law boundary curve, infinite block models and
  mixed-membership models), each carrying truncation metadata so that
  sampling and quadrature operate on a region of finite mass.

All objects are immutable values and all operations are pure.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GraphonError",
    "SpecError",
    "CostLimitError",
    "Graphon",
    "StepGraphon",
    "AnalyticGraphon",
    "CaronFoxGraphon",
    "RegionIndicatorGraphon",
    "InfiniteBlockGraphon",
    "MixedMembershipGraphon",
    "Truncation",
    "Partition",
    "DegreeProfile",
    "QuadratureEstimate",
    "TailTruncation",
    "evaluate",
    "l1_norm",
    "l1_norm_report",
    "degree_profile",
    "truncate_tail",
    "average_over_partition",
    "partition_from_boundaries",
    "stretch",
    "flatten_to_line",
    "discretize",
    "zero_graphon",
    "constant_graphon",
    "load_graphon_spec",
    "graphon_to_spec",
    "read_json_file",
    "load_graphon_file",
    "save_graphon_file",
]

MAX_DISCRETIZE_BLOCKS = 4096
QUAD_DEFAULT_TOL = 1e-6


class GraphonError(ValueError):
    """Base error for invalid graphon constructions or operations."""


class SpecError(GraphonError):
    """A serialized graphon spec failed validation."""


class CostLimitError(GraphonError):
    """An exact computation was rejected because its cost estimate is too large."""

    def __init__(self, message: str, cost_estimate: float):
        super().__init__(f"{message} (estimated cost ~{cost_estimate:.3g} primitive ops)")
        self.cost_estimate = cost_estimate


def _real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array, refusing what the spec readers refuse rather
    than casting it: an array of strings, booleans or other objects raises."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf":
        raise GraphonError(f"{name} must be integers or floats, got an array of dtype {a.dtype}")
    return a.astype(float, copy=False)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    # an owner that is already read-only is shared; a read-only view may still change through its base
    if type(a) is np.ndarray and a.dtype == np.float64 and a.base is None and not a.flags.writeable:
        return a
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class Graphon:
    """The questions every graphon answers, on scalar features unless
    ``feature_dim`` says otherwise."""

    family: str  # the spec ``"type"``
    feature_dim: int = 1
    exact_step_form = False  # whether ``step_form()`` is W on its sampling region, laid out on the line

    def kernel(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``W(x, y)`` elementwise on broadcast feature arrays; 0 outside the sampling region."""
        raise NotImplementedError

    def region_mass(self) -> float:
        """Mass of the sampling region (the explicit blocks or the truncation)."""
        raise NotImplementedError

    def sample_features(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` features uniformly from the sampling region."""
        raise NotImplementedError

    def l1_truncated(self, tol: float = QUAD_DEFAULT_TOL) -> "QuadratureEstimate":
        """L1 norm over the sampling region, with its error bound."""
        raise NotImplementedError

    def tail_l1_bound(self, m: float) -> float:
        """Certified bound on the L1 mass outside ``[0, m]^2`` in the scalar feature."""
        raise NotImplementedError

    def degree_function(self, xs: np.ndarray) -> np.ndarray:
        """``D_W`` on the sampling region, tabulated at scalar features ``xs``."""
        raise NotImplementedError

    def star_tail_exponents(self) -> tuple[float, float] | None:
        """Exponents ``(p0, p_inf)`` with ``D_W(x) ~ x^-p0`` near ``0`` and
        ``~ x^-p_inf`` near infinity, or None when unknown or bounded."""
        return None

    def step_form(self) -> tuple["StepGraphon", float]:
        """A step graphon on the line and the L1 mass of W it leaves out."""
        raise NotImplementedError

    def _flatten(self, weight_cells: int) -> "StepGraphon":
        """:func:`flatten_to_line` of this family."""
        raise GraphonError(f"flatten_to_line does not support {type(self).__name__}")

    def _cell_averages(self, edges: np.ndarray) -> np.ndarray:
        """Averages of W over the cells of the grid ``edges`` squared, for :func:`discretize`."""
        raise GraphonError("discretize operates on analytic graphons")


# ---------------------------------------------------------------------------
# Step graphons
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepGraphon(Graphon):
    """Symmetric step kernel on consecutive blocks of the half line.

    Block ``i`` occupies the interval ``[b[i], b[i+1])`` where ``b`` is
    ``boundaries``, the cumulative mass vector ``[0, m1, m1+m2, ...]``,
    computed once and read-only like ``masses``.  Beyond the last block the
    kernel is zero; with ``ambient_infinite`` the zero tail is regarded as
    carrying infinite measure (the trivial extension to an infinite-mass
    space).
    """

    family = "step"
    exact_step_form = True
    masses: np.ndarray
    values: np.ndarray
    ambient_infinite: bool = False

    def __init__(self, masses, values, ambient_infinite: bool = False):
        masses = _as_readonly(np.atleast_1d(_real_array(masses, "masses")))
        values = _real_array(values, "values")
        if masses.size == 0:
            values = np.zeros((0, 0))
        values = _as_readonly(values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise GraphonError("values must be a square matrix")
        if values.shape[0] != masses.size:
            raise GraphonError(
                f"block count mismatch: {masses.size} masses vs {values.shape[0]}x{values.shape[1]} values"
            )
        if masses.size and (not np.all(np.isfinite(masses)) or np.any(masses <= 0)):
            bad = int(np.argmin((masses > 0) & np.isfinite(masses)))
            raise GraphonError(f"masses[{bad}] = {masses[bad]!r} must be a positive finite real")
        if not np.all(np.isfinite(values)):
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise GraphonError(f"values[{i}][{j}] is not finite")
        if not np.array_equal(values, values.T):
            i, j = np.argwhere(values != values.T)[0]
            raise GraphonError(f"values must be exactly symmetric; values[{i}][{j}] != values[{j}][{i}]")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ambient_infinite", bool(ambient_infinite))
        object.__setattr__(self, "boundaries", _as_readonly(np.concatenate([[0.0], np.cumsum(masses)])))

    @property
    def n_blocks(self) -> int:
        return self.masses.size

    @property
    def total_mass(self) -> float:
        """Mass of the explicit blocks (the ambient tail is not included)."""
        return float(self.masses.sum())

    def block_of(self, x) -> np.ndarray:
        """Block index of each point, or -1 beyond the last block."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.boundaries, x, side="right") - 1
        idx = np.where((x >= 0) & (idx < self.n_blocks), idx, -1)
        return idx

    def kernel(self, x, y) -> np.ndarray:
        """The value of the blocks holding ``x`` and ``y``; 0 beyond the last block."""
        i, j = self.block_of(x), self.block_of(y)
        if self.n_blocks == 0:
            return np.zeros(np.broadcast(i, j).shape)
        return np.where((i >= 0) & (j >= 0), self.values[np.maximum(i, 0), np.maximum(j, 0)], 0.0)

    _kernel = kernel  # the formula is already 0 outside the blocks

    def region_mass(self) -> float:
        return self.total_mass

    def step_form(self) -> tuple["StepGraphon", float]:
        return self, 0.0

    def sample_features(self, count, rng):
        return rng.uniform(0.0, self.total_mass, size=count)

    def l1_truncated(self, tol: float = QUAD_DEFAULT_TOL) -> "QuadratureEstimate":
        """Exact block arithmetic, so the error bound is 0 whatever ``tol``."""
        value = float(self.masses @ np.abs(self.values) @ self.masses) if self.n_blocks else 0.0
        return QuadratureEstimate(value, 0.0, True)

    def tail_l1_bound(self, m: float) -> float:
        # exact: the blocks' mass inside [0, m] gives the L1 mass kept
        b = self.boundaries
        inside = b[1:] <= m
        masses = np.where(inside, self.masses, np.maximum(0.0, m - b[:-1]))
        masses = np.minimum(masses, self.masses)
        ab = np.abs(self.values)
        total = float(masses @ ab @ masses)
        full = float(self.masses @ ab @ self.masses)
        return full - total

    def degree_function(self, xs) -> np.ndarray:
        idx = self.block_of(xs)
        if self.n_blocks == 0:
            return np.zeros(idx.shape)
        return np.where(idx >= 0, self.block_degrees()[np.maximum(idx, 0)], 0.0)

    def block_degrees(self) -> np.ndarray:
        """Per-block degree function values ``D_i = sum_j a_ij m_j``."""
        if self.n_blocks == 0:
            return np.zeros(0)
        return self.values @ self.masses

    def is_probability_kernel(self) -> bool:
        return self.n_blocks == 0 or (self.values.min() >= 0.0 and self.values.max() <= 1.0)

    def restrict_blocks(self, keep: Sequence[int]) -> "StepGraphon":
        keep = list(keep)
        return StepGraphon(self.masses[keep], self.values[np.ix_(keep, keep)], self.ambient_infinite)

    def append_zero_blocks(self, extra_masses: Sequence[float]) -> "StepGraphon":
        """Trivial extension by zero-valued blocks (distances are unchanged)."""
        extra = np.asarray(list(extra_masses), dtype=float)
        if extra.size == 0:
            return self
        n, k = self.n_blocks, extra.size
        vals = np.zeros((n + k, n + k))
        vals[:n, :n] = self.values
        return StepGraphon(np.concatenate([self.masses, extra]), vals, self.ambient_infinite)


def zero_graphon() -> StepGraphon:
    return StepGraphon(np.zeros(0), np.zeros((0, 0)))


def constant_graphon(value: float, mass: float = 1.0, ambient_infinite: bool = False) -> StepGraphon:
    return StepGraphon([mass], [[value]], ambient_infinite)


# ---------------------------------------------------------------------------
# Analytic graphon families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Truncation:
    """Feature-space cutoff together with the L1 mass it leaves behind.

    Exactly one of the two fields may be supplied; the family computes the
    other from its tail bound and stores both.
    """

    x_max: float
    target_l1_residual: float

    def __post_init__(self):
        if not (self.x_max > 0 and math.isfinite(self.x_max)):
            raise GraphonError("truncation x_max must be positive and finite")
        if not (self.target_l1_residual >= 0):
            raise GraphonError("truncation target_l1_residual must be non-negative")


class AnalyticGraphon(Graphon):
    """Base class for the closed enumeration of closed-form families.

    Each family stores its :class:`Truncation` as ``_trunc`` and its kernel
    formula as ``_kernel``.  Unless a family says otherwise, the sampling
    region is ``[0, x_max]`` in the role feature (the last coordinate),
    features are uniform on it, and the step form is the cell-average grid
    of 256 equal cells, with Simpson cell averages.
    """

    _trunc: Truncation

    @property
    def truncation(self) -> Truncation:
        return self._trunc

    def kernel(self, x, y):
        """``_kernel``, cut to 0 where a role feature lies outside ``[0, x_max]``."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        rx, ry = (x, y) if self.feature_dim == 1 else (x[..., -1], y[..., -1])
        m = self._trunc.x_max
        return np.where((rx >= 0) & (rx <= m) & (ry >= 0) & (ry <= m), self._kernel(x, y), 0.0)

    def region_mass(self) -> float:
        return self._trunc.x_max

    def sample_features(self, count, rng):
        return rng.uniform(0.0, self._trunc.x_max, size=count)

    def step_form(self) -> tuple["StepGraphon", float]:
        return _grid_graphon(self, 256), self._trunc.target_l1_residual

    def _flatten(self, weight_cells):
        raise GraphonError(f"{self.family} has no block structure; use discretize instead")

    def _cell_averages(self, edges):
        return _simpson_cell_averages(self, edges)


def _solve_x_max(tail_bound, target: float, lo: float = 1e-9, hi: float = 1e12) -> float:
    """Smallest m with tail_bound(m) <= target, by bisection on a decreasing bound."""
    if tail_bound(hi) > target:
        raise GraphonError(f"cannot reach L1 residual {target}: tail bound at {hi} is {tail_bound(hi)}")
    if tail_bound(lo) <= target:
        return lo
    for _ in range(200):
        mid = math.sqrt(lo * hi) if hi / lo > 16 else 0.5 * (lo + hi)
        if tail_bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def _resolve_truncation(tail_bound, x_max, target) -> Truncation:
    if x_max is None and target is None:
        raise GraphonError("supply x_max or target_l1_residual")
    if x_max is None:
        x_max = _solve_x_max(tail_bound, float(target))
    residual = tail_bound(float(x_max))
    if target is not None and residual > float(target) * (1 + 1e-9):
        raise GraphonError(
            f"x_max={x_max} leaves residual {residual:.3g} > target {target:.3g}"
        )
    return Truncation(float(x_max), float(residual if target is None else target))


def _trapezoid_refine(values_on_grid, x_max: float, tol: float, n0: int = 64, n_max: int = 2048):
    """Refining trapezoid rule for a 2-d integral over ``[0, x_max]^2``.

    ``values_on_grid(xs)`` must return the kernel magnitude on the meshgrid of
    ``xs`` with itself.  Grid-doubled trapezoid values are Richardson
    extrapolated one level; the error estimate is the change of the
    extrapolated value under one refinement, and the rule stops once it
    drops below ``tol``.
    """
    n = n0
    prev_trap = None
    prev_extrap = None
    while True:
        xs = np.linspace(0.0, x_max, n + 1)
        vals = values_on_grid(xs)
        trap = float(np.trapezoid(np.trapezoid(vals, xs, axis=1), xs))
        if prev_trap is not None:
            extrap = trap + (trap - prev_trap) / 3.0
            if prev_extrap is not None:
                err = abs(extrap - prev_extrap)
                if err <= tol or 2 * n > n_max:
                    return QuadratureEstimate(extrap, err, err <= tol)
            prev_extrap = extrap
        prev_trap = trap
        n *= 2


@dataclass(frozen=True)
class QuadratureEstimate:
    value: float
    error_bound: float
    converged: bool


class CaronFoxGraphon(AnalyticGraphon):
    """Kernels ``W(x, y) = 1 - exp(-f(x) f(y))`` for a decreasing power-law f.

    ``f_kind`` is ``"shifted_power"`` (``f(x) = c (1+x)^-gamma``) or
    ``"capped_power"`` (``f(x) = c min(1, x^-gamma)``), with ``gamma > 1`` so
    that f is integrable and the kernel is in L1.
    """

    family = "caron_fox"

    def __init__(self, f_kind: str, c: float, gamma: float, x_max=None, target_l1_residual=None):
        if f_kind not in ("shifted_power", "capped_power"):
            raise GraphonError(f"unknown caron_fox f kind {f_kind!r}")
        if not (c > 0):
            raise GraphonError("caron_fox c must be positive")
        if not (gamma > 1):
            raise GraphonError("caron_fox gamma must exceed 1 (integrability of f)")
        self.f_kind = f_kind
        self.c = float(c)
        self.gamma = float(gamma)
        self._trunc = _resolve_truncation(self.tail_l1_bound, x_max, target_l1_residual)

    def f(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.f_kind == "shifted_power":
            return self.c * (1.0 + x) ** (-self.gamma)
        with np.errstate(divide="ignore"):
            return self.c * np.minimum(1.0, np.where(x > 0, x, np.inf) ** (-self.gamma))

    def f_integral(self, lo: float = 0.0) -> float:
        """Exact ``int_lo^inf f``."""
        g, c = self.gamma, self.c
        if self.f_kind == "shifted_power":
            return c * (1.0 + lo) ** (1.0 - g) / (g - 1.0)
        if lo >= 1.0:
            return c * lo ** (1.0 - g) / (g - 1.0)
        return c * (1.0 - lo) + c / (g - 1.0)

    def _kernel(self, x, y):
        return 1.0 - np.exp(-self.f(np.asarray(x, dtype=float)) * self.f(np.asarray(y, dtype=float)))

    def tail_l1_bound(self, m: float) -> float:
        # W <= f(x) f(y), so the mass of the L-shaped complement of [0,m]^2
        # is at most 2 * int_m^inf f * int_0^inf f.
        return 2.0 * self.f_integral(m) * self.f_integral(0.0)

    def l1_truncated(self, tol: float = QUAD_DEFAULT_TOL) -> QuadratureEstimate:
        def on_grid(xs):
            fx = self.f(xs)
            return 1.0 - np.exp(-np.outer(fx, fx))

        return _trapezoid_refine(on_grid, self._trunc.x_max, tol)

    def degree_function(self, xs):
        xs = np.asarray(xs, dtype=float)
        m = self._trunc.x_max
        grid = np.linspace(0.0, m, 1025)
        fy = self.f(grid)
        vals = 1.0 - np.exp(-np.outer(self.f(xs), fy))
        return np.trapezoid(vals, grid, axis=1)

    def star_tail_exponents(self):
        # D_W(x) ~ f(x) * int f  ~  x^-gamma at infinity; bounded near 0.
        return (0.0, self.gamma)


class RegionIndicatorGraphon(AnalyticGraphon):
    """Indicator of the region under an involutive power-law boundary.

    ``f(x) = x^-a`` on ``(0, 1]`` and ``x^-(1/a)`` on ``[1, inf)`` with
    ``a`` in ``(0, 1)``; f is its own inverse so ``{y <= f(x)}`` is a
    symmetric set.  ``a = 1/2`` gives a kernel whose degree function is
    integrable but lies in no ``L^k`` for ``k >= 2``.
    """

    family = "region_indicator"

    def __init__(self, a: float = 0.5, x_max=None, target_l1_residual=None):
        if not (0.0 < a < 1.0):
            raise GraphonError("region_indicator exponent a must lie in (0, 1)")
        self.a = float(a)
        self.b = 1.0 / float(a)
        self._trunc = _resolve_truncation(self.tail_l1_bound, x_max, target_l1_residual)

    def f(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            small = np.where(x > 0, x, np.inf) ** (-self.a)
            large = np.where(x > 1.0, x, 1.0) ** (-self.b)
        return np.where(x <= 1.0, small, large)

    def _kernel(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (y <= self.f(x)).astype(float)

    def _cell_averages(self, edges):
        return _region_cell_averages(self, edges)

    def tail_l1_bound(self, m: float) -> float:
        # For m >= 1 the region mass outside [0,m]^2 is exactly 2 int_m^inf f.
        if m < 1.0:
            return self.l1_full()
        return 2.0 * m ** (1.0 - self.b) / (self.b - 1.0)

    def l1_full(self) -> float:
        return (1.0 + self.a) / (1.0 - self.a)

    def l1_truncated(self, tol: float = QUAD_DEFAULT_TOL) -> QuadratureEstimate:
        # Exact piecewise-power integration of min(f(x), m) over [0, m].
        m = self._trunc.x_max
        if m < 1.0:
            raise GraphonError("region_indicator truncation must satisfy x_max >= 1")
        x0 = m ** (-1.0 / self.a)  # f(x) >= m iff x <= x0 (x0 <= 1)
        val = m * x0
        val += (1.0 ** (1 - self.a) - x0 ** (1 - self.a)) / (1 - self.a)
        val += (m ** (1 - self.b) - 1.0) / (1 - self.b)
        return QuadratureEstimate(float(val), 0.0, True)

    def degree_function(self, xs):
        return np.minimum(self.f(xs), self._trunc.x_max)

    def star_tail_exponents(self):
        return (self.a, self.b)


class InfiniteBlockGraphon(AnalyticGraphon):
    """Countable-block model, stored up to a finite truncation count.

    ``intervals`` are disjoint increasing intervals of the half line and
    ``probs[k1][k2]`` is the connection probability between them.  The
    truncation keeps the first ``truncation_count`` blocks.
    """

    family = "infinite_block"
    exact_step_form = True

    def __init__(self, intervals: Sequence[tuple[float, float]], probs, truncation_count: int | None = None):
        iv = [(lo, hi) for lo, hi in _real_array(intervals, "intervals").tolist()]
        if not iv:
            raise GraphonError("infinite_block needs at least one interval")
        for k, (lo, hi) in enumerate(iv):
            if not (0 <= lo < hi < math.inf):
                raise GraphonError(f"intervals[{k}] = {(lo, hi)} must satisfy 0 <= lo < hi < inf")
        for (a0, a1), (b0, b1) in zip(iv, iv[1:]):
            if b0 < a1:
                raise GraphonError("intervals must be disjoint and increasing")
        p = _real_array(probs, "probs")
        if p.shape != (len(iv), len(iv)):
            raise GraphonError("probs must be square with one row per interval")
        if not np.array_equal(p, p.T):
            i, j = np.argwhere(p != p.T)[0]
            raise GraphonError(f"probs[{i}][{j}] != probs[{j}][{i}]")
        if p.size and (p.min() < 0 or p.max() > 1):
            i, j = np.argwhere((p < 0) | (p > 1))[0]
            raise GraphonError(f"probs[{i}][{j}] = {p[i, j]} outside [0, 1]")
        import operator  # here, not at module level, so importing the module does no more work

        try:
            k = len(iv) if truncation_count is None else operator.index(truncation_count)
        except TypeError:
            raise GraphonError(f"truncation_count must be an integer, got {truncation_count!r}") from None
        if not (1 <= k <= len(iv)):
            raise GraphonError("truncation_count must be between 1 and the interval count")
        self.intervals = tuple(iv)
        self.probs = _as_readonly(p)
        self.truncation_count = k
        x_max = iv[k - 1][1]
        residual = self.tail_l1_bound(x_max)  # the intervals with hi <= x_max are the first k
        self._trunc = Truncation(x_max, residual if residual > 0 else 0.0)

    def _locate(self, x):
        """The kept block holding each point, or -1 (gaps, beyond the last block, NaN).

        ``x`` lies in ``[lo_k, hi_k)`` just when the right search of the ends
        ``lo_0, hi_0, lo_1, ...`` lands at the odd index ``2k + 1``; a point
        where two blocks touch belongs to the later one.
        """
        i = np.searchsorted(np.ravel(self.intervals[: self.truncation_count]), np.asarray(x, dtype=float), "right")
        return np.where(i % 2 == 1, i // 2, -1)

    def _kernel(self, x, y):
        i = self._locate(x)
        j = self._locate(y)
        return np.where((i >= 0) & (j >= 0), self.probs[np.maximum(i, 0), np.maximum(j, 0)], 0.0)

    def region_mass(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals[: self.truncation_count]))

    def tail_l1_bound(self, m: float) -> float:
        k = sum(1 for lo, hi in self.intervals if hi <= m)
        iv, p = self.intervals, self.probs
        return float(sum(p[i, j] * (iv[i][1] - iv[i][0]) * (iv[j][1] - iv[j][0])
                         for i in range(len(iv)) for j in range(len(iv)) if i >= k or j >= k))

    def step_form(self) -> tuple[StepGraphon, float]:
        """The kept intervals laid end to end; exact up to the dropped blocks."""
        k = self.truncation_count
        masses = [hi - lo for lo, hi in self.intervals[:k]]
        return StepGraphon(masses, self.probs[:k, :k], ambient_infinite=True), self._trunc.target_l1_residual

    def _flatten(self, weight_cells):
        return self.step_form()[0]

    def _cell_averages(self, edges):
        raise GraphonError(f"{self.family} flattens exactly; use flatten_to_line")

    def l1_truncated(self, tol: float = QUAD_DEFAULT_TOL) -> QuadratureEstimate:
        return QuadratureEstimate(l1_norm(self.step_form()[0]), 0.0, True)

    def degree_function(self, xs):
        # Degrees in the original interval layout (not the concatenated one).
        deg = self.step_form()[0].block_degrees()
        idx = self._locate(xs)
        return np.where(idx >= 0, deg[np.maximum(idx, 0)], 0.0)

    def sample_features(self, count, rng):
        lengths = np.array([hi - lo for lo, hi in self.intervals[: self.truncation_count]])
        choice = rng.choice(len(lengths), size=count, p=lengths / lengths.sum())
        los = np.array([lo for lo, _ in self.intervals[: self.truncation_count]])
        return los[choice] + rng.uniform(0.0, 1.0, size=count) * lengths[choice]


class MixedMembershipGraphon(AnalyticGraphon):
    """Mixed-membership model on ``simplex x R_+``.

    A feature is ``(w_1, ..., w_K, x)`` where ``w`` is a point of the
    ``K-1``-simplex (community weights, uniform a priori) and ``x`` a scalar
    role feature.  The kernel is the bilinear mixture
    ``sum_{k1,k2} w1_{k1} w2_{k2} W_{k1,k2}(x1, x2)`` of component kernels,
    each a StepGraphon or a CaronFoxGraphon.  The sampling region is the
    simplex, under its uniform probability, times ``[0, x_max]``.
    """

    family = "mixed_membership"

    def __init__(self, components, x_max=None, target_l1_residual=None):
        comps = [list(row) for row in components]
        k = len(comps)
        if k < 1 or any(len(row) != k for row in comps):
            raise GraphonError("components must form a K x K matrix")
        for i in range(k):
            for j in range(k):
                if comps[i][j] is not comps[j][i]:
                    raise GraphonError(f"components[{i}][{j}] must be the same object as components[{j}][{i}]")
                if not isinstance(comps[i][j], (StepGraphon, CaronFoxGraphon)):
                    raise GraphonError("components must be StepGraphon or CaronFoxGraphon instances")
                if isinstance(comps[i][j], StepGraphon) and not comps[i][j].is_probability_kernel():
                    raise GraphonError(f"components[{i}][{j}] must take values in [0, 1]")
        self.K = k
        self.components = tuple(tuple(row) for row in comps)
        self.feature_dim = k + 1
        self._trunc = _resolve_truncation(self.tail_l1_bound, x_max, target_l1_residual)

    def _kernel(self, u, v):
        """Kernel formula on packed features ``(..., K+1)``.

        Terms are accumulated diagonal-first with paired cross terms so that
        swapping the two arguments reproduces the exact same float ops
        (addition and multiplication commute bitwise in IEEE arithmetic).
        Components are not cut at their own truncations.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        w1, x1 = u[..., : self.K], u[..., self.K]
        w2, x2 = v[..., : self.K], v[..., self.K]
        out = np.zeros(np.broadcast(x1, x2).shape)
        for i in range(self.K):
            out = out + w1[..., i] * w2[..., i] * self.components[i][i]._kernel(x1, x2)
        for i in range(self.K):
            for j in range(i + 1, self.K):
                cross = w1[..., i] * w2[..., j] + w1[..., j] * w2[..., i]
                out = out + cross * self.components[i][j]._kernel(x1, x2)
        return out

    def tail_l1_bound(self, m: float) -> float:
        # E[w_{k1}] = 1/K per coordinate, and weights are independent of x.
        tails = [self.components[i][j].tail_l1_bound(m) for i in range(self.K) for j in range(self.K)]
        return float(sum(tails)) / (self.K * self.K)

    def l1_truncated(self, tol: float = QUAD_DEFAULT_TOL) -> QuadratureEstimate:
        total, err, ok = 0.0, 0.0, True
        for row in self.components:
            for comp in row:
                est = comp.l1_truncated(tol)
                total += est.value
                err += est.error_bound
                ok = ok and est.converged
        return QuadratureEstimate(total / (self.K * self.K), err / (self.K * self.K), ok)

    def degree_function(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        for row in self.components:
            for comp in row:
                out = out + comp.degree_function(xs)
        return out / (self.K * self.K)

    def simplex_cells(self, n_cells: int):
        """Equal-probability cells of the simplex cut along the first weight.

        Under the uniform (Dirichlet(1,...,1)) law the first coordinate is
        Beta(1, K-1); cells are its quantile bins and the returned weight
        vectors are exact conditional means, symmetric in the remaining
        coordinates.  For K = 2 this is the full interval discretization of
        the simplex.
        """
        k = self.K
        qs = np.linspace(0.0, 1.0, n_cells + 1)
        if k == 1:
            return [(1.0, np.array([1.0]))]
        # Quantiles of Beta(1, K-1): F(u) = 1 - (1-u)^(K-1).
        edges = 1.0 - (1.0 - qs) ** (1.0 / (k - 1))
        cells = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            # E[u | lo <= u < hi] for density (K-1)(1-u)^(K-2).
            if k == 2:
                mean_u = 0.5 * (lo + hi)
            else:
                def g(u):  # antiderivative of u * (K-1)(1-u)^(K-2)
                    return -(u * (1 - u) ** (k - 1)) - ((1 - u) ** k) / k

                prob = (1 - lo) ** (k - 1) - (1 - hi) ** (k - 1)
                mean_u = (g(hi) - g(lo)) / prob
            w = np.full(k, (1.0 - mean_u) / (k - 1))
            w[0] = mean_u
            cells.append((1.0 / n_cells, w))
        return cells

    def sample_features(self, count, rng):
        w = rng.dirichlet(np.ones(self.K), size=count)
        x = rng.uniform(0.0, self._trunc.x_max, size=(count, 1))
        return np.concatenate([w, x], axis=1)

    def step_form(self) -> tuple[StepGraphon, float]:
        return self._flatten(3), self._trunc.target_l1_residual

    def _cell_averages(self, edges):
        self._require_step_components()
        return InfiniteBlockGraphon._cell_averages(self, edges)

    def _require_step_components(self):
        if not all(isinstance(c, StepGraphon) for row in self.components for c in row):
            raise GraphonError("a mixed_membership graphon has a step form only when every component is a StepGraphon")

    def _flatten(self, weight_cells):
        """Product cells (simplex weight cell) x (common refinement of the
        component blocks within ``[0, x_max]``), laid out weight-cell major."""
        self._require_step_components()
        m = self._trunc.x_max
        lows, widths = _overlay(*(np.minimum(c.boundaries, m) for row in self.components for c in row))
        mids = lows + widths / 2
        comp_vals = np.array([[c.kernel(mids[:, None], mids[None, :]) for c in row] for row in self.components])
        cells = self.simplex_cells(weight_cells)
        vals = np.block([[np.einsum("i,j,ijxy->xy", wa, wb, comp_vals) for _, wb in cells] for _, wa in cells])
        vals = 0.5 * (vals + vals.T)
        return StepGraphon(np.concatenate([prob * widths for prob, _ in cells]), vals, ambient_infinite=True)


# ---------------------------------------------------------------------------
# Partitions and degree profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Finitely many disjoint cells, each a union of step-graphon blocks."""

    cells: tuple[tuple[int, ...], ...]
    masses: tuple[float, ...]

    @staticmethod
    def from_cells(w: StepGraphon, cells: Iterable[Iterable[int]]) -> "Partition":
        cells = tuple(tuple(int(i) for i in cell) for cell in cells)
        seen: list[int] = []
        for cell in cells:
            if not cell:
                raise GraphonError("partition cells must be nonempty")
            seen.extend(cell)
        if sorted(seen) != list(range(w.n_blocks)):
            raise GraphonError("cells must cover every block exactly once")
        masses = tuple(float(w.masses[list(cell)].sum()) for cell in cells)
        if any(m <= 0 for m in masses):
            raise GraphonError("every cell must have positive mass")
        return Partition(cells, masses)

    @staticmethod
    def from_assignment(w: StepGraphon, assignment: Sequence[int]) -> "Partition":
        assignment = list(assignment)
        if len(assignment) != w.n_blocks:
            raise GraphonError("assignment must label every block")
        labels = sorted(set(assignment))
        return Partition.from_cells(w, [[i for i, a in enumerate(assignment) if a == lab] for lab in labels])

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def _overlay(*boundary_arrays) -> tuple[np.ndarray, np.ndarray]:
    """Left ends and widths of the pieces between the distinct points of all
    ``boundary_arrays``, without float-dust pieces of width 1e-15 or less."""
    edges = np.unique(np.concatenate(boundary_arrays))
    widths = np.diff(edges)
    keep = widths > 1e-15
    return edges[:-1][keep], widths[keep]


def partition_from_boundaries(w: StepGraphon, boundaries: Sequence[float]) -> tuple[StepGraphon, Partition]:
    """Split ``w`` at the given points of the half line and group the pieces.

    Returns the refined graphon together with the partition of its blocks
    whose cells are the intervals between consecutive boundaries (boundaries
    are clipped to the block support; 0 and the total mass are implicit).
    """
    cuts = sorted({float(b) for b in boundaries if 0.0 < float(b) < w.total_mass})
    lows, widths = _overlay(w.boundaries, np.asarray(cuts, dtype=float))
    owner = w.block_of(lows + widths / 2)
    refined = StepGraphon(widths, w.values[np.ix_(owner, owner)], w.ambient_infinite)
    cell_edges = np.concatenate([[0.0], np.asarray(cuts), [w.total_mass]])
    assignment = np.searchsorted(cell_edges, lows + widths / 2, side="right") - 1
    return refined, Partition.from_assignment(refined, assignment.tolist())


@dataclass(frozen=True)
class DegreeProfile:
    """The map ``lambda -> mu({D_W > lambda})`` as a right-continuous step function.

    For step graphons the representation is exact (one step per distinct
    block degree); for analytic families it is tabulated on a feature grid.
    """

    degrees: np.ndarray
    weights: np.ndarray
    exact: bool

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        if lam.ndim == 0:
            return float(self.weights[self.degrees > lam].sum())
        mask = self.degrees[None, :] > lam[:, None]
        return (mask * self.weights[None, :]).sum(axis=1)

    @property
    def mass_positive(self) -> float:
        """Mass of ``{D_W > 0}``."""
        return float(self.weights[self.degrees > 0].sum())

    def layer_cake_integral(self) -> float:
        """``int_0^inf mu({D_W > lam}) d lam``, exact for the stored steps."""
        return float((self.degrees * self.weights).sum())


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _graphon(w) -> Graphon:
    if not isinstance(w, Graphon):
        raise GraphonError(f"not a graphon: {type(w).__name__}")
    return w


def evaluate(w, x, y):
    """Pointwise kernel value; a total, symmetric function on the feature space.

    Scalar features for step and scalar-feature analytic families; packed
    ``(..., K+1)`` arrays for mixed-membership graphons.  Points beyond the
    block support or the truncation cutoff evaluate to 0.
    """
    vals = _graphon(w).kernel(x, y)
    return vals if np.ndim(vals) else float(vals)


def l1_norm(w) -> float:
    """L1 norm; exact block arithmetic for step graphons, quadrature otherwise."""
    return l1_norm_report(w).value


def l1_norm_report(w, tol: float = QUAD_DEFAULT_TOL) -> QuadratureEstimate:
    """L1 norm with its error bound (exact, hence 0, for step graphons)."""
    return _graphon(w).l1_truncated(tol)


def degree_profile(w, grid_points: int = 1024) -> DegreeProfile:
    """Distribution function of the degree map ``D_W(x) = int W(x, y) dmu(y)``:
    block arithmetic on an exact step form, else tabulated at the midpoints
    of ``grid_points`` cells of the sampling region."""
    if _graphon(w).exact_step_form:
        step, _ = w.step_form()
        return DegreeProfile(_as_readonly(step.block_degrees()), _as_readonly(step.masses), True)
    m = w.region_mass()
    xs = np.linspace(0.0, m, grid_points, endpoint=False) + m / (2 * grid_points)
    deg = w.degree_function(xs)
    return DegreeProfile(_as_readonly(deg), _as_readonly(np.full(xs.size, m / grid_points)), False)


@dataclass(frozen=True)
class TailTruncation:
    mass_bound: float
    graphon: StepGraphon
    residual: float


def truncate_tail(w, eps: float) -> TailTruncation:
    """Smallest prefix support ``U = [0, M]`` with ``||W - W 1_{UxU}||_1 < eps``.

    The step form is scanned block by block (exact residuals), and the
    reported residual adds the L1 mass the step form leaves out.
    """
    if eps <= 0:
        raise GraphonError("eps must be positive")
    step, left_out = _graphon(w).step_form()
    eps = max(eps - left_out, 1e-15) if left_out else eps
    total = l1_norm(step)
    ab = np.abs(step.values)
    for k in range(step.n_blocks + 1):
        kept = float(step.masses[:k] @ ab[:k, :k] @ step.masses[:k]) if k else 0.0
        residual = total - kept
        if residual < eps:
            return TailTruncation(float(step.boundaries[k]), step.restrict_blocks(range(k)), residual + left_out)
    raise AssertionError("unreachable: residual at full support is 0")


def _cell_average(w: StepGraphon, assignment: np.ndarray, k: int) -> np.ndarray:
    """``(k, k)`` averages of ``w`` over nonempty cells, block ``i`` in cell
    ``assignment[i]``: one product ``M^T A M`` with ``M[i, assignment[i]] = m_i``."""
    onehot = np.zeros((w.n_blocks, k))
    onehot[np.arange(w.n_blocks), assignment] = w.masses
    cell_masses = onehot.sum(axis=0)
    vals = (onehot.T @ w.values @ onehot) / np.outer(cell_masses, cell_masses)
    return 0.5 * (vals + vals.T)  # kill last-bit asymmetry from float reduction order


def average_over_partition(w: StepGraphon, p: Partition) -> StepGraphon:
    """Average the kernel over the cells of ``p`` (an L1 and cut-norm contraction)."""
    if not isinstance(w, StepGraphon):
        raise GraphonError("average_over_partition operates on step graphons")
    if sorted(i for cell in p.cells for i in cell) != list(range(w.n_blocks)):
        raise GraphonError("partition does not match the graphon's blocks; refine first")
    assignment = np.empty(w.n_blocks, dtype=np.intp)
    for a, cell in enumerate(p.cells):
        assignment[list(cell)] = a
    return StepGraphon(np.asarray(p.masses), _cell_average(w, assignment, p.n_cells), w.ambient_infinite)


def stretch(w: StepGraphon) -> StepGraphon:
    """Rescale the measure by ``||W||_1^(-1/2)`` so the result has unit L1 norm.

    The zero graphon is returned unchanged (its stretched form is defined to
    be the zero graphon).
    """
    if not isinstance(w, StepGraphon):
        raise GraphonError("stretch operates on step graphons; discretize analytic families first")
    norm = l1_norm(w)
    if norm == 0.0:
        return StepGraphon(w.masses, np.zeros_like(w.values), w.ambient_infinite) if w.n_blocks else w
    return StepGraphon(w.masses / math.sqrt(norm), w.values, w.ambient_infinite)


def flatten_to_line(w, weight_cells: int = 3) -> StepGraphon:
    """Re-express a product/block analytic family as a step graphon on the line.

    * ``infinite_block``: concatenates the truncated intervals into
      consecutive blocks; exact (cut distance 0 to the truncated input).
    * ``mixed_membership`` with step components: forms the product cells
      (simplex weight cell) x (common refinement of component blocks within
      ``[0, x_max]``) and lays them out weight-cell major.  Cell values are
      exact cell averages because the kernel is bilinear in the weights.

    Other families have no block structure; use :func:`discretize`.
    """
    if not isinstance(w, Graphon):
        raise GraphonError(f"flatten_to_line does not support {type(w).__name__}")
    return w._flatten(weight_cells)


def discretize(w: AnalyticGraphon, grid_step: float) -> tuple[StepGraphon, float]:
    """Step approximation on a uniform grid over the truncated support.

    Cell values are cell averages (tensor Simpson for smooth kernels, exact
    boundary integration for the region indicator).  The returned error
    estimate is the exact L1 distance to the approximation built on a
    twice-finer grid.
    """
    if not isinstance(w, Graphon):
        raise GraphonError("discretize operates on analytic graphons")
    if grid_step <= 0:
        raise GraphonError("grid_step must be positive")
    n = int(math.ceil(w.region_mass() / grid_step - 1e-12))
    if n > MAX_DISCRETIZE_BLOCKS:
        raise CostLimitError(f"grid too fine: {n} cells exceed the {MAX_DISCRETIZE_BLOCKS} cell limit", float(n) ** 2)

    coarse = _grid_graphon(w, n)
    if 2 * n <= MAX_DISCRETIZE_BLOCKS:
        fine = _grid_graphon(w, 2 * n)
        half = np.repeat(np.repeat(coarse.values, 2, axis=0), 2, axis=1)
        diff = np.abs(half - fine.values)
        err = float(fine.masses @ diff @ fine.masses)
    else:
        err = math.nan
    return coarse, err


def _grid_graphon(w: Graphon, cells: int) -> StepGraphon:
    """Cell-average step graphon of ``w`` on ``cells`` equal cells of its sampling region."""
    edges = np.linspace(0.0, w.region_mass(), cells + 1)
    vals = w._cell_averages(edges)
    vals = 0.5 * (vals + vals.T)
    return StepGraphon(np.diff(edges), vals)


def _simpson_cell_averages(w: AnalyticGraphon, edges: np.ndarray) -> np.ndarray:
    """Per-cell tensor-product Simpson averages of a smooth kernel.

    The kernel is evaluated on one (left, mid, right) node-set pair at a
    time, so memory stays at a few n x n arrays.  The nodes lie in the
    sampling region, so the formula ``_kernel`` needs no cut there.
    """
    nodes = (edges[:-1], (edges[:-1] + edges[1:]) / 2, edges[1:])
    weights = np.array([1.0, 4.0, 1.0]) / 6.0
    out = np.zeros((edges.size - 1, edges.size - 1))
    for xa, wa in zip(nodes, weights):
        for xb, wb in zip(nodes, weights):
            out += wa * wb * w._kernel(xa[:, None], xb[None, :])
    return out


def _region_cell_averages(w: RegionIndicatorGraphon, edges: np.ndarray) -> np.ndarray:
    """Exact area fractions of the region ``{y <= f(x)}`` in each grid cell.

    ``F_c(x) = int_0^x min(f, c) = c min(x, t_c) + max(G(x) - G(t_c), 0)``
    with ``G = int_0^x f`` (piecewise power) and ``f(t_c) = c``, so
    ``t_c = f(c)`` because f is its own inverse.  The area of cell
    ``[x0, x1] x [y0, y1]`` is ``F_y1(x1) - F_y1(x0) - F_y0(x1) + F_y0(x0)``,
    evaluated once on the grid corners.
    """
    a, b = w.a, w.b

    def big_g(x):
        return np.minimum(x, 1.0) ** (1.0 - a) / (1.0 - a) + (np.maximum(x, 1.0) ** (1.0 - b) - 1.0) / (1.0 - b)

    x = edges[:, None]
    c = edges[None, :]
    t = np.where(c > 0, w.f(c), np.inf)  # F_0 vanishes: t_0 is infinite
    corner = c * np.minimum(x, t) + np.maximum(big_g(x) - big_g(t), 0.0)
    area = corner[1:, 1:] - corner[:-1, 1:] - corner[1:, :-1] + corner[:-1, :-1]
    widths = np.diff(edges)
    return np.clip(area / np.outer(widths, widths), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
# A family is a class with a ``family`` name plus one entry in _SPEC_TABLE:
# a reader from the spec object and a writer of every key but ``"type"``, in
# the order the files have always had (traces dump the spec unsorted).


def _read_truncation(spec) -> dict:
    trunc = spec.get("truncation", {})
    return {key: None if trunc.get(key) is None else json_field(trunc[key], key, "number")
            for key in ("x_max", "target_l1_residual")}


def _write_truncation(w: AnalyticGraphon) -> dict:
    return {"x_max": w.truncation.x_max, "target_l1_residual": w.truncation.target_l1_residual}


def _read_step(spec) -> StepGraphon:
    return StepGraphon(json_field(spec["masses"], "mass", "number", 1),
                       json_field(spec["values"], "value", "number", 2),
                       json_field(spec.get("ambient_infinite", False), "ambient_infinite", "boolean"))


def _read_caron_fox(spec) -> CaronFoxGraphon:
    f = spec.get("f", {})
    return CaronFoxGraphon(json_field(f.get("kind", "shifted_power"), "kind", "string"),
                           float(json_field(f["c"], "c", "number")), float(json_field(f["gamma"], "gamma", "number")),
                           **_read_truncation(spec))


def _read_region_indicator(spec) -> RegionIndicatorGraphon:
    return RegionIndicatorGraphon(float(json_field(spec.get("f", {}).get("a", 0.5), "a", "number")),
                                  **_read_truncation(spec))


def _read_infinite_block(spec) -> InfiniteBlockGraphon:
    count = spec.get("truncation_count")
    return InfiniteBlockGraphon(json_field(spec["intervals"], "interval end", "number", 2),
                                json_field(spec["probs"], "prob", "number", 2),
                                None if count is None else json_field(count, "truncation_count", "integer"))


def _read_mixed_membership(spec) -> MixedMembershipGraphon:
    rows = [[load_graphon_spec(sub) for sub in row] for row in spec["components"]]
    if any(len(row) != len(rows) for row in rows):
        raise SpecError("components must form a K x K matrix")
    for i in range(len(rows)):
        for j in range(i):
            if graphon_to_spec(rows[i][j]) != graphon_to_spec(rows[j][i]):
                raise SpecError(f"components[{i}][{j}] must equal components[{j}][{i}]")
            rows[i][j] = rows[j][i]
    return MixedMembershipGraphon(rows, **_read_truncation(spec))


_SPEC_TABLE = {cls.family: (read, write) for cls, read, write in [
    (StepGraphon, _read_step,
     lambda w: {"masses": w.masses.tolist(), "values": w.values.tolist(), "ambient_infinite": w.ambient_infinite}),
    (CaronFoxGraphon, _read_caron_fox,
     lambda w: {"f": {"kind": w.f_kind, "c": w.c, "gamma": w.gamma}, "truncation": _write_truncation(w)}),
    (RegionIndicatorGraphon, _read_region_indicator,
     lambda w: {"f": {"kind": "power_involution", "a": w.a}, "truncation": _write_truncation(w)}),
    (InfiniteBlockGraphon, _read_infinite_block,
     lambda w: {"intervals": [list(iv) for iv in w.intervals], "probs": w.probs.tolist(),
                "truncation_count": w.truncation_count}),
    (MixedMembershipGraphon, _read_mixed_membership,
     lambda w: {"components": [[graphon_to_spec(c) for c in row] for row in w.components],
                "truncation": _write_truncation(w)}),
]}


def load_graphon_spec(spec: dict):
    """Build a graphon from its JSON object form; every malformed spec raises
    :class:`SpecError`, whose message names the offending field or index."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _SPEC_TABLE:
        raise SpecError(f"unknown graphon type {kind!r}; a spec is an object with 'type' in {list(_SPEC_TABLE)}")
    try:
        return _SPEC_TABLE[kind][0](spec)
    except SpecError:
        raise  # a nested spec's own message
    # GraphonError is a ValueError, so the constructors' own checks land here too
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"malformed {kind} spec: {exc}") from exc


def graphon_to_spec(w) -> dict:
    """JSON object form of ``w``, ``"type"`` first; :func:`load_graphon_spec` reads it back."""
    entry = _SPEC_TABLE.get(getattr(w, "family", None)) if isinstance(w, Graphon) else None
    if entry is None:
        raise GraphonError(f"no spec form for {type(w).__name__}")
    return {"type": w.family, **entry[1](w)}


def read_json_file(path, error=GraphonError):
    """The JSON value in the file at ``path``; a file that is not JSON raises ``error``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise error(f"{path} is not a JSON file: {exc}") from exc


# The JSON kinds a reader may require, and how its messages name them.
_JSON_KINDS = {"integer": (int, "an integer"), "number": ((int, float), "a number"),
               "boolean": (bool, "true or false"), "string": (str, "a string"), "object": (dict, "an object")}


def _is_kind(t: type, types) -> bool:
    return issubclass(t, types) and issubclass(t, bool) == (types is bool)


def json_field(value, name: str, kind: str, depth: int = 0, what: str | None = None):
    """``value``, if it is a JSON ``kind`` ("integer", "number", "boolean",
    "string" or "object"), or for ``depth > 0`` arrays of them nested
    ``depth`` deep; every file reader checks its fields with it.

    Nothing is cast: an integer is a JSON integer, a number an integer or a
    float, and true and false are only booleans.  Arrays are checked in one
    pass over their entries' types.  Any other entry raises
    :class:`GraphonError`, ``"<name> must be <what>, got <entry>"``; a
    number where an array belongs raises ``TypeError``.
    """
    types, kind_what = _JSON_KINDS[kind]
    entries = [value]
    for _ in range(depth):
        entries = list(itertools.chain.from_iterable(entries))
    if not all(_is_kind(t, types) for t in set(map(type, entries))):
        bad = next(v for v in entries if not _is_kind(type(v), types))
        raise GraphonError(f"{name} must be {what or kind_what}, got {bad!r}")
    return value


def load_graphon_file(path):
    return load_graphon_spec(read_json_file(path, SpecError))


def save_graphon_file(w, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graphon_to_spec(w), fh, indent=2, sort_keys=True)
        fh.write("\n")
