"""Graphon representations over sigma-finite measure spaces.

Two families of kernels are supported:

* :class:`StepGraphon` -- a finite symmetric step kernel over ordered,
  mass-weighted blocks of the half line, with an implicit zero-valued
  tail of infinite mass when ``ambient_infinite`` is set.  This is the
  computational workhorse: every metric computation reduces to it.
* :class:`AnalyticGraphon` -- a closed enumeration of closed-form kernel
  families (Caron-Fox style ``1 - exp(-f(x) f(y))`` kernels, a region
  indicator under a power-law boundary curve, infinite block models and
  mixed-membership models), each carrying truncation metadata so that
  sampling and quadrature operate on a region of finite mass.

All objects are immutable values and all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GraphonError",
    "SpecError",
    "CostLimitError",
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


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Step graphons
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepGraphon:
    """Symmetric step kernel on consecutive blocks of the half line.

    Block ``i`` occupies the interval ``[b[i], b[i+1])`` where ``b`` is the
    cumulative mass vector.  Beyond the last block the kernel is zero; with
    ``ambient_infinite`` the zero tail is regarded as carrying infinite
    measure (the trivial extension to an infinite-mass space).
    """

    masses: np.ndarray
    values: np.ndarray
    ambient_infinite: bool = False

    def __init__(self, masses, values, ambient_infinite: bool = False):
        masses = _as_readonly(np.atleast_1d(np.asarray(masses, dtype=float)))
        values = np.asarray(values, dtype=float)
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

    @property
    def n_blocks(self) -> int:
        return self.masses.size

    @property
    def boundaries(self) -> np.ndarray:
        """Cumulative block boundaries ``[0, m1, m1+m2, ...]``."""
        return np.concatenate([[0.0], np.cumsum(self.masses)])

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


class AnalyticGraphon:
    """Base class for the closed enumeration of closed-form families."""

    family: str = "abstract"
    feature_dim: int = 1

    # -- kernel ------------------------------------------------------------
    def kernel(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def truncation(self) -> Truncation:
        raise NotImplementedError

    # -- measure bookkeeping ------------------------------------------------
    def region_mass(self) -> float:
        """Mass of the truncated sampling region."""
        raise NotImplementedError

    def tail_l1_bound(self, m: float) -> float:
        """Certified bound on the L1 mass outside ``[0, m]^2`` in the scalar feature."""
        raise NotImplementedError

    def l1_truncated(self, tol: float = QUAD_DEFAULT_TOL) -> "QuadratureEstimate":
        """L1 norm over the truncated region, by refinement-based quadrature."""
        raise NotImplementedError

    def degree_function(self, xs: np.ndarray) -> np.ndarray:
        """``D_W`` on the truncated region, tabulated at scalar features ``xs``."""
        raise NotImplementedError

    def star_tail_exponents(self) -> tuple[float, float] | None:
        """Exponents ``(p0, p_inf)`` with ``D_W(x) ~ x^-p0`` near ``0`` and
        ``~ x^-p_inf`` near infinity, or None when unknown."""
        return None

    def sample_features(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` features uniformly from the truncated region."""
        raise NotImplementedError


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

    @property
    def truncation(self) -> Truncation:
        return self._trunc

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

    def kernel(self, x, y):
        return 1.0 - np.exp(-self.f(np.asarray(x, dtype=float)) * self.f(np.asarray(y, dtype=float)))

    def region_mass(self) -> float:
        return self._trunc.x_max

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

    def sample_features(self, count, rng):
        return rng.uniform(0.0, self._trunc.x_max, size=count)


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

    @property
    def truncation(self) -> Truncation:
        return self._trunc

    def f(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            small = np.where(x > 0, x, np.inf) ** (-self.a)
            large = np.where(x > 1.0, x, 1.0) ** (-self.b)
        return np.where(x <= 1.0, small, large)

    def kernel(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (y <= self.f(x)).astype(float)

    def region_mass(self) -> float:
        return self._trunc.x_max

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

    def sample_features(self, count, rng):
        return rng.uniform(0.0, self._trunc.x_max, size=count)


class InfiniteBlockGraphon(AnalyticGraphon):
    """Countable-block model, stored up to a finite truncation count.

    ``intervals`` are disjoint increasing intervals of the half line and
    ``probs[k1][k2]`` is the connection probability between them.  The
    truncation keeps the first ``truncation_count`` blocks.
    """

    family = "infinite_block"

    def __init__(self, intervals: Sequence[tuple[float, float]], probs, truncation_count: int | None = None):
        iv = [(float(lo), float(hi)) for lo, hi in intervals]
        if not iv:
            raise GraphonError("infinite_block needs at least one interval")
        for k, (lo, hi) in enumerate(iv):
            if not (0 <= lo < hi < math.inf):
                raise GraphonError(f"intervals[{k}] = {(lo, hi)} must satisfy 0 <= lo < hi < inf")
        for (a0, a1), (b0, b1) in zip(iv, iv[1:]):
            if b0 < a1:
                raise GraphonError("intervals must be disjoint and increasing")
        p = np.asarray(probs, dtype=float)
        if p.shape != (len(iv), len(iv)):
            raise GraphonError("probs must be square with one row per interval")
        if not np.array_equal(p, p.T):
            i, j = np.argwhere(p != p.T)[0]
            raise GraphonError(f"probs[{i}][{j}] != probs[{j}][{i}]")
        if p.size and (p.min() < 0 or p.max() > 1):
            i, j = np.argwhere((p < 0) | (p > 1))[0]
            raise GraphonError(f"probs[{i}][{j}] = {p[i, j]} outside [0, 1]")
        k = len(iv) if truncation_count is None else int(truncation_count)
        if not (1 <= k <= len(iv)):
            raise GraphonError("truncation_count must be between 1 and the interval count")
        self.intervals = tuple(iv)
        self.probs = _as_readonly(p)
        self.truncation_count = k
        x_max = iv[k - 1][1]
        residual = float(sum(p[i, j] * (iv[i][1] - iv[i][0]) * (iv[j][1] - iv[j][0])
                             for i in range(len(iv)) for j in range(len(iv))
                             if i >= k or j >= k))
        self._trunc = Truncation(x_max, residual if residual > 0 else 0.0)

    @property
    def truncation(self) -> Truncation:
        return self._trunc

    def _locate(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -1, dtype=int)
        for k, (lo, hi) in enumerate(self.intervals[: self.truncation_count]):
            out = np.where((x >= lo) & (x < hi), k, out)
        return out

    def kernel(self, x, y):
        i = self._locate(x)
        j = self._locate(y)
        vals = np.where((i >= 0) & (j >= 0), self.probs[np.maximum(i, 0), np.maximum(j, 0)], 0.0)
        return vals

    def region_mass(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals[: self.truncation_count]))

    def tail_l1_bound(self, m: float) -> float:
        k = sum(1 for lo, hi in self.intervals if hi <= m)
        iv, p = self.intervals, self.probs
        return float(sum(p[i, j] * (iv[i][1] - iv[i][0]) * (iv[j][1] - iv[j][0])
                         for i in range(len(iv)) for j in range(len(iv)) if i >= k or j >= k))

    def l1_truncated(self, tol: float = QUAD_DEFAULT_TOL) -> QuadratureEstimate:
        return QuadratureEstimate(l1_norm(flatten_to_line(self)), 0.0, True)

    def degree_function(self, xs):
        step = flatten_to_line(self)
        # Degrees in the original interval layout (not the concatenated one).
        deg = step.block_degrees()
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
    each a StepGraphon or a CaronFoxGraphon.
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

    @property
    def truncation(self) -> Truncation:
        return self._trunc

    def _component_value(self, i, j, x, y):
        comp = self.components[i][j]
        if isinstance(comp, StepGraphon):
            return evaluate(comp, x, y)
        return comp.kernel(x, y)

    def kernel(self, u, v):
        """Kernel on packed features of shape ``(..., K+1)``.

        Terms are accumulated diagonal-first with paired cross terms so that
        swapping the two arguments reproduces the exact same float ops
        (addition and multiplication commute bitwise in IEEE arithmetic).
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        w1, x1 = u[..., : self.K], u[..., self.K]
        w2, x2 = v[..., : self.K], v[..., self.K]
        out = np.zeros(np.broadcast(x1, x2).shape)
        for i in range(self.K):
            out = out + w1[..., i] * w2[..., i] * self._component_value(i, i, x1, x2)
        for i in range(self.K):
            for j in range(i + 1, self.K):
                cross = w1[..., i] * w2[..., j] + w1[..., j] * w2[..., i]
                out = out + cross * self._component_value(i, j, x1, x2)
        return out

    def region_mass(self) -> float:
        # Probability measure on the simplex times Lebesgue on [0, x_max].
        return self._trunc.x_max

    def _component_tail(self, comp, m: float) -> float:
        if isinstance(comp, StepGraphon):
            b = comp.boundaries
            inside = b[1:] <= m
            masses = np.where(inside, comp.masses, np.maximum(0.0, m - b[:-1]))
            masses = np.minimum(masses, comp.masses)
            outside = comp.masses - masses
            ab = np.abs(comp.values)
            total = float(masses @ ab @ masses)
            full = float(comp.masses @ ab @ comp.masses)
            return full - total
        return comp.tail_l1_bound(m)

    def tail_l1_bound(self, m: float) -> float:
        # E[w_{k1}] = 1/K per coordinate, and weights are independent of x.
        tails = [self._component_tail(self.components[i][j], m)
                 for i in range(self.K) for j in range(self.K)]
        return float(sum(tails)) / (self.K * self.K)

    def l1_truncated(self, tol: float = QUAD_DEFAULT_TOL) -> QuadratureEstimate:
        total, err, ok = 0.0, 0.0, True
        for i in range(self.K):
            for j in range(self.K):
                comp = self.components[i][j]
                if isinstance(comp, StepGraphon):
                    total += l1_norm(comp)
                else:
                    est = comp.l1_truncated(tol)
                    total += est.value
                    err += est.error_bound
                    ok = ok and est.converged
        return QuadratureEstimate(total / (self.K * self.K), err / (self.K * self.K), ok)

    def degree_function(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        for i in range(self.K):
            for j in range(self.K):
                comp = self.components[i][j]
                if isinstance(comp, StepGraphon):
                    d = comp.block_degrees()
                    idx = comp.block_of(xs)
                    out = out + np.where(idx >= 0, d[np.maximum(idx, 0)], 0.0)
                else:
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


def partition_from_boundaries(w: StepGraphon, boundaries: Sequence[float]) -> tuple[StepGraphon, Partition]:
    """Split ``w`` at the given points of the half line and group the pieces.

    Returns the refined graphon together with the partition of its blocks
    whose cells are the intervals between consecutive boundaries (boundaries
    are clipped to the block support; 0 and the total mass are implicit).
    """
    cuts = sorted({float(b) for b in boundaries if 0.0 < float(b) < w.total_mass})
    edges = np.unique(np.concatenate([w.boundaries, np.asarray(cuts, dtype=float)]))
    widths = np.diff(edges)
    keep = widths > 1e-15
    lows = edges[:-1][keep]
    widths = widths[keep]
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


def evaluate(w, x, y):
    """Pointwise kernel value; a total, symmetric function on the feature space.

    Scalar features for step and scalar-feature analytic families; packed
    ``(..., K+1)`` arrays for mixed-membership graphons.  Points beyond the
    block support or the truncation cutoff evaluate to 0.
    """
    if isinstance(w, StepGraphon):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        i = w.block_of(x)
        j = w.block_of(y)
        if w.n_blocks == 0:
            return np.zeros(np.broadcast(i, j).shape) if i.ndim or j.ndim else 0.0
        vals = np.where((i >= 0) & (j >= 0), w.values[np.maximum(i, 0), np.maximum(j, 0)], 0.0)
        return vals if vals.ndim else float(vals)
    if isinstance(w, MixedMembershipGraphon):
        vals = w.kernel(x, y)
        return vals if np.ndim(vals) else float(vals)
    if isinstance(w, AnalyticGraphon):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        m = w.truncation.x_max
        inside = (x >= 0) & (x <= m) & (y >= 0) & (y <= m)
        vals = np.where(inside, w.kernel(x, y), 0.0)
        return vals if vals.ndim else float(vals)
    raise GraphonError(f"not a graphon: {type(w).__name__}")


def l1_norm(w) -> float:
    """L1 norm; exact block arithmetic for step graphons, quadrature otherwise."""
    if isinstance(w, StepGraphon):
        if w.n_blocks == 0:
            return 0.0
        return float(w.masses @ np.abs(w.values) @ w.masses)
    if isinstance(w, AnalyticGraphon):
        return w.l1_truncated().value
    raise GraphonError(f"not a graphon: {type(w).__name__}")


def l1_norm_report(w, tol: float = QUAD_DEFAULT_TOL) -> QuadratureEstimate:
    """L1 norm with its error bound (exact, hence 0, for step graphons)."""
    if isinstance(w, StepGraphon):
        return QuadratureEstimate(l1_norm(w), 0.0, True)
    if isinstance(w, AnalyticGraphon):
        return w.l1_truncated(tol)
    raise GraphonError(f"not a graphon: {type(w).__name__}")


def degree_profile(w, grid_points: int = 1024) -> DegreeProfile:
    """Distribution function of the degree map ``D_W(x) = int W(x, y) dmu(y)``."""
    if isinstance(w, StepGraphon):
        return DegreeProfile(_as_readonly(w.block_degrees()), _as_readonly(w.masses), True)
    if isinstance(w, InfiniteBlockGraphon):
        return degree_profile(flatten_to_line(w))
    if isinstance(w, AnalyticGraphon):
        m = w.truncation.x_max
        xs = np.linspace(0.0, m, grid_points, endpoint=False) + m / (2 * grid_points)
        deg = w.degree_function(xs)
        return DegreeProfile(_as_readonly(deg), _as_readonly(np.full(xs.size, m / grid_points)), False)
    raise GraphonError(f"not a graphon: {type(w).__name__}")


@dataclass(frozen=True)
class TailTruncation:
    mass_bound: float
    graphon: StepGraphon
    residual: float


def truncate_tail(w, eps: float) -> TailTruncation:
    """Smallest prefix support ``U = [0, M]`` with ``||W - W 1_{UxU}||_1 < eps``.

    Step graphons are scanned block by block (exact residuals); analytic
    families are discretized at their truncation cutoff first, so the
    reported residual adds the stored truncation residual.
    """
    if eps <= 0:
        raise GraphonError("eps must be positive")
    if isinstance(w, (InfiniteBlockGraphon, MixedMembershipGraphon)):
        return truncate_tail(flatten_to_line(w), eps)
    if isinstance(w, AnalyticGraphon):
        step, _ = discretize(w, w.truncation.x_max / 256)
        base = w.truncation.target_l1_residual
        inner = truncate_tail(step, max(eps - base, 1e-15))
        return TailTruncation(inner.mass_bound, inner.graphon, inner.residual + base)
    if not isinstance(w, StepGraphon):
        raise GraphonError(f"not a graphon: {type(w).__name__}")
    total = l1_norm(w)
    ab = np.abs(w.values)
    for k in range(w.n_blocks + 1):
        kept = float(w.masses[:k] @ ab[:k, :k] @ w.masses[:k]) if k else 0.0
        residual = total - kept
        if residual < eps:
            return TailTruncation(float(w.boundaries[k]), w.restrict_blocks(range(k)), residual)
    raise AssertionError("unreachable: residual at full support is 0")


def average_over_partition(w: StepGraphon, p: Partition) -> StepGraphon:
    """Average the kernel over the cells of ``p`` (an L1 and cut-norm contraction)."""
    if not isinstance(w, StepGraphon):
        raise GraphonError("average_over_partition operates on step graphons")
    if sorted(i for cell in p.cells for i in cell) != list(range(w.n_blocks)):
        raise GraphonError("partition does not match the graphon's blocks; refine first")
    k = p.n_cells
    vals = np.zeros((k, k))
    for a, cell_a in enumerate(p.cells):
        for b, cell_b in enumerate(p.cells):
            sub = w.values[np.ix_(list(cell_a), list(cell_b))]
            ma = w.masses[list(cell_a)]
            mb = w.masses[list(cell_b)]
            vals[a, b] = float(ma @ sub @ mb) / (p.masses[a] * p.masses[b])
    vals = 0.5 * (vals + vals.T)  # kill last-bit asymmetry from float reduction order
    return StepGraphon(np.asarray(p.masses), vals, w.ambient_infinite)


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
      (simplex weight cell) x (common refinement of component blocks) and
      lays them out weight-cell major.  Cell values are exact cell averages
      because the kernel is bilinear in the weights.

    Other families have no block structure; use :func:`discretize`.
    """
    if isinstance(w, InfiniteBlockGraphon):
        k = w.truncation_count
        masses = [hi - lo for lo, hi in w.intervals[:k]]
        return StepGraphon(masses, w.probs[:k, :k], ambient_infinite=True)
    if isinstance(w, MixedMembershipGraphon):
        comps = w.components
        for row in comps:
            for c in row:
                if not isinstance(c, StepGraphon):
                    raise GraphonError("flatten_to_line needs step components; got an analytic component")
        edges = np.unique(np.concatenate([c.boundaries for row in comps for c in row]))
        widths = np.diff(edges)
        keep = widths > 1e-15
        lows = edges[:-1][keep]
        widths = widths[keep]
        mids = lows + widths / 2
        n_feat = widths.size
        comp_vals = np.zeros((w.K, w.K, n_feat, n_feat))
        for i in range(w.K):
            for j in range(w.K):
                comp_vals[i, j] = evaluate(comps[i][j], mids[:, None], mids[None, :])
        cells = w.simplex_cells(weight_cells)
        masses = []
        for prob, _ in cells:
            masses.extend(prob * widths)
        n = len(cells) * n_feat
        vals = np.zeros((n, n))
        for a, (_, wa) in enumerate(cells):
            for b, (_, wb) in enumerate(cells):
                mix = np.einsum("i,j,ijxy->xy", wa, wb, comp_vals)
                vals[a * n_feat:(a + 1) * n_feat, b * n_feat:(b + 1) * n_feat] = mix
        vals = 0.5 * (vals + vals.T)
        return StepGraphon(masses, vals, ambient_infinite=True)
    if isinstance(w, (CaronFoxGraphon, RegionIndicatorGraphon)):
        raise GraphonError(f"{w.family} has no block structure; use discretize instead")
    raise GraphonError(f"flatten_to_line does not support {type(w).__name__}")


def discretize(w: AnalyticGraphon, grid_step: float) -> tuple[StepGraphon, float]:
    """Step approximation on a uniform grid over the truncated support.

    Cell values are cell averages (tensor Simpson for smooth kernels, exact
    boundary integration for the region indicator).  The returned error
    estimate is the exact L1 distance to the approximation built on a
    twice-finer grid.
    """
    if not isinstance(w, AnalyticGraphon):
        raise GraphonError("discretize operates on analytic graphons")
    if isinstance(w, (InfiniteBlockGraphon, MixedMembershipGraphon)):
        raise GraphonError(f"{w.family} flattens exactly; use flatten_to_line")
    if grid_step <= 0:
        raise GraphonError("grid_step must be positive")
    x_max = w.truncation.x_max
    n = int(math.ceil(x_max / grid_step - 1e-12))
    if n > MAX_DISCRETIZE_BLOCKS:
        raise CostLimitError(f"grid too fine: {n} cells exceed the {MAX_DISCRETIZE_BLOCKS} cell limit", float(n) ** 2)

    def build(cells: int) -> StepGraphon:
        edges = np.linspace(0.0, x_max, cells + 1)
        if isinstance(w, RegionIndicatorGraphon):
            vals = _region_cell_averages(w, edges)
        else:
            vals = _simpson_cell_averages(w, edges)
        vals = 0.5 * (vals + vals.T)
        return StepGraphon(np.diff(edges), vals)

    coarse = build(n)
    if 2 * n <= MAX_DISCRETIZE_BLOCKS:
        fine = build(2 * n)
        half = np.repeat(np.repeat(coarse.values, 2, axis=0), 2, axis=1)
        diff = np.abs(half - fine.values)
        err = float(fine.masses @ diff @ fine.masses)
    else:
        err = math.nan
    return coarse, err


def _simpson_cell_averages(w: AnalyticGraphon, edges: np.ndarray) -> np.ndarray:
    """Per-cell tensor-product Simpson averages of a smooth kernel."""
    n = edges.size - 1
    nodes = np.concatenate([edges[:-1], (edges[:-1] + edges[1:]) / 2, edges[1:]])
    weights = np.array([1.0, 4.0, 1.0]) / 6.0
    kern = w.kernel(nodes[:, None], nodes[None, :])
    out = np.zeros((n, n))
    for a, wa in enumerate(weights):
        for b, wb in enumerate(weights):
            out += wa * wb * kern[a * n:(a + 1) * n, b * n:(b + 1) * n]
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


def load_graphon_spec(spec: dict):
    """Build a graphon from its JSON object form; errors name the offending field."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise SpecError("graphon spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "step":
        try:
            masses = [float(m) for m in spec["masses"]]
            values = [[float(v) for v in row] for row in spec["values"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed step spec: {exc}") from exc
        try:
            return StepGraphon(masses, values, bool(spec.get("ambient_infinite", False)))
        except GraphonError as exc:
            raise SpecError(str(exc)) from exc
    trunc = spec.get("truncation", {})
    x_max = trunc.get("x_max")
    target = trunc.get("target_l1_residual")
    if kind == "caron_fox":
        f = spec.get("f", {})
        try:
            return CaronFoxGraphon(f.get("kind", "shifted_power"), float(f["c"]), float(f["gamma"]),
                                   x_max=x_max, target_l1_residual=target)
        except (KeyError, TypeError, ValueError, GraphonError) as exc:
            raise SpecError(f"malformed caron_fox spec: {exc}") from exc
    if kind == "region_indicator":
        f = spec.get("f", {})
        try:
            return RegionIndicatorGraphon(float(f.get("a", 0.5)), x_max=x_max, target_l1_residual=target)
        except (TypeError, ValueError, GraphonError) as exc:
            raise SpecError(f"malformed region_indicator spec: {exc}") from exc
    if kind == "infinite_block":
        try:
            return InfiniteBlockGraphon(spec["intervals"], spec["probs"], spec.get("truncation_count"))
        except (KeyError, TypeError, ValueError, GraphonError) as exc:
            raise SpecError(f"malformed infinite_block spec: {exc}") from exc
    if kind == "mixed_membership":
        rows = spec.get("components")
        if not rows:
            raise SpecError("mixed_membership spec needs a components matrix")
        built: dict[tuple[int, int], object] = {}
        comps = []
        for i, row in enumerate(rows):
            out_row = []
            for j, sub in enumerate(row):
                if (j, i) in built:
                    out_row.append(built[(j, i)])
                else:
                    out_row.append(load_graphon_spec(sub))
                    built[(i, j)] = out_row[-1]
            comps.append(out_row)
        try:
            return MixedMembershipGraphon(comps, x_max=x_max, target_l1_residual=target)
        except GraphonError as exc:
            raise SpecError(str(exc)) from exc
    raise SpecError(f"unknown graphon type {kind!r}")


def graphon_to_spec(w) -> dict:
    if isinstance(w, StepGraphon):
        return {
            "type": "step",
            "masses": [float(m) for m in w.masses],
            "values": [[float(v) for v in row] for row in w.values],
            "ambient_infinite": w.ambient_infinite,
        }
    if isinstance(w, CaronFoxGraphon):
        return {
            "type": "caron_fox",
            "f": {"kind": w.f_kind, "c": w.c, "gamma": w.gamma},
            "truncation": {"x_max": w.truncation.x_max, "target_l1_residual": w.truncation.target_l1_residual},
        }
    if isinstance(w, RegionIndicatorGraphon):
        return {
            "type": "region_indicator",
            "f": {"kind": "power_involution", "a": w.a},
            "truncation": {"x_max": w.truncation.x_max, "target_l1_residual": w.truncation.target_l1_residual},
        }
    if isinstance(w, InfiniteBlockGraphon):
        return {
            "type": "infinite_block",
            "intervals": [[lo, hi] for lo, hi in w.intervals],
            "probs": [[float(v) for v in row] for row in w.probs],
            "truncation_count": w.truncation_count,
        }
    if isinstance(w, MixedMembershipGraphon):
        return {
            "type": "mixed_membership",
            "components": [[graphon_to_spec(c) for c in row] for row in w.components],
            "truncation": {"x_max": w.truncation.x_max, "target_l1_residual": w.truncation.target_l1_residual},
        }
    raise GraphonError(f"not a graphon: {type(w).__name__}")


def load_graphon_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_graphon_spec(json.load(fh))


def save_graphon_file(w, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graphon_to_spec(w), fh, indent=2, sort_keys=True)
        fh.write("\n")
