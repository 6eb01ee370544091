"""Independent checks of graphonlab outputs.

Every function recomputes what an output must be, from raw arrays with
numpy or from a property the method must have, and returns a list of
problems (empty when the output is correct).  No check calls the function
whose output it judges, and none compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12

# Catalog entries whose verdict is an exact identity at every seed.  The
# other entries decide statistical claims from samples, so their verdict at
# one seed carries a false-failure rate and is not counted here.
EXACT_ENTRIES = frozenset({
    "bounded_degree_null",
    "cutnorm_oracle",
    "edge_density_one",
    "metric_axioms",
    "permutation_zero",
    "perturbation_bound",
})


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= ABS_TOL + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_AGGREGATE = re.compile(r"(mean|median)_(.+)")
_CHECKPOINT = re.compile(r"edges_(\d+)")


def _stat(kind: str, values) -> float:
    values = np.asarray(list(values), dtype=float)
    return float(np.mean(values) if kind == "mean" else np.median(values))


def _aggregate_rows(rest: str, records: list[dict]):
    """The records and field a ``mean_/median_`` aggregate summarizes."""
    if rest in records[0]:
        return records, rest
    group, _, end = rest.rpartition("_")
    checkpoints = sorted((k for k in records[0] if _CHECKPOINT.fullmatch(k)),
                         key=lambda k: int(_CHECKPOINT.fullmatch(k).group(1)))
    if end in ("first", "last") and checkpoints:
        rows = [r for r in records if r.get("schedule") == group]
        return rows, checkpoints[0] if end == "first" else checkpoints[-1]
    return None, None


def catalog_report(name: str, records: list[dict], aggregates: dict, passed: bool) -> list[str]:
    """Exact entries pass; every mean/median aggregate equals its recomputation."""
    problems = []
    if name in EXACT_ENTRIES and not passed:
        problems.append(f"{name}: exact entry reports passed=False")
    if not records:
        return problems + [f"{name}: no records"]
    points = [(key, value, records) for key, value in aggregates.items()]
    for point in aggregates.get("series", []):
        rows = [r for r in records if r.get("horizon") == point["x"]]
        points += [(key, value, rows) for key, value in point.items() if key != "x"]
    for key, value, rows in points:
        m = _AGGREGATE.fullmatch(key)
        if not m:
            continue
        subset, field = _aggregate_rows(m.group(2), rows)
        if not subset:
            problems.append(f"{name}: aggregate {key} cannot be recomputed from the records")
        elif not close(value, _stat(m.group(1), (r[field] for r in subset))):
            problems.append(f"{name}: {key}={value!r} but the records give "
                            f"{_stat(m.group(1), (r[field] for r in subset))!r}")
    return problems


# ---------------------------------------------------------------------------
# sparse_growth
# ---------------------------------------------------------------------------


def trace_arrays(trace):
    """Labels, births and features of a trace's vertex records."""
    labels = np.array([v.label for v in trace.vertices], dtype=np.int64)
    births = np.array([v.birth for v in trace.vertices], dtype=float)
    feats = np.array([v.feature for v in trace.vertices], dtype=float).reshape(labels.size, -1)
    return labels, births, feats


def _sorted_rows(edges) -> np.ndarray:
    e = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


def _positions(labels: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """Index of each endpoint label in ``labels``; -1 when absent."""
    if labels.size == 0:
        return np.full(np.shape(endpoints), -1)
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    idx = np.minimum(np.searchsorted(sorted_labels, endpoints), labels.size - 1)
    return np.where(sorted_labels[idx] == endpoints, order[idx], -1)


def horizon_prefix(small, big) -> list[str]:
    """A shorter-horizon trace is the longer one restricted to births <= h."""
    ls, bs, fs = trace_arrays(small)
    lb, bb, fb = trace_arrays(big)
    k = int((bb <= small.horizon).sum())
    if not (np.array_equal(ls, lb[:k]) and np.array_equal(bs, bb[:k]) and np.array_equal(fs, fb[:k])):
        return [f"T={small.horizon:g}: vertices differ from the T={big.horizon:g} trace's first {k}"]
    keep = np.isin(big.edges, lb[:k]).all(axis=1)
    if not np.array_equal(_sorted_rows(small.edges), _sorted_rows(big.edges[keep])):
        return [f"T={small.horizon:g}: edges differ from the T={big.horizon:g} trace restricted to births <= h"]
    return []


def snapshot(trace, s: float, g) -> list[str]:
    """Induced subgraph on births <= s with isolated vertices removed."""
    labels, births, feats = trace_arrays(trace)
    inside = births <= s
    pos = _positions(labels, trace.edges.ravel()).reshape(-1, 2)
    edges = trace.edges[inside[pos].all(axis=1)] if trace.edges.size else trace.edges.reshape(0, 2)
    touched = np.isin(labels, edges.ravel()) & inside
    problems = []
    if not np.array_equal(g.labels, labels[touched]):
        problems.append(f"s={s:g}: vertex labels differ from the induced non-isolated set")
    if not np.array_equal(_sorted_rows(g.edges), _sorted_rows(edges)):
        problems.append(f"s={s:g}: {g.num_edges} edges, the induced subgraph has {len(edges)}")
    if g.births is None or not np.array_equal(g.births, births[touched]):
        problems.append(f"s={s:g}: births differ from the trace's")
    if g.features is None or not np.array_equal(np.asarray(g.features).reshape(touched.sum(), -1),
                                                feats[touched]):
        problems.append(f"s={s:g}: features differ from the trace's")
    return problems


def degrees(g) -> np.ndarray:
    """Degrees aligned with ``g.labels``, counted from the edge array."""
    pos = _positions(np.asarray(g.labels), np.asarray(g.edges).ravel())
    return np.bincount(pos, minlength=g.num_vertices)


def degree_stats(g, lambdas, average: float, counts) -> list[str]:
    """Degree sums equal 2|E|; the average and tail counts match a recount."""
    deg = degrees(g)
    reported = g.degree_sequence()
    e = g.num_edges
    problems = []
    if int(reported.sum()) != 2 * e:
        problems.append(f"degree sum {int(reported.sum())} != 2|E| = {2 * e}")
    if not np.array_equal(reported, deg):
        problems.append("degree_sequence differs from the recount")
    if not close(average, 2.0 * e / g.num_vertices):
        problems.append(f"average degree {average!r} != 2|E|/|V|")
    scale = math.sqrt(2.0 * e)
    expected = np.array([(deg > lam * scale).sum() for lam in lambdas], dtype=float) / scale
    if not np.allclose(counts, expected, rtol=REL_TOL, atol=0.0):
        problems.append(f"tail counts {list(counts)} != recount {list(expected)}")
    return problems


def xi_boxes(trace, h: float, horizon: float, counts) -> list[str]:
    """Box counts equal a 2-D histogram of endpoint births, both orders."""
    labels, births, _ = trace_arrays(trace)
    nbins = int(math.ceil(horizon / h - 1e-12))
    pos = _positions(labels, trace.edges.ravel()).reshape(-1, 2)
    bu, bv = births[pos[:, 0]], births[pos[:, 1]]
    grid = h * np.arange(nbins + 1)
    hist, _, _ = np.histogram2d(np.r_[bu, bv], np.r_[bv, bu], bins=[grid, grid])
    problems = []
    if not np.array_equal(np.asarray(counts), hist.astype(np.int64)):
        problems.append("xi box counts differ from the endpoint-birth histogram")
    if int(np.asarray(counts).sum()) != 2 * trace.num_edges:
        problems.append("xi box counts do not sum to 2|E|")
    return problems


def tail_profile(g, m_values, profile) -> list[str]:
    """Shares equal prefix sums of sorted degrees and reach 2 at the full prefix."""
    e = g.num_edges
    deg = np.sort(degrees(g))[::-1]
    cum = np.concatenate([[0], np.cumsum(deg)])
    ks = np.minimum(np.ceil(np.asarray(m_values, dtype=float) * math.sqrt(e)).astype(int), deg.size)
    problems = []
    if not np.allclose(profile.shares, cum[ks] / e, rtol=REL_TOL, atol=0.0):
        problems.append("tail shares differ from prefix sums of sorted degrees")
    if ks[-1] < np.count_nonzero(deg):
        problems.append("the M grid stops short of the full prefix")
    elif profile.shares[-1] != 2.0:
        problems.append(f"tail share at the full prefix is {profile.shares[-1]!r}, not 2")
    return problems


def er_graph(n: int, alpha: float, g, sds: float = 6.0) -> list[str]:
    """Distinct in-range pairs; the edge count is near the binomial mean."""
    problems = []
    if not np.array_equal(g.labels, np.arange(1, n + 1)):
        problems.append("labels are not 1..n")
    e = np.asarray(g.edges)
    if e.size and (e.min() < 1 or e.max() > n or np.any(e[:, 0] >= e[:, 1])):
        problems.append("an edge is out of range or not a pair u < v")
    if np.unique(e, axis=0).shape[0] != e.shape[0]:
        problems.append("duplicate edges")
    pairs = n * (n - 1) / 2
    p = float(n) ** (alpha - 1.0)
    mean, sd = pairs * p, math.sqrt(pairs * p * (1.0 - p))
    if abs(g.num_edges - mean) > sds * sd:
        problems.append(f"{g.num_edges} edges, binomial mean {mean:.0f} +- {sd:.0f}")
    return problems


# ---------------------------------------------------------------------------
# dense_motifs
# ---------------------------------------------------------------------------


def adjacency(g) -> np.ndarray:
    pos = _positions(np.asarray(g.labels), np.asarray(g.edges).ravel()).reshape(-1, 2)
    a = np.zeros((g.num_vertices, g.num_vertices), dtype=np.int64)
    a[pos[:, 0], pos[:, 1]] = 1
    a[pos[:, 1], pos[:, 0]] = 1
    return a


def motif_counts(name: str, a: np.ndarray) -> tuple[int, int]:
    """``(inj, hom)`` of a named motif from adjacency-matrix algebra."""
    d = a.sum(axis=1)
    e = int(a.sum()) // 2
    a2 = a @ a
    if name == "triangle":
        t = int(np.einsum("ij,ji->", a2, a))
        return t, t
    if name == "path3":
        return int((d * (d - 1)).sum()), int((d * d).sum())
    if name == "star_3":
        return int((d * (d - 1) * (d - 2)).sum()), int((d ** 3).sum())
    if name == "c4":
        closed = int(np.einsum("ij,ji->", a2, a2))
        return closed - 2 * int((d * d).sum()) + 2 * e, closed
    if name == "k4":
        # each K4 holds 6 edges, and each edge sees the K4's other edge
        # inside its common neighbourhood: inj = 24 #K4 = 4 sum_uv e(N(u) & N(v))
        total = 0
        for u, v in zip(*np.nonzero(np.triu(a))):
            common = np.flatnonzero(a[u] & a[v])
            total += int(a[np.ix_(common, common)].sum()) // 2
        return 4 * total, 4 * total
    raise ValueError(f"no independent count for motif {name!r}")


def motif(name: str, a: np.ndarray, inj: int, hom: int) -> list[str]:
    want_inj, want_hom = motif_counts(name, a)
    if (inj, hom) != (want_inj, want_hom):
        return [f"{name}: counted (inj, hom) = ({inj}, {hom}), adjacency algebra gives ({want_inj}, {want_hom})"]
    return []


def step_density(edges, k: int, masses, values) -> float:
    """h(F, W) of a step graphon by a direct sum over all block assignments."""
    masses = np.asarray(masses, dtype=float)
    values = np.asarray(values, dtype=float)
    total = 0.0
    for assign in itertools.product(range(masses.size), repeat=k):
        term = float(np.prod(masses[list(assign)]))
        for u, v in edges:
            term *= values[assign[u], assign[v]]
        total += term
    return total / float(masses @ values @ masses) ** (k / 2.0)


def h_analytic(name: str, edges, k: int, masses, values, reported: float) -> list[str]:
    want = step_density(edges, k, masses, values)
    if not close(reported, want, 1e-12):
        return [f"{name}: h_analytic {reported!r}, direct block sum {want!r}"]
    return []


# ---------------------------------------------------------------------------
# certified_distances
# ---------------------------------------------------------------------------


def cut_norm_of(m: np.ndarray) -> float:
    """max over subsets U, V of |sum_{U x V} m|: for each U, V takes every
    column of one sign."""
    n = m.shape[0]
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    s = bits @ m
    return float(max(np.clip(s, 0.0, None).sum(axis=1).max(), np.clip(-s, 0.0, None).sum(axis=1).max()))


def coupled_difference(a, b, masses, perm) -> np.ndarray:
    """Block integrals of W1 - W2 under the block permutation ``perm``."""
    perm = list(perm)
    return (np.asarray(a) - np.asarray(b)[np.ix_(perm, perm)]) * np.outer(masses, masses)


def distance(a, b, masses, value: float, witness, kind: str = "cut") -> list[str]:
    """The witness reproduces the value, which lies between the trivial
    lower bound and the identity coupling (cut) or is an L1 norm (l1)."""
    diff = coupled_difference(a, b, masses, witness)
    again = cut_norm_of(diff) if kind == "cut" else float(np.abs(diff).sum())
    problems = []
    if not close(value, again):
        problems.append(f"{kind} distance {value!r}, its witness re-evaluates to {again!r}")
    if kind == "cut":
        mm = np.outer(masses, masses)
        lower = abs(float((np.asarray(a) * mm).sum() - (np.asarray(b) * mm).sum()))
        upper = cut_norm_of((np.asarray(a) - np.asarray(b)) * mm)
        if not (lower - ABS_TOL <= value <= upper * (1 + REL_TOL) + ABS_TOL):
            problems.append(f"cut distance {value!r} outside [{lower!r}, {upper!r}]")
    return problems


def shuffled_copy(w_values, shuffled_values, masses, value: float, witness) -> list[str]:
    problems = distance(w_values, shuffled_values, masses, value, witness)
    if value > ABS_TOL:
        problems.append(f"distance to a block-shuffled copy is {value!r}, not 0")
    if not np.array_equal(np.asarray(w_values), np.asarray(shuffled_values)[np.ix_(list(witness), list(witness))]):
        problems.append("the witness does not invert the shuffle")
    return problems


def cut_norm_witness(masses, values, value: float, u_blocks, v_blocks) -> list[str]:
    m = np.asarray(values) * np.outer(masses, masses)
    rect = abs(float(m[np.ix_(list(u_blocks), list(v_blocks))].sum())) if u_blocks and v_blocks else 0.0
    if not close(value, rect):
        return [f"cut norm {value!r}, its witness rectangle integrates to {rect!r}"]
    return []


def rank_one_cut_norm(masses, a, value: float) -> list[str]:
    """For W = a a^T the cut norm is max(P^2, N^2), P and N the masses of
    the positive and negative parts of a."""
    c = np.asarray(a) * np.asarray(masses)
    want = max(c[c > 0].sum() ** 2, c[c < 0].sum() ** 2)
    if not close(value, want):
        return [f"rank-one cut norm {value!r}, closed form {want!r}"]
    return []


def region_indicator_l1(a: float, m: float) -> float:
    """int_0^m min(f(x), m) dx for f(x) = x^-a on (0, 1], x^-(1/a) beyond."""
    b = 1.0 / a
    x0 = m ** (-b)
    return m * x0 + (1.0 - x0 ** (1.0 - a)) / (1.0 - a) + (m ** (1.0 - b) - 1.0) / (1.0 - b)


def mass_conservation(step, want: float) -> list[str]:
    """Exact cell averages keep the kernel's mass: the step graphon's L1
    norm equals the truncated kernel's."""
    got = float(step.masses @ np.abs(step.values) @ step.masses)
    if not close(got, want):
        return [f"cell averages carry L1 mass {got!r}, the kernel has {want!r}"]
    return []


def monotone_cells(step, kernel, x_max: float) -> list[str]:
    """A kernel decreasing in both arguments has every cell average between
    its values at the cell's upper and lower corners."""
    edges = np.concatenate([[0.0], np.cumsum(step.masses)])
    problems = []
    if not close(edges[-1], x_max):
        problems.append(f"cells cover [0, {edges[-1]!r}], not [0, {x_max!r}]")
    if not np.array_equal(step.values, step.values.T):
        problems.append("cell values are not symmetric")
    hi = kernel(edges[:-1, None], edges[None, :-1])
    lo = kernel(edges[1:, None], edges[None, 1:])
    slack = 1e-12
    if np.any(step.values > hi + slack) or np.any(step.values < lo - slack):
        problems.append("a cell average lies outside its corner values")
    return problems
