"""Exact effort-allocation solvers for feature shifts in tree ensembles.

Four objectives over a shared search space:

* ``max_path``   - product, over the m essential trees, of the chosen leaf's
  path probability (m = floor(R/2)+1, a strict majority).
* ``min_path``   - per-tree value is the minimum path probability over the
  tree's target-class leaves (independent of the chosen leaf).
* ``kappa_path`` - per-tree value is the kappa-th smallest entry of the theta
  vector (path probability for target leaves, 1.0 for the rest), with the
  mu side constraint on the cumulative mass of the kappa-1 smallest entries.
* ``min_distance`` - classical closest feasible point under a weighted
  L1/L2/Linf cost; the only objective that honors unequal tree weights.

Probabilistic objectives are solved by scoring every effort allocation (their
count is small at the intended scale) and running a branch-and-bound over
essential-tree sets and leaf choices per allocation. An allocation's bound is
the log values of its m best trees added best first; no plan of it scores
higher. A tree's value depends only on the allocation's effort at the
features on the tree's target paths, and a target leaf's path probability
only on the effort along its own path, so the forest's scoring plan
(``Forest.scoring_plan``) groups the allocations per tree into (tree,
signature) pairs and the pairs' target leaves into distinct leaf signatures.
A solve computes each leaf signature's product once (``_path_products``: a
gather and a product per path step, through the plan's ``step`` index) and
values each pair once, from its target-leaf count and its leaves' products, by
one batch rule shared with the verifier (``_tree_values``): a running max or min
a column at a time, or a padded matrix whose sorted rows give the order
statistic, with ``math.fsum`` deciding mu wherever a float64 sum is too near it
to tell. Logs are taken with ``math.log``, as the DFS takes them, once per
distinct value on large plans (``_score_pairs``).
The bounds are computed in numpy (``_bounds``): each allocation's per-tree
logs are sorted, and the m best are added best first, a column at a time,
with elementwise float64 adds starting from 0.0. That is ``_add_up``'s order
on the same ``math.log`` values, and IEEE addition rounds the same in numpy
as in Python, so every bound is bit-identical to the scalar sum the
allocation cut starts from.

Allocations are visited by bound, highest first, ties to the lower index, in
passes of falling threshold (an anytime bound as in Veritas, Devos, Meert &
Davis 2021, with cost-threshold deepening as in IDA*, Korf 1985).
Pass k = 1, 2, ... searches the allocations whose bound is above
``T_k = top - k * STEP`` (``STEP`` = 1 nat, ``top`` the highest bound) and
keeps only plans above ``max(T_k, incumbent)``. A pass that keeps a plan ends
the search with the optimum; one that keeps none proves the optimum is at
most ``T_k``. Once ``T_k`` is below the lowest finite bound the threshold is
dropped, and that last pass searches every allocation and keeps a plan at
log -inf too.

Ties are broken by a rule that does not depend on the visit order: plans
compare by (log objective, -allocation index), where allocations are indexed
in lexicographic order, so among equal plans the lowest allocation wins; an
allocation below the incumbent's index is searched even when its bound only
equals the incumbent. Inside one allocation the first plan the DFS visits
wins. Trees are visited by best value first, candidates of a tree by value.
Path probabilities are multiplied root to leaf in the order
``path_probability`` uses, so they are bit-identical to it. Feasibility is
tested with the forest's leaf-compatibility bitsets (``Forest.leaf_geometry``):
a leaf can join the chosen ones iff its bit is set in ``allowed``, the AND of
their bitsets, and the joint box is built only for the solution. All
accumulation happens in log space. Every cut below drops only subtrees with
no plan that the threshold and the tie rule would keep, so it changes the
nodes explored, never the answer:

* Forward check: a remaining tree counts toward the bound only if ``allowed``
  still meets its target leaves. If fewer than the missing votes remain, the
  node is cut; otherwise the bound adds the best log values of the first
  qualifying trees to the running log one at a time, in visit order; at the
  root that is the allocation's bound. A completion adds, in the same order,
  values no higher term by term, and rounding is monotone, so the bound never
  rounds below a completion's sum and needs no tolerance. A node that skips
  its tree has its parent's ``allowed``: its scan resumes after the parent's.
  A candidate whose log value, in place of its tree's best, puts that sum at
  or below the cut ends the tree's candidates (tested bound-first, exactly).
* Sibling dominance: what a candidate leaves open is ``allowed`` ANDed with
  its bitset, restricted to the candidate leaves of the trees after it. A
  candidate that leaves open a subset of what an earlier-tried sibling left
  open is skipped: that sibling's value is no lower, so each completion of
  the skipped one is matched, term by term, by a completion visited earlier.
* ``solve_min_distance`` searches winning tree sets with its own bounds (see its docstring).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .forest import (DEFAULT_EPSILON, Forest, TargetPaths, _intersect, _target_wins,
                     boxes_intersect, leaf_of)
from .probability import NodeProbabilityTable

MAX_PATH = "max_path"
MIN_PATH = "min_path"
KAPPA_PATH = "kappa_path"
MIN_DISTANCE = "min_distance"
OBJECTIVES = (MAX_PATH, MIN_PATH, KAPPA_PATH, MIN_DISTANCE)

_NEG_INF = float("-inf")
STEP = 1.0   # nats the path search's threshold falls per pass
_SCORE_BLOCK = 4096   # (tree, signature) pairs valued together when scoring allocations
_FEW_PAIRS = 256   # up to this many pairs, a log per pair costs less than np.unique


class _Timeout(Exception):
    pass


def _check_count(name: str, value) -> None:
    """Reject a count that is not an integer (numpy integers pass, 1.0 and 1.5 do not)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ProblemInstance:
    x0: tuple[float, ...]
    target_class: int
    eta: int
    E: int
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if self.target_class not in (0, 1):
            raise ValueError("target_class must be 0 or 1")
        _check_count("eta", self.eta)
        _check_count("E", self.E)
        if self.eta < 0 or self.E < 0:
            raise ValueError("eta and E must be nonnegative")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive")


@dataclass
class SolverConfig:
    objective: str = MAX_PATH
    kappa: int = 1
    kappa_fraction: float | None = None   # per-tree kappa = ceil(fraction * leaf count)
    mu: float = 1e-6
    positive_leaves_only: bool = False    # sort only target-class leaves for the order statistic
    distance: str = "l1"                  # l1 | l2 | linf
    distance_weights: tuple[float, ...] | None = None
    time_limit: float | None = None      # seconds; None or inf: no limit

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        _check_count("kappa", self.kappa)
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.kappa_fraction is not None and not 0.0 < self.kappa_fraction <= 1.0:
            raise ValueError("kappa_fraction must be in (0, 1]")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must be in [0, 1)")
        if self.distance not in ("l1", "l2", "linf"):
            raise ValueError(f"unknown distance {self.distance!r}")
        if self.distance_weights is not None and any(
            not (math.isfinite(w) and w >= 0.0) for w in self.distance_weights
        ):
            raise ValueError("distance_weights must be finite and nonnegative")
        if self.time_limit is not None and not self.time_limit > 0.0:   # also rejects NaN
            raise ValueError("time_limit must be positive; None or inf sets no limit")


@dataclass
class Solution:
    status: str                                   # optimal | infeasible | timeout
    objective: float | None = None                # probability, or distance for min_distance
    log_objective: float | None = None
    effort: tuple[int, ...] | None = None
    chosen_leaves: dict[int, int] | None = None   # tree index -> leaf id, every tree
    essential_trees: tuple[int, ...] | None = None
    per_tree_value: dict[int, float] | None = None
    x: tuple[float, ...] | None = None
    feasible_box: list[tuple[float, float]] | None = None
    nodes_explored: int = 0
    wall_time: float = 0.0

    @property
    def found(self) -> bool:
        return self.x is not None

    def to_dict(self) -> dict:
        doc = asdict(self)
        if self.chosen_leaves is not None:
            doc["chosen_leaves"] = {str(k): v for k, v in sorted(self.chosen_leaves.items())}
        return doc


@dataclass
class Verdict:
    passed: bool
    failures: list[str] = field(default_factory=list)


def majority_threshold(num_trees: int) -> int:
    return num_trees // 2 + 1


def path_probability(forest: Forest, tree_index: int, leaf_id: int,
                     table: NodeProbabilityTable, effort) -> float:
    """Product of effort-adjusted branch probabilities along the leaf's path."""
    node, right, ident, feature = forest._path_lists
    g = forest._leaf_paths.row[tree_index][leaf_id]
    prob = 1.0
    for at, went_right in zip(node[g], right[g]):
        if at == len(ident):   # past the path's end
            break
        p = table.right_prob(tree_index, ident[at], effort[feature[at]])
        prob *= p if went_right else 1.0 - p
    return prob


def _path_products(table: NodeProbabilityTable, paths: TargetPaths, E: int, step) -> np.ndarray:
    """Per leaf signature s, the path probability of its leaf of ``paths`` at its effort
    levels (``step[:, s]``, a scoring plan's at this E), bit-for-bit ``path_probability``'s.

    The table rows of the paths' nodes, cut to levels 0..E, and a row of 1.0s (the steps
    past a path's end) make a flat table, followed by 1.0 minus each entry: ``step[k, s]``
    is the factor of step k, the right branch's probability or the left's. So the products
    cost one gather and one elementwise product per step, root to leaf.
    """
    width, n = E + 1, len(paths.nodes)
    q = np.ones((2, n + 1, width))
    q[0, :n] = np.fromiter(itertools.chain.from_iterable(map(table.probs.__getitem__, paths.nodes)),
                           float, n * (table.E + 1)).reshape(n, table.E + 1)[:, :width]
    q[1] -= q[0]
    q = q.reshape(-1)
    prob = q[step[0]]
    for k in range(1, len(step)):
        prob *= q[step[k]]   # elementwise, in path order: no reduction reorders it
    return prob


def _resolve_kappa(config: SolverConfig, n_leaves: int) -> int:
    if config.kappa_fraction is not None:
        return max(1, math.ceil(config.kappa_fraction * n_leaves))
    return config.kappa


def _consecutive_slots(counts) -> np.ndarray:
    """Row r numbers ``counts[r]`` entries, following those of row r-1, then holds -1s; at
    least one column, so that every row can be read."""
    counts = np.asarray(counts, dtype=np.intp)
    k = np.arange(max(1, int(counts.max(initial=0))))
    return np.where(k < counts[:, None], (np.cumsum(counts) - counts)[:, None] + k, -1)


def _tree_values(prob, slot, count, n_leaves, kappa, config: SolverConfig):
    """Per row r of ``slot``, one tree's (value, can vote target) from its ``count[r]``
    target leaves' path probabilities ``prob[slot[r]]`` (-1s after the row's leaves: no
    leaf), where the tree has ``n_leaves[r]`` leaves and ``kappa[r]`` is its
    ``_resolve_kappa(config, n)``.

    ``max_path`` takes the largest probability (an optimistic bound) and ``min_path``
    the smallest, a column at a time (exact in any order). ``kappa_path`` takes the
    kappa-th smallest entry of the theta vector, the probabilities plus a 1.0 cap per
    other leaf (the probabilities alone with ``positive_leaves_only``), and the tree can
    vote target iff the entries below it sum to at least mu. A row without target leaves
    has value 0.0 and cannot vote target.

    Path probabilities never exceed 1, so padding a row with 1.0 caps and sorting it gives
    the sorted theta vector, whose first ``len(probabilities)`` entries are the sorted
    probabilities; sorting and selection are exact. The sums are float sums of each row's
    entries below the kappa-th; a row whose sum lies within its rounding bound of mu,
    plus one ulp of mu, is summed again with ``math.fsum``. Elsewhere the exact sum lies on
    the float sum's side of mu by more than an ulp, so every decision is ``math.fsum``'s.
    """
    has = slot[:, 0] >= 0   # a row's leaves come first
    if config.objective != KAPPA_PATH:
        least = config.objective == MIN_PATH
        entry = np.append(prob, math.inf if least else _NEG_INF)
        out, pick = entry.take(slot[:, 0]), np.minimum if least else np.maximum
        for k in range(1, slot.shape[1]):
            pick(out, entry.take(slot[:, k]), out=out)
        return np.where(has, out, 0.0), has
    size = count if config.positive_leaves_only else n_leaves   # of theta
    col = np.maximum(np.minimum(kappa, size) - 1, 0)
    missing = int(col.max(initial=0)) + 1 - slot.shape[1]
    if missing > 0:   # the kappa-th entry lies among the caps past the longest row
        slot = np.pad(slot, ((0, 0), (0, missing)), constant_values=-1)
    vals = np.append(prob, 1.0)[slot]
    vals.sort(axis=1)
    rows = np.arange(len(vals))
    # a reduceat segment per row: its first col[r] entries (an empty one gives its first
    # entry). A float sum of n terms >= 0, in any order, lies within n * 2**-52 times
    # itself of the exact sum
    start = rows * vals.shape[1]
    below = np.add.reduceat(vals.reshape(-1), np.column_stack((start, start + col)).reshape(-1))
    below = np.where(col > 0, below[::2], 0.0)
    mu = config.mu
    eligible = has & (below >= mu)
    for r in np.flatnonzero(has & (np.abs(below - mu) <= col * 2.0 ** -52 * below
                                   + math.ulp(mu))).tolist():
        eligible[r] = math.fsum(vals[r, :col[r]].tolist()) >= mu
    return np.where(has, vals[rows, col], 0.0), eligible


def _log(v: float) -> float:
    return math.log(v) if v > 0.0 else _NEG_INF


def choose_point(box, x0):
    """The point of a feasible box closest to x0: x0 clamped onto the box."""
    if box is None:
        raise ValueError("empty feasible box")
    return tuple(min(max(x, lo), hi) for x, (lo, hi) in zip(x0, box))


# a distance from its per-feature residuals w_j * |x_j - x0_j|; each is monotone in
# every residual, also in floating point
_MEASURES = {
    "l1": math.fsum,
    "l2": lambda residuals: math.sqrt(math.fsum(map(operator.mul, residuals, residuals))),
    "linf": lambda residuals: max(residuals, default=0.0),
}
# residual vectors whose leaf distances one min_distance solve keeps before it starts
# over. Measured on a shared 2-core x86 host: at 256 the 51-tree ladder solves run as
# fast as with no bound, and the 101-tree solve's peak RSS at a 20 s limit grows by 12 MB,
# against 37 MB with no bound; at 16, r51 runs some 10% slower
_CACHED_RESIDUALS = 256
# an upper bound on the distance of max(r, l) from the distances of r and l (see
# solve_min_distance's vote bound); exact for linf
_UPPER_BOUNDS = {"l1": operator.add, "l2": math.hypot, "linf": max}


def _sure_below(score: float) -> float:
    """What an upper bound must stay under for its distance to be surely below score:
    score less a margin of 2**-48 relative, some 30 ulps of the bound's rounding. An
    infinite score gets 0.0, which no bound is below: near overflow, a finite bound does
    not show that the distance stays finite."""
    return score * (1.0 - 2.0 ** -48) if score < math.inf else 0.0


def _distance(x0, x, weights, kind: str) -> float:
    return _MEASURES[kind]([w * abs(a - b) for w, a, b in zip(weights, x, x0)])


def _distance_weights(forest: Forest, config: SolverConfig) -> tuple[float, ...]:
    if config.distance_weights is None:
        return tuple(1.0 for _ in range(forest.num_features))
    return config.distance_weights


def _check_problem(forest: Forest, instance: ProblemInstance, table, config: SolverConfig) -> None:
    """The input rules shared by every solve, pinned solve and oracle call."""
    if len(instance.x0) != forest.num_features:
        raise ValueError("x0 has the wrong dimension")
    for x, (lo, hi) in zip(instance.x0, forest.domains):
        if not lo <= x <= hi:
            raise ValueError(f"x0 value {x} outside feature domain [{lo}, {hi}]")
    if config.objective == MIN_DISTANCE:
        if len(_distance_weights(forest, config)) != forest.num_features:
            raise ValueError("distance_weights length must equal the feature count")
        return
    if table is None:
        raise ValueError("probabilistic objectives need a probability table")
    if not forest.equal_weights():
        raise ValueError("probabilistic objectives require equal tree weights")
    if table.E < instance.E:
        raise ValueError(f"table covers effort levels 0..{table.E}, instance needs {instance.E}")
    table.validate_against(forest)


def _add_up(cur_log: float, logs) -> float:
    """cur_log plus these log values, added one at a time in the order given."""
    for log_value in logs:
        cur_log += log_value
    return cur_log


def _swapped_at_most(cut, bound, best, cur_log, log_value, rest) -> bool:
    """Is ``_add_up(cur_log + log_value, rest) <= cut``, for bound ``_add_up(cur_log, [best]
    + rest)`` and ``log_value < best``? All terms and cut are at most 0.0, so with q =
    len(rest) + 1 additions ``bound - best + log_value`` lies within (2q + 2) * 2**-53
    times itself of the sum; a slack of (q + 3) * 2**-52 also covers the rounding of
    ``cut * (1 +- slack)``, and only between the two is the sum taken."""
    approx = bound - best + log_value
    slack = (len(rest) + 4) * 2.0 ** -52
    return approx < cut * (1.0 + slack) or (approx <= cut * (1.0 - slack)
                                            and _add_up(cur_log + log_value, rest) <= cut)


def _exp(log_value: float) -> float:
    return math.exp(log_value) if log_value > _NEG_INF else 0.0


class _Run:
    """One solve's record: its clock, node count and incumbent, and the one place its
    Solution is built.

    A search calls ``check()`` per node, ``clock()`` between longer steps and ``keep(...)``
    per incumbent update. The incumbent's score is its log probability, or its distance.
    """

    def __init__(self, forest, instance, config, box):
        self.forest = forest
        self.x0 = instance.x0
        self.box = box   # box(t, leaf_id): the leaf boxes the search's answer is built from
        self.min_distance = config.objective == MIN_DISTANCE
        self.start = time.monotonic()
        self.deadline = None if config.time_limit is None else self.start + config.time_limit
        self.ticks = 0
        self.nodes = 0
        self.score = None
        self.best = None  # (leaves {tree: leaf}, effort, per-tree values {essential tree: value})

    def check(self):
        self.ticks += 1
        if self.deadline is not None and (self.ticks == 1 or self.ticks % 512 == 0):
            self.clock()

    def clock(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Timeout

    def keep(self, score, leaves, effort=None, values=None):
        self.score = score
        self.best = (leaves, effort, values)

    def finish(self, search) -> Solution:
        """Run search(self) to completion or to the time limit; the incumbent becomes the Solution."""
        try:
            search(self)
            status = "optimal" if self.best is not None else "infeasible"
        except _Timeout:
            status = "timeout"
        content = {}
        if self.best is not None:
            leaves, effort, values = self.best   # their box is built here, once
            box = boxes_intersect([self.box(t, leaf) for t, leaf in leaves.items()]
                                  or [self.forest.domains])   # no leaf: x0 wins as it is
            x = choose_point(box, self.x0)
            for t, tree in enumerate(self.forest.trees):
                if t not in leaves:
                    leaves[t] = leaf_of(tree, x)
            if self.min_distance:
                effort, values = tuple(0 for _ in range(self.forest.num_features)), {}
            content = dict(
                objective=self.score if self.min_distance else _exp(self.score),
                log_objective=None if self.min_distance else self.score,
                effort=effort,
                chosen_leaves=leaves,
                essential_trees=tuple(sorted(values)),
                per_tree_value=values,
                x=x,
                feasible_box=box,
            )
        return Solution(status=status, nodes_explored=self.nodes,
                        wall_time=time.monotonic() - self.start, **content)


def _score_pairs(forest, target, prob, slot, tree, config, check):
    """Per pair, as arrays: the tree's value, whether it can vote target, and its log
    value (-inf if it cannot; ``math.log``'s, once per distinct value past ``_FEW_PAIRS``
    pairs), by ``_tree_values`` on the pair's row of ``slot`` into the leaf products
    ``prob``; pair p is one of tree ``tree[p]``, whose target leaves are ``target[t]``.
    ``_SCORE_BLOCK`` pairs at a time, calling ``check()`` before each block."""
    n_leaves = np.array([len(t.leaves) for t in forest.trees], dtype=np.intp)
    n_target = np.array([len(ids) for ids in target], dtype=np.intp)
    kappas = np.array([_resolve_kappa(config, n) for n in n_leaves.tolist()], dtype=np.intp)
    value = np.empty(len(tree))
    eligible = np.empty(len(tree), dtype=bool)
    for a in range(0, len(tree), _SCORE_BLOCK):
        check()
        block = slice(a, a + _SCORE_BLOCK)
        trees = tree[block]
        value[block], eligible[block] = _tree_values(prob, slot[block], n_target[trees],
                                                     n_leaves[trees], kappas[trees], config)
    keys, inverse = np.where(eligible, value, 0.0), None
    if len(keys) > _FEW_PAIRS:
        keys, inverse = np.unique(keys, return_inverse=True)
    log = np.array([_log(v) for v in keys.tolist()], dtype=float)
    return value, eligible, log if inverse is None else log[inverse.reshape(-1)]


def _bounds(pair, indices, scores, m):
    """The (bound, index) pairs of the allocations at ``indices`` with at least m trees that
    can vote target, best bound first, ties to the lower index; ``pair[a, t]`` is the pair
    of allocation a and tree t, and ``scores`` are the pairs' from ``_score_pairs``.

    A bound is the m best per-tree log values added best first, the allocation cut's
    bound: the logs are sorted per allocation and added a column at a time, elementwise
    in float64, so each bound is bit-for-bit ``_add_up(0.0, best logs)``. A tree that
    cannot vote target has log -inf; it can displace only a log -inf, so the sum is the
    same.
    """
    _, eligible, log = scores
    pair = pair[indices]
    logs = log.take(pair)
    logs.sort(axis=1)
    bound = np.zeros(len(indices))
    for k in range(1, m + 1):
        bound += logs[:, -k]
    keep = np.flatnonzero(eligible.take(pair).sum(axis=1) >= m)
    keep = keep[np.lexsort((keep, -bound[keep]))]
    return list(zip(bound[keep].tolist(), indices[keep].tolist()))


def _solve_path(forest, instance, table, config, pinned=None) -> Solution:
    """Best max/min/kappa path solution over every allocation, or over the pinned effort only."""
    if config.objective not in (MAX_PATH, MIN_PATH, KAPPA_PATH):
        raise ValueError("probabilistic search needs a path objective")
    _check_problem(forest, instance, table, config)
    # only target-class leaves bind table rows: the other leaves enter the per-tree
    # values as 1.0 caps, never through a path product
    paths = forest.target_paths(instance.target_class)
    target = paths.leaves
    plan = forest.scoring_plan(instance.target_class, instance.E, instance.eta)
    allocations, pair, slot = plan.allocations, plan.pair, plan.slot
    if pinned is None:
        indices = np.arange(len(allocations))
    elif tuple(pinned) in allocations:
        indices = np.array([allocations.index(tuple(pinned))])
    else:
        raise ValueError(f"effort {tuple(pinned)} is not an allocation of the instance")
    prob = _path_products(table, paths, instance.E, plan.step)   # per leaf signature
    m = majority_threshold(forest.num_trees)
    geometry = forest.leaf_geometry(instance.epsilon)
    bit, compatible = geometry.bit, geometry.compatible
    # per tree, the bits of its target leaves (its candidates): the tree can still vote
    # target iff the running ``allowed`` meets this mask
    target_mask = forest.target_masks(instance.target_class, instance.epsilon)

    def search_allocation(index, cut, run, scores):
        """Search one allocation, keeping only plans that score above ``cut`` (None: any)."""
        effort = allocations[index]
        pair_ids = pair[index]
        tree_value, tree_eligible, tree_log = (a[pair_ids].tolist() for a in scores)
        values = {t: v for t, (v, ok) in enumerate(zip(tree_value, tree_eligible)) if ok}
        order = sorted(values, key=lambda t: (-values[t], t))
        best_log = [tree_log[t] for t in order]
        n = len(order)
        masks = [target_mask[t] for t in order]

        def forward_check(i, need, allowed, total, logs):
            """Extend logs, the best log values of the first trees with an allowed leaf
            found so far, and total, cur_log plus logs added one at a time, by those of such
            trees from position i on until logs holds need: (the last one's position, logs,
            total), or None if too few trees have one or if total is not above the cut."""
            for j in range(i, n):
                if allowed & masks[j]:
                    log_value = best_log[j]
                    logs.append(log_value)
                    total += log_value
                    if len(logs) == need:
                        return (j, logs, total) if cut is None or total > cut else None
            return None

        # later[i]: the bits of the candidate leaves of the trees after position i, the
        # only bits the search below position i still reads
        later = [0] * n
        for i in range(n - 1, 0, -1):
            later[i - 1] = later[i] | masks[i]
        # per tree, its candidates as (value, log value, leaf, its bit, its compatible leaves):
        # max_path by (-p, leaf), the others by leaf id; built when the search
        # first reaches the tree, so only trees the search visits are sorted and logged
        cands = [None] * n
        chosen: list[tuple[int, int, float]] = []

        def dfs(i, k, allowed, cur_log, known=None):
            nonlocal cut
            run.nodes += 1
            run.check()
            if k == m:
                if cut is None or cur_log > cut:
                    run.keep(cur_log, {t: leaf for t, leaf, _ in chosen}, effort,
                             {t: v for t, _, v in chosen})
                    cut = cur_log   # in one allocation, the first plan visited wins a tie
                return
            if known is None:
                found = forward_check(i, m - k, allowed, cur_log, [])
            else:   # a skip child's check starts with its parent's, less the parent's first tree
                last, rest = known
                found = forward_check(last + 1, m - k, allowed, _add_up(cur_log, rest), rest)
            if found is None:
                return
            last, logs, bound = found
            while not allowed & masks[i]:
                i += 1   # a tree with no allowed leaf left can only be passed over
            t = order[i]
            if cands[i] is None:
                if config.objective == MAX_PATH:   # its leaves' products, read through slot
                    negated = (-prob[slot[pair_ids[t], :len(target[t])]]).tolist()
                    pairs = [(-q, _log(-q), leaf) for q, leaf in sorted(zip(negated, target[t]))]
                else:   # each candidate has the tree's value
                    pairs = zip(itertools.repeat(values[t]), itertools.repeat(best_log[i]), target[t])
                cands[i] = [(v, log_value, leaf, bit[t][leaf], compatible[t][leaf])
                            for v, log_value, leaf in pairs]
            best, rest = logs[0], logs[1:]   # logs[0] is tree i's own best value
            left_open = []   # what each sibling tried so far leaves open
            for value, log_value, leaf, leaf_bit, leaf_compatible in cands[i]:
                # cur_log + log_value + rest, added one at a time, is bound for the best value
                if cut is not None and (bound <= cut if log_value == best else _swapped_at_most(
                        cut, bound, best, cur_log, log_value, rest)):
                    break  # candidates sorted by value: the rest can only do worse
                if not allowed & leaf_bit:
                    continue
                child = allowed & leaf_compatible & later[i]
                for seen in left_open:
                    if child | seen == seen:
                        break  # an earlier sibling, no lower in value, left all of this open
                else:
                    left_open.append(child)
                    chosen.append((t, leaf, value))
                    dfs(i + 1, k + 1, child, cur_log + log_value)
                    chosen.pop()
            dfs(i + 1, k, allowed, cur_log, (last, rest))   # rest is not read here again

        dfs(0, 0, -1, 0.0)  # -1 has every bit set: no leaf is excluded yet
        del dfs   # it refers to itself: drop the cycle so the candidate lists are freed now

    def search(run):
        scores = _score_pairs(forest, target, prob, slot, plan.tree, config, run.clock)
        scored = _bounds(pair, indices, scores, m)
        if not scored:
            return
        top = scored[0][0]
        # the lowest finite bound; with none, the first pass is the last
        lowest = min((b for b, _ in scored if b > _NEG_INF), default=math.inf)
        best_index = None   # the incumbent's allocation
        for k in itertools.count(1):
            threshold = top - k * STEP
            if threshold < lowest:
                threshold = None   # the last pass: no threshold, a plan at log -inf counts too
            for bound, index in scored:
                if threshold is not None and bound <= threshold:
                    break
                if run.best is None:
                    cut = threshold
                elif index > best_index:
                    cut = run.score
                else:   # a lower index wins a tie: a plan equal to the incumbent replaces it
                    cut = math.nextafter(run.score, _NEG_INF) if run.score > _NEG_INF else None
                if cut is None or bound > cut:
                    before = run.best
                    search_allocation(index, cut, run, scores)
                    if run.best is not before:
                        best_index = index
            if run.best is not None or threshold is None:
                return

    return _Run(forest, instance, config, geometry.box).finish(search)


def solve_max_path(forest, instance, table, config=None) -> Solution:
    return _solve_path(forest, instance, table, _with_objective(config, MAX_PATH))


def solve_min_path(forest, instance, table, config=None) -> Solution:
    return _solve_path(forest, instance, table, _with_objective(config, MIN_PATH))


def solve_kappa_path(forest, instance, table, config=None) -> Solution:
    return _solve_path(forest, instance, table, _with_objective(config, KAPPA_PATH))


def evaluate_allocation(forest, instance, table, config, effort) -> Solution:
    """Solve with the effort vector pinned (diagnostics and golden tests)."""
    return _solve_path(forest, instance, table, config, pinned=effort)


def _with_objective(config, objective):
    if config is None:
        return SolverConfig(objective=objective)
    if config.objective != objective:
        raise ValueError(f"config.objective is {config.objective!r}, expected {objective!r}")
    return config


def solve(forest, instance, table=None, config=None) -> Solution:
    config = config or SolverConfig()
    if config.objective == MIN_DISTANCE:
        return solve_min_distance(forest, instance, config)
    return _solve_path(forest, instance, table, config)


# --- min-distance -----------------------------------------------------------


def _leaf_residuals(geometry, x0, weights):
    """Per tree, {leaf_id: the leaf box's residuals ``w_j * |clamp(x0_j, lo_j, hi_j) - x0_j|``},
    from one numpy pass over the leaf boxes; numpy's clip, subtraction, abs and product
    round as the scalar clamp and ``_distance`` do."""
    x = np.array(x0, dtype=float)
    gaps = np.abs(np.clip(x, geometry.lo, geometry.hi) - x)
    rows = iter((np.array(weights, dtype=float) * gaps).tolist())   # bit order, tree by tree
    return [{leaf_id: tuple(next(rows)) for leaf_id in tree_bits} for tree_bits in geometry.bit]


def solve_min_distance(forest, instance, config=None) -> Solution:
    """Closest point (weighted L1/L2/Linf) classified into the target class.

    A vote-set search (as in the counterfactual MILPs of Kantchelian et al.,
    ICML 2016, and Parmentier & Vidal, ICML 2021). x is classified target iff
    the trees voting target at x win the vote, each class's weights summed in
    tree order as ``Forest.vote`` sums them. So the optimum is a minimum over
    the tree sets S that win with every other tree voting against: the
    distance from x0 to the meet of one target leaf per tree of S, onto which
    x0 is clamped. ``_Run.finish`` gives each tree outside S the leaf holding
    x; one voting target there only helps. Trees are visited by index; each
    tries its allowed target leaves (the bitsets keep the chosen boxes
    meeting), nearest child first, ties to the lower leaf id, then a skip,
    which counts against (see Gaps). Ties keep the first optimum in that order.

    * Skip rule: no skip when an allowed target leaf of the tree adds no
      residual and removes no later tree's target leaf from ``allowed``; its
      child has the skip's residuals and candidates and one more vote.
    * Stop rule: a node whose target weight wins against its other-class
      weight plus the weights of the trees not yet visited, added in tree
      order, keeps its plan; a further leaf could only add residuals.
    * Gaps: a point strictly between a split's threshold - epsilon and its
      threshold lies in no leaf box below the split. Where a gap can hold a
      plan's point (a leaf bound or a coordinate of x0 lies in one,
      ``Forest.split_gaps``), no tree is skipped: after its target leaves it
      votes against from each allowed leaf of its own, since a skipped tree
      could need a leaf the skip rule's free leaf excludes; and the stop
      rule holds only if every tree left holds the point in a leaf box,
      else the search goes on.

    The search carries residuals, not boxes: a box's residual on feature j is
    ``w_j * |clamp(x0_j, lo_j, hi_j) - x0_j|`` and its distance their fsum,
    sqrt of fsum of squares, or max (``_MEASURES``). Residual lemma: for boxes
    that meet, the residuals of their intersection are the elementwise max of
    theirs, bit for bit, since meeting boxes cannot leave x0_j below one and
    above another, and the rounding of ``- x0_j`` and ``* w_j`` (``w_j >= 0``)
    is monotone. A node is cut when no completion can be strictly nearer than
    the incumbent:

    * Distance bound: the node's distance; residuals only grow, and each
      measure is monotone in floating point.
    * Vote bound, once the stop rule has not fired: the remaining trees with an
      allowed target leaf that, maxed with the node's residuals, is nearer
      than the incumbent go to the target sum, the others to the other-class
      sum. Adding a nonnegative weight never lowers a float sum, so if this
      split does not win, no completion does. ``total - w`` stands in for a
      sum only to skip a cut. A tree's target leaves are scanned nearest
      first by own distance, each allowed one tested in this order:
      - Lower bound: a leaf whose own distance reaches the incumbent ends the
        scan; so does every later leaf.
      - Upper bound: elementwise ``max(r, l) <= r + l``, so the distance of
        the maxed residuals is at most ``dist + own`` for L1, ``hypot(dist,
        own)`` for L2 (both taken over the same rounded squares) and
        ``max(dist, own)`` for Linf, where it is exact. Each of these is
        within a few ulps of the exact bound, as are the correctly rounded
        fsum and sqrt of the measure, so a bound below ``_sure_below(score)``,
        the incumbent less 2**-48 relative, puts the leaf surely nearer than
        the incumbent unmeasured. Overflow makes the bound infinite, and
        nothing is sure below an infinite incumbent.
      - Otherwise the leaf's maxed residuals are measured.

    Each (residual vector, leaf) pair is measured at most once per solve:
    ``cache`` maps a node's residuals to ``{(tree, leaf id): (distance, maxed
    residuals)}``, which the vote bound and ``children`` (target and gap
    branches) read and fill. A child gets the stored tuple, so its own
    lookups hit by identity. The cache is local to the solve, and starts
    over once it holds ``_CACHED_RESIDUALS`` residual vectors.
    """
    config = _with_objective(config, MIN_DISTANCE)
    _check_problem(forest, instance, None, config)
    weights = _distance_weights(forest, config)
    measure, upper = _MEASURES[config.distance], _UPPER_BOUNDS[config.distance]
    x0, target = instance.x0, instance.target_class
    geometry = forest.leaf_geometry(instance.epsilon)
    bit, compatible = geometry.bit, geometry.compatible
    R = forest.num_trees
    tree_weights = [tree.weight for tree in forest.trees]
    total = sum(tree_weights)
    residuals = _leaf_residuals(geometry, x0, weights)
    # whether a plan's point can lie in a gap, where it would need a leaf of a tree outside it
    gaps = forest.split_gaps(instance.epsilon)
    gappy = gaps.crowded or gaps.in_gap(x0)

    def leaves(votes):
        """Per tree, its leaves voting target if ``votes``, else the others, as (own
        distance, (tree, leaf id), bit, residuals), nearest first."""
        return [sorted((measure(res), (u, leaf_id), bit[u][leaf_id], res)
                       for leaf_id, res in residuals[u].items()
                       if (tree.leaves[leaf_id].predicted_class == target) == votes)
                for u, tree in enumerate(forest.trees)]

    target_leaves = leaves(True)
    other_leaves = leaves(False) if gappy else None
    # later[t]: the bits of the target leaves of the trees after t
    masks = forest.target_masks(target, instance.epsilon)
    later = list(itertools.accumulate(masks[:0:-1], operator.or_, initial=0))[::-1]
    chosen: list[tuple[int, int]] = []
    cache: dict[tuple, dict] = {}   # residuals -> {(tree, leaf id): (distance, maxed residuals)}

    def known_from(res):
        """The cache's record for res, a new one if it holds none; a full cache starts over."""
        known = cache.get(res)
        if known is None:
            if len(cache) >= _CACHED_RESIDUALS:
                cache.clear()
            known = cache[res] = {}
        return known

    def maxed(known, key, res, leaf_res):
        """(distance, residuals) of the leaf ``key`` maxed with res, measured once."""
        pair = known.get(key)
        if pair is None:
            child = tuple(map(max, res, leaf_res))
            pair = known[key] = (measure(child), child)
        return pair

    def children(leaves, res, known, allowed):
        """(distance, leaf id, residuals) per allowed leaf of ``leaves``, maxed with res;
        nearest first, then by leaf id."""
        return sorted((dist, key[1], child) for _, key, leaf_bit, leaf_res in leaves
                      if allowed & leaf_bit for dist, child in [maxed(known, key, res, leaf_res)])

    def lands(t):
        """Does the plan's point lie in a leaf box of every tree from t on?"""
        x = choose_point(boxes_intersect([geometry.box(*pair) for pair in chosen]
                                         or [forest.domains]), x0)
        return all(_intersect(geometry.box(u, leaf_of(forest.trees[u], x)), zip(x, x)) is not None
                   for u in range(t, R))

    def could_vote(run, u, res, dist, known, allowed, sure):
        """Has tree u an allowed target leaf that, maxed with the node's residuals (at
        distance dist), is closer to x0 than the incumbent? ``sure`` is
        ``_sure_below(run.score)``; a leaf is measured only where the bounds do not tell."""
        if run.best is None:
            return any(allowed & leaf_bit for _, _, leaf_bit, _ in target_leaves[u])
        score = run.score
        for own, key, leaf_bit, leaf_res in target_leaves[u]:
            if own >= score:
                return False   # this leaf and every later one is at least as far
            if allowed & leaf_bit and (upper(dist, own) < sure
                                       or maxed(known, key, res, leaf_res)[0] < score):
                return True
        return False

    def dfs(run, t, res, allowed, w_target, w_other, dist):
        run.nodes += 1
        run.check()
        if run.best is not None and dist >= run.score:
            return
        if _target_wins(w_target, functools.reduce(operator.add, tree_weights[t:], w_other),
                        target) and (not gappy or lands(t)):
            run.keep(dist, dict(chosen))   # won, even if every tree left votes against
            return
        if t == R:
            return
        # target votes (or where a gap holds the point, leaves) are missing: split the
        # remaining trees into those that can still vote target closer to x0 than the
        # incumbent and the rest
        known = known_from(res)
        sure = _sure_below(run.score) if run.best is not None else None
        w, w_rest = w_target, w_other
        for u in range(t, R):
            if could_vote(run, u, res, dist, known, allowed, sure):
                w += tree_weights[u]
                if _target_wins(w, total - w, target):
                    break
            else:
                w_rest += tree_weights[u]
        else:
            if not _target_wins(w, w_rest, target):
                return
        targets = children(target_leaves[t], res, known, allowed)
        weight = tree_weights[t]
        for child_dist, leaf_id, child in targets:
            chosen.append((t, leaf_id))
            dfs(run, t + 1, child, allowed & compatible[t][leaf_id], w_target + weight,
                w_other, child_dist)
            chosen.pop()
        if gappy:   # a gap can hold the point: the tree votes against from a leaf of its own
            for child_dist, leaf_id, child in children(other_leaves[t], res, known, allowed):
                chosen.append((t, leaf_id))
                dfs(run, t + 1, child, allowed & compatible[t][leaf_id], w_target,
                    w_other + weight, child_dist)
                chosen.pop()
        # or it is skipped, unless a leaf with the skip's residuals and later candidates
        # does all the skip does
        elif not any(child == res and not allowed & later[t] & ~compatible[t][leaf_id]
                     for _, leaf_id, child in targets):
            dfs(run, t + 1, res, allowed, w_target, w_other + weight, dist)

    root_res = tuple(w * 0.0 for w in weights)   # x0 lies in the domains
    solution = _Run(forest, instance, config, geometry.box).finish(
        lambda run: dfs(run, 0, root_res, -1, 0.0, 0.0, measure(root_res)))
    del dfs   # it refers to itself: drop the cycle so the residuals are freed now, not by a gc
    return solution


# --- verification ---------------------------------------------------------------


def objectives_close(a, b, tol: float = 1e-9) -> bool:
    """Equality up to ``tol``: in log space when both values are positive, so that a
    path objective of 1e-13 is not matched by one ten times smaller; in linear space
    otherwise (an objective of 0.0)."""
    if a is None or b is None:
        return a is b
    if a == b:
        return True
    if a > 0 and b > 0:
        return abs(math.log(a) - math.log(b)) <= tol
    return abs(a - b) <= tol


def verify_solution(forest, instance, table, solution, config) -> Verdict:
    """Recompute every requirement of a solution from scratch."""
    failures = []
    if not solution.found:
        return Verdict(False, ["no solution content to verify"])
    d = forest.num_features
    effort = solution.effort
    if effort is None or len(effort) != d:
        return Verdict(False, ["effort vector missing or wrong length"])
    if sum(effort) > instance.eta:
        failures.append("effort budget")
    if any(not 0 <= e <= instance.E for e in effort):
        failures.append("effort level bounds")
    if any(e > 0 and not forest.feature_metas[j].mutable for j, e in enumerate(effort)):
        failures.append("effort on immutable feature")

    x = solution.x
    if len(x) != d:
        failures.append("point dimension")
        return Verdict(False, failures)
    leaves = solution.chosen_leaves or {}
    if set(leaves) != set(range(forest.num_trees)):
        failures.append("leaf assignment incomplete")
        return Verdict(False, failures)
    unknown = [f"unknown leaf (tree {t})" for t, tree in enumerate(forest.trees)
               if leaves[t] not in tree.leaves]
    if unknown:
        return Verdict(False, failures + unknown)
    for t, tree in enumerate(forest.trees):
        if leaf_of(tree, x) != leaves[t]:
            failures.append(f"leaf assignment (tree {t})")

    essential = solution.essential_trees or ()
    if any(not 0 <= t < forest.num_trees for t in essential):
        failures.append("essential tree out of range")
        return Verdict(False, failures)
    if len(set(essential)) != len(essential):
        failures.append("essential tree repeated")
    box_trees = essential if config.objective != MIN_DISTANCE else tuple(range(forest.num_trees))
    tol = 1e-12
    geometry = forest.leaf_geometry(instance.epsilon)
    member_boxes = []
    for t in box_trees:
        box = geometry.box(t, leaves[t])
        member_boxes.append(box)
        if any(not lo - tol <= x[j] <= hi + tol for j, (lo, hi) in enumerate(box)):
            failures.append(f"box intersection (tree {t})")
    if member_boxes and boxes_intersect(member_boxes) is None:
        failures.append("box intersection")

    votes = [forest.trees[t].leaves[leaves[t]].predicted_class for t in range(forest.num_trees)]
    if config.objective == MIN_DISTANCE:
        if forest.vote(votes) != instance.target_class:
            failures.append("majority")
    else:
        positives = sum(1 for v in votes if v == instance.target_class)
        if positives < majority_threshold(forest.num_trees):
            failures.append("majority")
        if len(essential) != majority_threshold(forest.num_trees):
            failures.append("essential set size")
        if any(votes[t] != instance.target_class for t in essential):
            failures.append("essential tree votes off-target")
    if forest.predict(x)[0] != instance.target_class:
        failures.append("prediction at x")

    if config.objective == MIN_DISTANCE:
        recomputed = _distance(instance.x0, x, _distance_weights(forest, config), config.distance)
        if not objectives_close(recomputed, solution.objective):
            failures.append("objective mismatch")
    elif "effort level bounds" not in failures:  # the table has no entry at such a level
        positive = [{leaf_id: path_probability(forest, t, leaf_id, table, effort)
                     for leaf_id, leaf in forest.trees[t].leaves.items()
                     if leaf.predicted_class == instance.target_class} for t in essential]
        n_leaves = [len(forest.trees[t].leaves) for t in essential]
        counts = np.array([len(probs) for probs in positive], dtype=np.intp)
        values, eligible = _tree_values(
            np.array([p for probs in positive for p in probs.values()], dtype=float),
            _consecutive_slots(counts), counts, np.array(n_leaves, dtype=np.intp),
            np.array([_resolve_kappa(config, n) for n in n_leaves], dtype=np.intp), config)
        logs = []
        for t, probs, value, ok in zip(essential, positive, values.tolist(), eligible.tolist()):
            if config.objective == MAX_PATH:
                value = probs.get(leaves[t], 0.0)
            if config.objective == KAPPA_PATH and not ok:
                failures.append(f"mu eligibility (tree {t})")
            logs.append(_log(value))
        recomputed = _exp(math.fsum(logs))
        if not objectives_close(recomputed, solution.objective):
            failures.append("objective mismatch")

    return Verdict(not failures, failures)
