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
features on the tree's target paths, so the forest's scoring plan
(``Forest.scoring_plan``) groups the allocations per tree by that signature,
and a solve scores each distinct (tree, signature) pair once: one gather of
its leaves' path probabilities (``_path_products``), a block of pairs at a
time, then ``_tree_value`` and ``math.log`` on each pair (``_score_pairs``).
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
their bitsets, and the joint box is built only for an incumbent. All
accumulation happens in log space. Every cut below drops only subtrees with
no plan that the threshold and the tie rule would keep, so it changes the
nodes explored, never the answer:

* Forward check: a remaining tree counts toward the bound only if ``allowed``
  still meets its target leaves. If fewer than the missing votes remain, the
  node is cut; otherwise the bound adds the best log values of the first
  qualifying trees to the running log one at a time, in visit order; at the
  root that is the allocation's bound. A completion adds, in the same order,
  values no higher term by term, and rounding is monotone, so the bound never
  rounds below a completion's sum and needs no tolerance.
* Sibling dominance: what a candidate leaves open is ``allowed`` ANDed with
  its bitset, restricted to the candidate leaves of the trees after it. A
  candidate that leaves open a subset of what an earlier-tried sibling left
  open is skipped: that sibling's value is no lower, so each completion of
  the skipped one is matched, term by term, by a completion visited earlier.
* ``solve_min_distance`` has its own distance and vote-counting bounds. It
  carries per-feature residuals down its DFS instead of boxes; the residual
  lemma in its docstring is why every distance it compares is the one of the
  intersected box, bit for bit.
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
                     boxes_intersect, enumerate_effort_allocations, leaf_box, leaf_of)
from .probability import NodeProbabilityTable

MAX_PATH = "max_path"
MIN_PATH = "min_path"
KAPPA_PATH = "kappa_path"
MIN_DISTANCE = "min_distance"
OBJECTIVES = (MAX_PATH, MIN_PATH, KAPPA_PATH, MIN_DISTANCE)

_NEG_INF = float("-inf")
ORACLE_CAP = 2_000_000   # most allocations x leaf combinations the exhaustive oracle walks
STEP = 1.0   # nats the path search's threshold falls per pass
_SCORE_BLOCK = 256   # (tree, signature) pairs gathered together when scoring allocations


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
    tree = forest.trees[tree_index]
    prob = 1.0
    for node_id, went_right in tree.paths[leaf_id]:
        node = tree.nodes[node_id]
        p = table.right_prob(tree_index, node_id, effort[node.feature])
        prob *= p if went_right else 1.0 - p
    return prob


def _path_products(table: NodeProbabilityTable, paths: TargetPaths):
    """A function of (tree, effort vector) pairs: per pair, the path probabilities of the
    tree's leaves in ``paths.leaves``, bit-for-bit ``path_probability``'s.

    ``q[l, k, e]`` is step k of leaf l's path at effort level e (``row[e]`` going right,
    ``1.0 - row[e]`` going left, 1.0 past the path's end), so a pair costs one gather
    and one product per step, root to leaf, over its tree's leaves. The paths are the
    forest's, built once per target class; only the table rows are gathered here.
    """
    width = table.E + 1
    rows = np.array([table.probs[key] for key in paths.nodes] + [(1.0,) * width], dtype=float)
    steps = rows[paths.node]
    q = np.where(paths.right[..., None], steps, 1.0 - steps).reshape(-1)
    feat = paths.feature
    base = np.arange(feat.size, dtype=np.intp).reshape(feat.shape) * width
    sizes = np.array([len(ids) for ids in paths.leaves], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes

    def probs(trees, efforts) -> list[list[float]]:
        trees = np.asarray(trees, dtype=np.intp)
        counts = sizes[trees]
        ends = np.cumsum(counts)
        pair = np.repeat(np.arange(len(trees)), counts)
        # gather row r is the pair's leaf number r - (the pair's first row), so its row in
        # the paths is that plus the first row of the pair's tree
        leaf = np.arange(len(pair)) + np.repeat(starts[trees] - (ends - counts), counts)
        steps = q[base[leaf] + np.asarray(efforts, dtype=np.intp)[pair[:, None], feat[leaf]]]
        prob = steps[:, 0].copy()
        for k in range(1, feat.shape[1]):
            prob *= steps[:, k]   # elementwise, in path order: no reduction reorders it
        flat = prob.tolist()
        return [flat[a:b] for a, b in itertools.pairwise([0] + ends.tolist())]

    return probs


def _resolve_kappa(config: SolverConfig, n_leaves: int) -> int:
    if config.kappa_fraction is not None:
        return max(1, math.ceil(config.kappa_fraction * n_leaves))
    return config.kappa


def _tree_value(positive_probs, n_leaves: int, kappa: int,
                config: SolverConfig) -> tuple[float | None, bool]:
    """One tree's (value, mu-eligible) from its target leaves' path probabilities, where
    ``kappa`` is the tree's ``_resolve_kappa(config, n_leaves)``.

    The other ``n_leaves - len(positive_probs)`` leaves carry the 1.0 cap in
    the theta vector; path probabilities never exceed 1, so appending the caps
    to the sorted target probabilities gives the sorted theta vector.
    """
    if not positive_probs:
        return None, False
    if config.objective == MIN_PATH:
        return min(positive_probs), True
    if config.objective != KAPPA_PATH:  # max_path: optimistic per-tree bound
        return max(positive_probs), True
    values = sorted(positive_probs)
    if not config.positive_leaves_only:
        values += [1.0] * (n_leaves - len(values))
    idx = min(kappa, len(values))
    return values[idx - 1], math.fsum(values[: idx - 1]) >= config.mu


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
    "l2": lambda residuals: math.sqrt(math.fsum(r * r for r in residuals)),
    "linf": lambda residuals: max(residuals, default=0.0),
}


def _distance(x0, x, weights, kind: str) -> float:
    return _MEASURES[kind]([w * abs(a - b) for w, a, b in zip(weights, x, x0)])


def _box_distance(x0, box, weights, kind: str) -> float:
    return _distance(x0, choose_point(box, x0), weights, kind)


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


def _allocations(forest: Forest, instance: ProblemInstance):
    """The instance's effort allocations: sum <= eta, levels 0..E, none on immutables."""
    mask = [m.mutable for m in forest.feature_metas]
    return enumerate_effort_allocations(forest.num_features, instance.E, instance.eta, mask)


def _add_up(cur_log: float, logs) -> float:
    """cur_log plus these log values, added one at a time in the order given."""
    for log_value in logs:
        cur_log += log_value
    return cur_log


def _exp(log_value: float) -> float:
    return math.exp(log_value) if log_value > _NEG_INF else 0.0


class _Run:
    """One solve's record: its clock, node count and incumbent, and the one place its
    Solution is built.

    A search calls ``check()`` per node and ``keep(...)`` per incumbent update. The
    incumbent's score is its log probability, or its distance for ``min_distance``.
    """

    def __init__(self, forest, instance, config):
        self.forest = forest
        self.x0 = instance.x0
        self.min_distance = config.objective == MIN_DISTANCE
        self.start = time.monotonic()
        self.deadline = None if config.time_limit is None else self.start + config.time_limit
        self.ticks = 0
        self.nodes = 0
        self.score = None
        self.best = None  # (leaves {tree: leaf}, box, effort, per-tree values {essential tree: value})

    def check(self):
        self.ticks += 1
        if self.deadline is not None and (self.ticks == 1 or self.ticks % 512 == 0):
            if time.monotonic() > self.deadline:
                raise _Timeout

    def keep(self, score, leaves, box, effort=None, values=None):
        self.score = score
        self.best = (leaves, box, effort, values)

    def finish(self, search) -> Solution:
        """Run search(self) to completion or to the time limit; the incumbent becomes the Solution."""
        try:
            search(self)
            status = "optimal" if self.best is not None else "infeasible"
        except _Timeout:
            status = "timeout"
        content = {}
        if self.best is not None:
            leaves, box, effort, values = self.best
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


def _score_pairs(forest, plan, leaf_probs, config, needed, check):
    """Per (tree, signature) pair of the plan: the tree's value, whether it can vote
    target, and then its log value (-inf if it cannot). Only the ``needed`` pairs are
    scored, a block of them per gather, calling ``check()`` before each block."""
    n_leaves = [len(tree.leaves) for tree in forest.trees]
    kappas = [_resolve_kappa(config, n) for n in n_leaves]
    value = [None] * len(plan.tree)
    eligible = [False] * len(plan.tree)
    log = [_NEG_INF] * len(plan.tree)
    for a in range(0, len(needed), _SCORE_BLOCK):
        check()
        block = needed[a:a + _SCORE_BLOCK]
        trees = plan.tree[block]
        for p, t, probs in zip(block.tolist(), trees.tolist(),
                               leaf_probs(trees, plan.effort[plan.first[block]])):
            value[p], eligible[p] = _tree_value(probs, n_leaves[t], kappas[t], config)
            if eligible[p]:
                log[p] = _log(value[p])
    return value, eligible, log


def _bounds(plan, indices, scores, m):
    """The (bound, index) pairs of the allocations at ``indices`` with at least m trees that
    can vote target, best bound first, ties to the lower index; ``scores`` are the pairs'
    from ``_score_pairs``.

    A bound is the m best per-tree log values added best first, the allocation cut's
    bound: the logs are sorted per allocation and added a column at a time, elementwise
    in float64, so each bound is bit-for-bit ``_add_up(0.0, best logs)``. A tree that
    cannot vote target has log -inf; it can displace only a log -inf, so the sum is the
    same.
    """
    _, eligible, log = scores
    pair = plan.pair[indices]
    logs = np.array(log)[pair]
    logs.sort(axis=1)
    bound = np.zeros(len(indices))
    for k in range(1, m + 1):
        bound += logs[:, -k]
    keep = np.flatnonzero(np.array(eligible)[pair].sum(axis=1) >= m)
    keep = keep[np.lexsort((keep, -bound[keep]))]
    return list(zip(bound[keep].tolist(), indices[keep].tolist()))


def _solve_path(forest, instance, table, config, pinned=None) -> Solution:
    """Best max/min/kappa path solution over every allocation, or over the pinned effort only."""
    if config.objective not in (MAX_PATH, MIN_PATH, KAPPA_PATH):
        raise ValueError("probabilistic search needs a path objective")
    _check_problem(forest, instance, table, config)
    plan = forest.scoring_plan(instance.target_class, instance.E, instance.eta)
    allocations = plan.allocations
    if pinned is None:
        indices = np.arange(len(allocations))
    else:
        pinned = tuple(pinned)
        indices = np.array([i for i, a in enumerate(allocations) if a == pinned], dtype=np.intp)
        if not indices.size:
            raise ValueError(f"effort {pinned} is not an allocation of the instance")
    m = majority_threshold(forest.num_trees)
    geometry = forest.leaf_geometry(instance.epsilon)
    bit, compatible = geometry.bit, geometry.compatible
    # only target-class leaves bind table rows: the other leaves enter the per-tree
    # values as 1.0 caps, never through a path product
    paths = forest.target_paths(instance.target_class)
    target = paths.leaves
    leaf_probs = _path_products(table, paths)
    # per tree, the bits of its target leaves (its candidates): the tree can still vote
    # target iff the running ``allowed`` meets this mask
    target_mask = [sum(bit[t][leaf] for leaf in target[t]) for t in range(forest.num_trees)]

    def search_allocation(index, cut, run, scores):
        """Search one allocation, keeping only plans that score above ``cut`` (None: any)."""
        pair_value, pair_eligible, pair_log = scores
        effort = allocations[index]
        pair_ids = plan.pair[index].tolist()
        values = {t: pair_value[p] for t, p in enumerate(pair_ids) if pair_eligible[p]}
        order = sorted(values, key=lambda t: (-values[t], t))
        best_log = [pair_log[pair_ids[t]] for t in order]
        if config.objective == MAX_PATH:
            probs = leaf_probs(range(forest.num_trees), [effort] * forest.num_trees)
        n = len(order)
        masks = [target_mask[t] for t in order]
        rows = list(zip(masks, best_log))

        def forward_check(i, need, allowed, cur_log):
            """The best log values of the first ``need`` trees from position i that still
            have an allowed leaf, or None if fewer trees have one or if cur_log plus those
            values, added one at a time, is not above the cut."""
            logs = []
            for mask, log_value in itertools.islice(rows, i, None):
                if allowed & mask:
                    logs.append(log_value)
                    cur_log += log_value
                    need -= 1
                    if not need:
                        return logs if cut is None or cur_log > cut else None
            return None

        # later[i]: the bits of the candidate leaves of the trees after position i, the
        # only bits the search below position i still reads
        later = [0] * n
        for i in range(n - 1, 0, -1):
            later[i - 1] = later[i] | masks[i]
        # per tree, its candidates as (value, log value, leaf, its bit, its compatible leaves):
        # max_path by (-p, leaf), the others (value, leaf) by leaf id; built when the search
        # first reaches the tree, so only trees the search visits are sorted and logged
        cands = [None] * n
        chosen: list[tuple[int, int, float]] = []

        def dfs(i, k, allowed, cur_log):
            nonlocal cut
            run.nodes += 1
            run.check()
            if k == m:
                if cut is None or cur_log > cut:
                    run.keep(cur_log, {t: leaf for t, leaf, _ in chosen},
                             boxes_intersect([geometry.boxes[t][leaf] for t, leaf, _ in chosen]),
                             effort, {t: v for t, _, v in chosen})
                    cut = cur_log   # in one allocation, the first plan visited wins a tie
                return
            logs = forward_check(i, m - k, allowed, cur_log)
            if logs is None:
                return
            while not allowed & masks[i]:
                i += 1   # a tree with no allowed leaf left can only be passed over
            t = order[i]
            if cands[i] is None:
                if config.objective == MAX_PATH:
                    pairs = sorted(zip(probs[t], target[t]), key=lambda c: (-c[0], c[1]))
                else:
                    pairs = [(values[t], leaf) for leaf in target[t]]
                cands[i] = [(v, _log(v), leaf, bit[t][leaf], compatible[t][leaf]) for v, leaf in pairs]
            rest = logs[1:]   # logs[0] is tree i's own best value
            left_open = []   # what each sibling tried so far leaves open
            for value, log_value, leaf, leaf_bit, leaf_compatible in cands[i]:
                if cut is not None and _add_up(cur_log + log_value, rest) <= cut:
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
            dfs(i + 1, k, allowed, cur_log)

        dfs(0, 0, -1, 0.0)  # -1 has every bit set: no leaf is excluded yet

    def search(run):
        # a pinned allocation needs only its own pairs, one per tree
        needed = np.arange(len(plan.tree)) if pinned is None else plan.pair[indices[0]]
        scores = _score_pairs(forest, plan, leaf_probs, config, needed, run.check)
        scored = _bounds(plan, indices, scores, m)
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

    return _Run(forest, instance, config).finish(search)


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


def _weighted_vote_ok(forest, votes, target) -> bool:
    w_target = sum(t.weight for t, v in zip(forest.trees, votes) if v == target)
    w_other = sum(t.weight for t, v in zip(forest.trees, votes) if v != target)
    return _target_wins(w_target, w_other, target)


def _leaf_residuals(geometry, x0, weights):
    """Per tree, {leaf_id: the leaf box's residuals ``w_j * |clamp(x0_j, lo_j, hi_j) - x0_j|``},
    from one numpy pass over the leaf boxes; numpy's clip, subtraction, abs and product
    round as the scalar clamp and ``_distance`` do."""
    x = np.array(x0, dtype=float)
    gaps = np.abs(np.clip(x, geometry.lo, geometry.hi) - x)
    rows = iter((np.array(weights, dtype=float) * gaps).tolist())   # bit order, tree by tree
    return [{leaf_id: tuple(next(rows)) for leaf_id in tree_boxes} for tree_boxes in geometry.boxes]


def solve_min_distance(forest, instance, config=None) -> Solution:
    """Closest point (weighted L1/L2/Linf) classified into the target class.

    Branch and bound over full leaf combinations, tree by tree, nearest child
    first. A leaf is tried only if the leaf bitsets allow it, so the chosen
    leaves' boxes always meet. x is the clamp of x0 onto the final box (the
    exact minimizer), and the box is built only for an incumbent.

    The search carries residuals, not boxes. A closed box's residual on
    feature j is ``w_j * |clamp(x0_j, lo_j, hi_j) - x0_j|``, and its distance
    is fsum, sqrt of fsum of squares, or max of the residuals
    (``_MEASURES``). Residual lemma: for boxes that meet, the residuals of
    their intersection are the elementwise max of theirs, bit for bit. Meeting
    boxes cannot leave x0_j below one box and above another, so the
    intersection's residual comes from its largest lower bound (or its
    smallest upper one), and the rounding of ``- x0_j`` and of ``* w_j`` (for
    ``w_j >= 0``) is monotone, so it commutes with that max. So each leaf's
    residuals are computed once per solve, a node's are the max of its
    parent's and its leaf's, and every distance below equals the one computed
    from the intersected box.

    A node is cut when no completion can be strictly nearer than the
    incumbent, so ties keep the first optimum visited:

    * Distance bound: the node's distance. Residuals only grow along the
      search, and each measure is monotone in floating point, so no
      completion's computed distance is lower.
    * Vote bound, while target votes are missing: a remaining tree can supply
      its vote only through an allowed target leaf, and the final residuals
      are at least the node's maxed with that leaf's. If the trees that have
      such a leaf nearer to x0 than the incumbent (any such leaf, without an
      incumbent) cannot make ``_target_wins`` true, the node is cut. A tree's
      target leaves are scanned nearest first by their own distance, which
      no maxed distance is below, so the scan stops at the first leaf that
      alone reaches the incumbent. The trees' weights are added in tree order
      from the running target weight, as the final vote adds them; adding a
      nonnegative weight never lowers a float sum, so no subset of them can
      win where all of them do not.
    """
    config = _with_objective(config, MIN_DISTANCE)
    _check_problem(forest, instance, None, config)
    weights = _distance_weights(forest, config)
    measure = _MEASURES[config.distance]
    x0, target = instance.x0, instance.target_class
    geometry = forest.leaf_geometry(instance.epsilon)
    boxes, bit, compatible = geometry.boxes, geometry.bit, geometry.compatible
    R = forest.num_trees
    total = 0.0
    for tree in reversed(forest.trees):
        total += tree.weight
    residuals = _leaf_residuals(geometry, x0, weights)
    # per tree, its target leaves as (own distance, bit, residuals), nearest first
    target_leaves = [sorted((measure(res), bit[u][leaf_id], res)
                            for leaf_id, res in residuals[u].items()
                            if tree.leaves[leaf_id].predicted_class == target)
                     for u, tree in enumerate(forest.trees)]
    root = [tuple(dom) for dom in forest.domains]
    combo: list[int] = []

    def could_vote(run, u, res, allowed):
        """Has tree u an allowed target leaf that, maxed with the node's residuals, is
        closer to x0 than the incumbent?"""
        for own, leaf_bit, leaf_res in target_leaves[u]:
            if run.best is not None and own >= run.score:
                return False   # this leaf and every later one is at least as far
            if allowed & leaf_bit and (run.best is None
                                       or measure(map(max, res, leaf_res)) < run.score):
                return True
        return False

    def dfs(run, t, res, allowed, w_target, dist):
        run.nodes += 1
        run.check()
        if run.best is not None and dist >= run.score:
            return
        if t == R:
            if _target_wins(w_target, total - w_target, target):
                run.keep(dist, dict(enumerate(combo)),
                         boxes_intersect([root] + [boxes[u][leaf] for u, leaf in enumerate(combo)]))
            return
        if not _target_wins(w_target, total - w_target, target):
            # target votes are missing: count the trees that can still vote target closer
            # to x0 than the incumbent, adding their weights in tree order like the final vote
            w = w_target
            for u in range(t, R):
                if could_vote(run, u, res, allowed):
                    w += forest.trees[u].weight
                    if _target_wins(w, total - w, target):
                        break
            else:
                return
        children = []
        for leaf_id, leaf in forest.trees[t].leaves.items():
            if not allowed & bit[t][leaf_id]:
                continue
            child = tuple(map(max, res, residuals[t][leaf_id]))
            children.append((measure(child), leaf_id, child, leaf))
        for child_dist, leaf_id, child, leaf in sorted(children, key=lambda c: (c[0], c[1])):
            combo.append(leaf_id)
            dfs(run, t + 1, child, allowed & compatible[t][leaf_id],
                w_target + (forest.trees[t].weight if leaf.predicted_class == target else 0.0),
                child_dist)
            combo.pop()

    root_res = tuple(w * 0.0 for w in weights)   # x0 lies in the domains
    solution = _Run(forest, instance, config).finish(
        lambda run: dfs(run, 0, root_res, -1, 0.0, measure(root_res)))
    del dfs   # it refers to itself: drop the cycle so the residuals are freed now, not by a gc
    return solution


# --- brute-force oracle -------------------------------------------------------


def brute_force_oracle(forest, instance, table, config) -> Solution:
    """Exhaustive reference: every allocation x every leaf combination.

    Reuses only the shared input check, value definitions (allocation
    enumeration, path products) and solve record; the search itself is a
    plain enumeration of full leaf combinations with empty-box skipping,
    recomputing objectives from their definitions at every complete
    combination. It has no time limit.
    """
    _check_problem(forest, instance, table, config)
    allocations = list(_allocations(forest, instance))
    combos = 1
    for tree in forest.trees:
        combos *= len(tree.leaves)
    if combos * len(allocations) > ORACLE_CAP:
        raise ValueError(f"oracle cap exceeded: {combos} combos x {len(allocations)} allocations")

    boxes = _oracle_boxes(forest, instance.epsilon)
    if config.objective == MIN_DISTANCE:
        walk = functools.partial(_oracle_min_distance, forest, instance, config, boxes)
    else:
        walk = functools.partial(_oracle_path, forest, instance, table, config, allocations, boxes)
    return _Run(forest, instance, config).finish(walk)


def _oracle_path(forest, instance, table, config, allocations, boxes, run) -> None:
    m = majority_threshold(forest.num_trees)
    target = instance.target_class
    for effort in allocations:
        # per-tree leaf probabilities and per-tree robust values, from definitions
        leafprob = [
            {leaf_id: path_probability(forest, t, leaf_id, table, effort)
             for leaf_id in tree.leaves}
            for t, tree in enumerate(forest.trees)
        ]
        tree_value, tree_eligible = [], []
        for t, tree in enumerate(forest.trees):
            pos = {l: p for l, p in leafprob[t].items()
                   if tree.leaves[l].predicted_class == target}
            if not pos:
                tree_value.append(None)
                tree_eligible.append(False)
                continue
            if config.objective == MIN_PATH:
                tree_value.append(min(pos.values()))
                tree_eligible.append(True)
            elif config.objective == KAPPA_PATH:
                theta = sorted(p if tree.leaves[l].predicted_class == target else 1.0
                               for l, p in leafprob[t].items())
                values = sorted(pos.values()) if config.positive_leaves_only else theta
                idx = min(_resolve_kappa(config, len(tree.leaves)), len(values))
                cum = math.fsum(values[: idx - 1])
                tree_value.append(values[idx - 1])
                tree_eligible.append(cum >= config.mu)
            else:
                tree_value.append(None)  # max_path uses the chosen leaf's probability
                tree_eligible.append(True)

        for combo, box in _oracle_combinations(forest, boxes):
            positive = [t for t, leaf_id in enumerate(combo)
                        if forest.trees[t].leaves[leaf_id].predicted_class == target]
            if config.objective == MAX_PATH:
                scored = [(leafprob[t][combo[t]], t) for t in positive]
            else:
                scored = [(tree_value[t], t) for t in positive if tree_eligible[t]]
            if len(scored) < m:
                continue
            top = sorted(scored, key=lambda s: (-s[0], s[1]))[:m]
            log_obj = math.fsum(_log(v) for v, _ in top)
            if run.best is None or log_obj > run.score:
                run.keep(log_obj, dict(enumerate(combo)), box, effort, {t: v for v, t in top})


def _oracle_boxes(forest, epsilon):
    """The oracle's own leaf-box table, built from the definition, not the forest's cache."""
    return [
        {leaf_id: leaf_box(tree, leaf_id, forest.domains, epsilon) for leaf_id in tree.leaves}
        for tree in forest.trees
    ]


def _oracle_combinations(forest, boxes):
    """Every one-leaf-per-tree combination (a fresh list) with a nonempty joint box, and that box."""
    def walk(t, box, combo):
        if t == forest.num_trees:
            yield combo, box
            return
        for leaf_id in sorted(forest.trees[t].leaves):
            nb = _intersect(box, boxes[t][leaf_id])
            if nb is not None:
                yield from walk(t + 1, nb, combo + [leaf_id])

    return walk(0, [tuple(dom) for dom in forest.domains], [])


def _oracle_min_distance(forest, instance, config, boxes, run) -> None:
    weights = _distance_weights(forest, config)
    for combo, box in _oracle_combinations(forest, boxes):
        votes = [forest.trees[i].leaves[l].predicted_class for i, l in enumerate(combo)]
        if not _weighted_vote_ok(forest, votes, instance.target_class):
            continue
        dist = _box_distance(instance.x0, box, weights, config.distance)
        if run.best is None or dist < run.score:
            run.keep(dist, dict(enumerate(combo)), box)


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
    boxes = forest.leaf_geometry(instance.epsilon).boxes
    member_boxes = []
    for t in box_trees:
        box = boxes[t][leaves[t]]
        member_boxes.append(box)
        if any(not lo - tol <= x[j] <= hi + tol for j, (lo, hi) in enumerate(box)):
            failures.append(f"box intersection (tree {t})")
    if member_boxes and boxes_intersect(member_boxes) is None:
        failures.append("box intersection")

    votes = [forest.trees[t].leaves[leaves[t]].predicted_class for t in range(forest.num_trees)]
    if config.objective == MIN_DISTANCE:
        if not _weighted_vote_ok(forest, votes, instance.target_class):
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
        logs = []
        for t in essential:
            tree = forest.trees[t]
            positive = {leaf_id: path_probability(forest, t, leaf_id, table, effort)
                        for leaf_id, leaf in tree.leaves.items()
                        if leaf.predicted_class == instance.target_class}
            value, eligible = _tree_value(positive.values(), len(tree.leaves),
                                          _resolve_kappa(config, len(tree.leaves)), config)
            if config.objective == MAX_PATH:
                value = positive.get(leaves[t])
            if config.objective == KAPPA_PATH and not eligible:
                failures.append(f"mu eligibility (tree {t})")
            logs.append(_log(value or 0.0))
        recomputed = _exp(math.fsum(logs))
        if not objectives_close(recomputed, solution.objective):
            failures.append("objective mismatch")

    return Verdict(not failures, failures)
