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

Probabilistic objectives are solved by enumerating effort allocations
(outermost; their count is small at the intended scale) and running a
branch-and-bound over essential-tree sets and leaf choices, pruning with the
product of the best remaining per-tree values and with empty box
intersections. All accumulation happens in log space.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict

from .forest import DEFAULT_EPSILON, Forest, _intersect, boxes_intersect, leaf_box, leaf_of
from .probability import NodeProbabilityTable

MAX_PATH = "max_path"
MIN_PATH = "min_path"
KAPPA_PATH = "kappa_path"
MIN_DISTANCE = "min_distance"
OBJECTIVES = (MAX_PATH, MIN_PATH, KAPPA_PATH, MIN_DISTANCE)

_NEG_INF = float("-inf")


class _Timeout(Exception):
    pass


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
        if self.eta < 0 or self.E < 0:
            raise ValueError("eta and E must be nonnegative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass
class SolverConfig:
    objective: str = MAX_PATH
    kappa: int = 1
    kappa_fraction: float | None = None   # per-tree kappa = ceil(fraction * leaf count)
    mu: float = 1e-6
    positive_leaves_only: bool = False    # sort only target-class leaves for the order statistic
    distance: str = "l1"                  # l1 | l2 | linf
    distance_weights: tuple[float, ...] | None = None
    point_rule: str = "project_x0"        # project_x0 | box_center
    time_limit: float | None = None
    oracle_cap: int = 2_000_000

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.kappa_fraction is not None and not 0.0 < self.kappa_fraction <= 1.0:
            raise ValueError("kappa_fraction must be in (0, 1]")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must be in [0, 1)")
        if self.distance not in ("l1", "l2", "linf"):
            raise ValueError(f"unknown distance {self.distance!r}")
        if self.point_rule not in ("project_x0", "box_center"):
            raise ValueError(f"unknown point rule {self.point_rule!r}")
        if self.distance_weights is not None and any(
            not (math.isfinite(w) and w >= 0.0) for w in self.distance_weights
        ):
            raise ValueError("distance_weights must be finite and nonnegative")


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


@dataclass
class TreeValueProfile:
    """Per-tree leaf values under one effort allocation.

    ``leaf_theta`` holds the path probability for target-class leaves and the
    1.0 cap for the rest; ``robust_value`` is the per-tree objective value
    (min over target leaves, the kappa-th order statistic, or the best target
    leaf for max_path, where it serves as the bound).
    """

    tree_index: int
    leaf_theta: dict[int, float]
    positive_probs: dict[int, float]
    sorted_theta: tuple[float, ...]
    robust_value: float | None
    eligible: bool


def majority_threshold(num_trees: int) -> int:
    return num_trees // 2 + 1


def enumerate_effort_allocations(d: int, E: int, eta: int, mutable_mask=None):
    """All effort vectors with sum <= eta, entries in 0..E, zero on immutables.

    Yields each exactly once, in lexicographic order (all-zero vector first).
    """
    mask = list(mutable_mask) if mutable_mask is not None else [True] * d
    if len(mask) != d:
        raise ValueError("mutable_mask length must equal d")
    prefix = [0] * d

    def rec(j, remaining):
        if j == d:
            yield tuple(prefix)
            return
        cap = min(E, remaining) if mask[j] else 0
        for e in range(cap + 1):
            prefix[j] = e
            yield from rec(j + 1, remaining - e)
        prefix[j] = 0

    yield from rec(0, eta)


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


def _resolve_kappa(config: SolverConfig, n_leaves: int) -> int:
    if config.kappa_fraction is not None:
        return max(1, math.ceil(config.kappa_fraction * n_leaves))
    return config.kappa


def _tree_value(positive_probs, n_leaves: int, config: SolverConfig) -> tuple[float | None, bool]:
    """One tree's (value, mu-eligible) from its target leaves' path probabilities.

    The other ``n_leaves - len(positive_probs)`` leaves carry the 1.0 cap in
    the theta vector; path probabilities never exceed 1, so appending the caps
    to the sorted target probabilities gives the sorted theta vector.
    """
    if not positive_probs:
        return None, False
    if config.objective == MIN_PATH:
        return min(positive_probs), True
    if config.objective != KAPPA_PATH:  # max_path and min_distance: optimistic per-tree bound
        return max(positive_probs), True
    values = sorted(positive_probs)
    if not config.positive_leaves_only:
        values += [1.0] * (n_leaves - len(values))
    idx = min(_resolve_kappa(config, n_leaves), len(values))
    return values[idx - 1], math.fsum(values[: idx - 1]) >= config.mu


def tree_value_profile(forest: Forest, tree_index: int, table: NodeProbabilityTable,
                       effort, target: int, config: SolverConfig) -> TreeValueProfile:
    """Leaf thetas, their ascending order, and the per-tree robust value."""
    tree = forest.trees[tree_index]
    positive, theta = {}, {}
    for leaf_id, leaf in tree.leaves.items():
        if leaf.predicted_class == target:
            p = path_probability(forest, tree_index, leaf_id, table, effort)
            positive[leaf_id] = p
            theta[leaf_id] = p
        else:
            theta[leaf_id] = 1.0
    robust, eligible = _tree_value(positive.values(), len(tree.leaves), config)
    return TreeValueProfile(tree_index, theta, positive, tuple(sorted(theta.values())),
                            robust, eligible)


def _log(v: float) -> float:
    return math.log(v) if v > 0.0 else _NEG_INF


def choose_point(box, x0, rule: str = "project_x0"):
    """A concrete point inside a feasible box."""
    if box is None:
        raise ValueError("empty feasible box")
    if rule == "project_x0":
        return tuple(min(max(x, lo), hi) for x, (lo, hi) in zip(x0, box))
    if rule == "box_center":
        return tuple((lo + hi) / 2.0 for lo, hi in box)
    raise ValueError(f"unknown point rule {rule!r}")


def _distance(x0, x, weights, kind: str) -> float:
    residuals = [w * abs(a - b) for w, a, b in zip(weights, x, x0)]
    if kind == "l1":
        return math.fsum(residuals)
    if kind == "l2":
        return math.sqrt(math.fsum(r * r for r in residuals))
    return max(residuals, default=0.0)


def _box_distance(x0, box, weights, kind: str) -> float:
    return _distance(x0, choose_point(box, x0, "project_x0"), weights, kind)


def _validate_common(forest: Forest, instance: ProblemInstance) -> None:
    if len(instance.x0) != forest.num_features:
        raise ValueError("x0 has the wrong dimension")
    for x, (lo, hi) in zip(instance.x0, forest.domains):
        if not lo <= x <= hi:
            raise ValueError(f"x0 value {x} outside feature domain [{lo}, {hi}]")


class _Clock:
    def __init__(self, time_limit):
        self.start = time.monotonic()
        self.deadline = None if time_limit is None else self.start + time_limit
        self.ticks = 0

    def check(self):
        self.ticks += 1
        if self.deadline is not None and (self.ticks == 1 or self.ticks % 512 == 0):
            if time.monotonic() > self.deadline:
                raise _Timeout

    def elapsed(self) -> float:
        return time.monotonic() - self.start


class _ProbabilisticSearch:
    """Shared machinery for max/min/kappa path solves."""

    def __init__(self, forest, instance, table, config):
        if config.objective not in (MAX_PATH, MIN_PATH, KAPPA_PATH):
            raise ValueError("probabilistic search needs a path objective")
        _validate_common(forest, instance)
        if not forest.equal_weights():
            raise ValueError("probabilistic objectives require equal tree weights")
        if table.E < instance.E:
            raise ValueError(f"table covers effort levels 0..{table.E}, instance needs {instance.E}")
        table.validate_against(forest)
        self.forest = forest
        self.instance = instance
        self.table = table
        self.config = config
        self.m = majority_threshold(forest.num_trees)
        self.boxes = forest.leaf_boxes(instance.epsilon)
        # bind table rows once, for target-class leaves only: the other leaves
        # enter the per-tree values as 1.0 caps, never through a path product
        self.compiled = []
        for t, tree in enumerate(forest.trees):
            self.compiled.append([
                (leaf_id, tuple((table.probs[(t, node_id)], tree.nodes[node_id].feature, right)
                                for node_id, right in tree.paths[leaf_id]))
                for leaf_id, leaf in tree.leaves.items()
                if leaf.predicted_class == instance.target_class
            ])
        self.nodes_explored = 0
        self.best_log = _NEG_INF
        self.best = None  # (effort, [(tree, leaf, value)], box)

    def _leaf_probs(self, t, effort):
        """Path probabilities of tree t's target-class leaves, multiplied root to leaf."""
        out = {}
        for leaf_id, steps in self.compiled[t]:
            prob = 1.0
            for row, feature, went_right in steps:
                p = row[effort[feature]]
                prob *= p if went_right else 1.0 - p
            out[leaf_id] = prob
        return out

    def _candidates(self, effort):
        """Per-tree candidate (value, leaf) lists for one allocation (None: tree unusable)."""
        config = self.config
        per_tree = []
        for t, tree in enumerate(self.forest.trees):
            positive = self._leaf_probs(t, effort)
            value, eligible = _tree_value(positive.values(), len(tree.leaves), config)
            if not eligible:
                per_tree.append(None)
            elif config.objective == MAX_PATH:
                per_tree.append(sorted(((p, l) for l, p in positive.items()),
                                       key=lambda c: (-c[0], c[1])))
            else:
                per_tree.append([(value, l) for l in sorted(positive)])
        return per_tree

    def _search_allocation(self, effort, clock):
        per_tree = self._candidates(effort)
        cand_trees = [t for t, c in enumerate(per_tree) if c]
        if len(cand_trees) < self.m:
            return
        order = sorted(cand_trees, key=lambda t: (-per_tree[t][0][0], t))
        n = len(order)
        prefix_log = [0.0] * (n + 1)
        prefix_zero = [0] * (n + 1)
        for i, t in enumerate(order):
            v = per_tree[t][0][0]
            prefix_log[i + 1] = prefix_log[i] + (math.log(v) if v > 0 else 0.0)
            prefix_zero[i + 1] = prefix_zero[i] + (0 if v > 0 else 1)

        def top_sum(i, k):
            if k == 0:
                return 0.0
            if prefix_zero[i + k] - prefix_zero[i]:
                return _NEG_INF
            return prefix_log[i + k] - prefix_log[i]

        if self.best is not None and top_sum(0, self.m) <= self.best_log:
            return
        chosen: list[tuple[int, int, float]] = []
        domains = self.forest.domains

        def dfs(i, k, box, cur_log):
            self.nodes_explored += 1
            clock.check()
            if k == self.m:
                if cur_log > self.best_log or self.best is None:
                    self.best_log = cur_log
                    self.best = (effort, list(chosen), box)
                return
            if n - i < self.m - k:
                return
            need = self.m - k
            if self.best is not None and cur_log + top_sum(i, need) <= self.best_log:
                return
            t = order[i]
            rest = top_sum(i + 1, need - 1)
            for value, leaf in per_tree[t]:
                if self.best is not None and cur_log + _log(value) + rest <= self.best_log:
                    break  # candidates sorted by value: the rest can only do worse
                nb = _intersect(box, self.boxes[t][leaf])
                if nb is None:
                    continue
                chosen.append((t, leaf, value))
                dfs(i + 1, k + 1, nb, cur_log + _log(value))
                chosen.pop()
            dfs(i + 1, k, box, cur_log)

        dfs(0, 0, [tuple(dom) for dom in domains], 0.0)

    def run(self, allocations=None) -> Solution:
        """Best solution over the given effort vectors (default: every allocation)."""
        if allocations is None:
            mask = [m.mutable for m in self.forest.feature_metas]
            allocations = enumerate_effort_allocations(
                self.forest.num_features, self.instance.E, self.instance.eta, mask)
        clock = _Clock(self.config.time_limit)
        timed_out = False
        try:
            for effort in allocations:
                clock.check()
                self._search_allocation(effort, clock)
        except _Timeout:
            timed_out = True
        return self._finalize(timed_out, clock)

    def _finalize(self, timed_out: bool, clock) -> Solution:
        status = "timeout" if timed_out else "optimal"
        if self.best is None:
            return Solution(status=status if timed_out else "infeasible",
                            nodes_explored=self.nodes_explored, wall_time=clock.elapsed())
        effort, chosen, box = self.best
        x = choose_point(box, self.instance.x0, self.config.point_rule)
        leaves = {t: leaf for t, leaf, _ in chosen}
        for t, tree in enumerate(self.forest.trees):
            if t not in leaves:
                leaves[t] = leaf_of(tree, x)
        return Solution(
            status=status,
            objective=math.exp(self.best_log) if self.best_log > _NEG_INF else 0.0,
            log_objective=self.best_log,
            effort=effort,
            chosen_leaves=leaves,
            essential_trees=tuple(sorted(t for t, _, _ in chosen)),
            per_tree_value={t: v for t, _, v in chosen},
            x=x,
            feasible_box=box,
            nodes_explored=self.nodes_explored,
            wall_time=clock.elapsed(),
        )


def solve_max_path(forest, instance, table, config=None) -> Solution:
    config = _with_objective(config, MAX_PATH)
    return _ProbabilisticSearch(forest, instance, table, config).run()


def solve_min_path(forest, instance, table, config=None) -> Solution:
    config = _with_objective(config, MIN_PATH)
    return _ProbabilisticSearch(forest, instance, table, config).run()


def solve_kappa_path(forest, instance, table, config=None) -> Solution:
    config = _with_objective(config, KAPPA_PATH)
    return _ProbabilisticSearch(forest, instance, table, config).run()


def evaluate_allocation(forest, instance, table, config, effort) -> Solution:
    """Solve with the effort vector pinned (diagnostics and golden tests)."""
    return _ProbabilisticSearch(forest, instance, table, config).run([tuple(effort)])


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
    if table is None:
        raise ValueError("probabilistic objectives need a probability table")
    return _ProbabilisticSearch(forest, instance, table, config).run()


# --- min-distance -----------------------------------------------------------


def _target_wins(w_target, w_other, target) -> bool:
    """The weighted vote's outcome: ties classify to 0, so target 1 needs a strict majority."""
    return w_target >= w_other if target == 0 else w_target > w_other


def _weighted_vote_ok(forest, votes, target) -> bool:
    w_target = sum(t.weight for t, v in zip(forest.trees, votes) if v == target)
    w_other = sum(t.weight for t, v in zip(forest.trees, votes) if v != target)
    return _target_wins(w_target, w_other, target)


def solve_min_distance(forest, instance, config=None) -> Solution:
    """Closest point (weighted L1/L2/Linf) classified into the target class.

    Branch and bound over full leaf combinations; the bound is the distance
    from x0 to its clamp onto the running box, which only grows as trees are
    assigned. x is always the clamp onto the final box (the exact minimizer),
    regardless of config.point_rule.
    """
    config = config or SolverConfig(objective=MIN_DISTANCE)
    if config.objective != MIN_DISTANCE:
        raise ValueError(f"config.objective is {config.objective!r}, expected {MIN_DISTANCE!r}")
    _validate_common(forest, instance)
    weights = config.distance_weights or tuple(1.0 for _ in range(forest.num_features))
    if len(weights) != forest.num_features:
        raise ValueError("distance_weights length must equal the feature count")
    x0, target = instance.x0, instance.target_class
    boxes = forest.leaf_boxes(instance.epsilon)
    R = forest.num_trees
    suffix_weight = [0.0] * (R + 1)
    for t in range(R - 1, -1, -1):
        suffix_weight[t] = suffix_weight[t + 1] + forest.trees[t].weight

    clock = _Clock(config.time_limit)
    state = {"best": None, "best_dist": math.inf, "nodes": 0}
    combo: list[int] = []

    def dfs(t, box, w_target):
        state["nodes"] += 1
        clock.check()
        dist = _box_distance(x0, box, weights, config.distance)
        if state["best"] is not None and dist >= state["best_dist"]:
            return
        if t == R:
            if _target_wins(w_target, suffix_weight[0] - w_target, target):
                state["best"] = (list(combo), box)
                state["best_dist"] = dist
            return
        # even if every remaining tree votes target, can the majority work out?
        optimistic = w_target + suffix_weight[t]
        if not _target_wins(optimistic, suffix_weight[0] - optimistic, target):
            return
        children = []
        for leaf_id, leaf in forest.trees[t].leaves.items():
            nb = _intersect(box, boxes[t][leaf_id])
            if nb is None:
                continue
            children.append((_box_distance(x0, nb, weights, config.distance), leaf_id, nb, leaf))
        for _, leaf_id, nb, leaf in sorted(children, key=lambda c: (c[0], c[1])):
            combo.append(leaf_id)
            dfs(t + 1, nb, w_target + (forest.trees[t].weight if leaf.predicted_class == target else 0.0))
            combo.pop()

    timed_out = False
    try:
        dfs(0, [tuple(dom) for dom in forest.domains], 0.0)
    except _Timeout:
        timed_out = True
    if state["best"] is None:
        return Solution(status="timeout" if timed_out else "infeasible",
                        nodes_explored=state["nodes"], wall_time=clock.elapsed())
    combo_best, box = state["best"]
    x = choose_point(box, x0, "project_x0")
    return Solution(
        status="timeout" if timed_out else "optimal",
        objective=state["best_dist"],
        log_objective=None,
        effort=tuple(0 for _ in range(forest.num_features)),
        chosen_leaves=dict(enumerate(combo_best)),
        essential_trees=(),
        per_tree_value={},
        x=x,
        feasible_box=box,
        nodes_explored=state["nodes"],
        wall_time=clock.elapsed(),
    )


# --- brute-force oracle -------------------------------------------------------


def brute_force_oracle(forest, instance, table, config) -> Solution:
    """Exhaustive reference: every allocation x every leaf combination.

    Reuses only the shared value definitions (allocation enumeration, path
    products); the search itself is a plain recursive enumeration of full
    leaf combinations with empty-box skipping, recomputing objectives from
    their definitions at every complete combination.
    """
    _validate_common(forest, instance)
    mask = [m.mutable for m in forest.feature_metas]
    allocations = list(enumerate_effort_allocations(
        forest.num_features, instance.E, instance.eta, mask))
    combos = 1
    for tree in forest.trees:
        combos *= len(tree.leaves)
    if combos * len(allocations) > config.oracle_cap:
        raise ValueError(f"oracle cap exceeded: {combos} combos x {len(allocations)} allocations")

    if config.objective == MIN_DISTANCE:
        return _oracle_min_distance(forest, instance, config)
    if not forest.equal_weights():
        raise ValueError("probabilistic objectives require equal tree weights")
    table.validate_against(forest)

    m = majority_threshold(forest.num_trees)
    target = instance.target_class
    boxes = _oracle_boxes(forest, instance.epsilon)
    best = {"log": _NEG_INF, "payload": None}

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

        def walk(t, box, combo):
            if t == forest.num_trees:
                _oracle_score(forest, target, m, config, effort, leafprob,
                              tree_value, tree_eligible, combo, box, best)
                return
            for leaf_id in forest.trees[t].leaf_ids():
                nb = _intersect(box, boxes[t][leaf_id])
                if nb is not None:
                    walk(t + 1, nb, combo + [leaf_id])

        walk(0, [tuple(dom) for dom in forest.domains], [])

    if best["payload"] is None:
        return Solution(status="infeasible")
    effort, combo, essential, values, box = best["payload"]
    x = choose_point(box, instance.x0, config.point_rule)
    return Solution(
        status="optimal",
        objective=math.exp(best["log"]) if best["log"] > _NEG_INF else 0.0,
        log_objective=best["log"],
        effort=effort,
        chosen_leaves=dict(enumerate(combo)),
        essential_trees=tuple(sorted(essential)),
        per_tree_value=dict(zip(essential, values)),
        x=x,
        feasible_box=box,
    )


def _oracle_score(forest, target, m, config, effort, leafprob,
                  tree_value, tree_eligible, combo, box, best):
    positive = [t for t, leaf_id in enumerate(combo)
                if forest.trees[t].leaves[leaf_id].predicted_class == target]
    if len(positive) < m:
        return
    if config.objective == MAX_PATH:
        scored = sorted(((leafprob[t][combo[t]], t) for t in positive),
                        key=lambda s: (-s[0], s[1]))
    else:
        eligible = [t for t in positive if tree_eligible[t]]
        if len(eligible) < m:
            return
        scored = sorted(((tree_value[t], t) for t in eligible),
                        key=lambda s: (-s[0], s[1]))
    top = scored[:m]
    log_obj = math.fsum(_log(v) for v, _ in top)
    if log_obj > best["log"] or best["payload"] is None:
        best["log"] = log_obj
        best["payload"] = (effort, list(combo), [t for _, t in top], [v for v, _ in top], box)


def _oracle_boxes(forest, epsilon):
    """The oracle's own leaf-box table, built from the definition, not the forest's cache."""
    return [
        {leaf_id: leaf_box(tree, leaf_id, forest.domains, epsilon) for leaf_id in tree.leaves}
        for tree in forest.trees
    ]


def _oracle_min_distance(forest, instance, config) -> Solution:
    weights = config.distance_weights or tuple(1.0 for _ in range(forest.num_features))
    boxes = _oracle_boxes(forest, instance.epsilon)
    best = {"dist": math.inf, "payload": None}

    def walk(t, box, combo):
        if t == forest.num_trees:
            votes = [forest.trees[i].leaves[l].predicted_class for i, l in enumerate(combo)]
            if not _weighted_vote_ok(forest, votes, instance.target_class):
                return
            dist = _box_distance(instance.x0, box, weights, config.distance)
            if dist < best["dist"]:
                best["dist"] = dist
                best["payload"] = (list(combo), box)
            return
        for leaf_id in forest.trees[t].leaf_ids():
            nb = _intersect(box, boxes[t][leaf_id])
            if nb is not None:
                walk(t + 1, nb, combo + [leaf_id])

    walk(0, [tuple(dom) for dom in forest.domains], [])
    if best["payload"] is None:
        return Solution(status="infeasible")
    combo, box = best["payload"]
    return Solution(
        status="optimal",
        objective=best["dist"],
        effort=tuple(0 for _ in range(forest.num_features)),
        chosen_leaves=dict(enumerate(combo)),
        essential_trees=(),
        per_tree_value={},
        x=choose_point(box, instance.x0, "project_x0"),
        feasible_box=box,
    )


# --- verification ---------------------------------------------------------------


def objectives_close(a, b, tol: float = 1e-9) -> bool:
    """Equality in linear or log space, whichever is meaningful at the scale."""
    if a is None or b is None:
        return a is b
    if a == b:
        return True
    if a > 0 and b > 0 and abs(math.log(a) - math.log(b)) <= tol:
        return True
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
    leaves = solution.chosen_leaves or {}
    if set(leaves) != set(range(forest.num_trees)):
        failures.append("leaf assignment incomplete")
        return Verdict(False, failures)
    for t, tree in enumerate(forest.trees):
        if leaf_of(tree, x) != leaves[t]:
            failures.append(f"leaf assignment (tree {t})")

    essential = solution.essential_trees or ()
    box_trees = essential if config.objective != MIN_DISTANCE else tuple(range(forest.num_trees))
    tol = 1e-12
    boxes = forest.leaf_boxes(instance.epsilon)
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
        weights = config.distance_weights or tuple(1.0 for _ in range(d))
        recomputed = _distance(instance.x0, x, weights, config.distance)
        if not objectives_close(recomputed, solution.objective):
            failures.append("objective mismatch")
    else:
        logs = []
        for t in essential:
            profile = tree_value_profile(forest, t, table, effort, instance.target_class, config)
            if config.objective == MAX_PATH:
                value = profile.positive_probs.get(leaves[t])
                if value is None:
                    value = 0.0
            else:
                value = profile.robust_value if profile.robust_value is not None else 0.0
            if config.objective == KAPPA_PATH and not profile.eligible:
                failures.append(f"mu eligibility (tree {t})")
            logs.append(_log(value))
        recomputed_log = math.fsum(logs)
        recomputed = math.exp(recomputed_log) if recomputed_log > _NEG_INF else 0.0
        if not objectives_close(recomputed, solution.objective):
            failures.append("objective mismatch")

    return Verdict(not failures, failures)
