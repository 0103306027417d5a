"""Shared test utilities: seeded random instances sized for exhaustive oracles, the
brute-force oracle itself and the reference builders the forest caches are held to."""
from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from treeshift import (KAPPA_PATH, MAX_PATH, MIN_DISTANCE, MIN_PATH, Dataset, FeatureMeta,
                       Forest, Leaf, Node, NodeProbabilityTable, PerturbationSpec,
                       ProblemInstance, Solution, TrainConfig, Tree,
                       estimate_node_probabilities, split, synth_generate, train)
from treeshift.forest import (_GEOMETRY_BLOCK, _SIGNATURE_CHUNK, BINARY, DEFAULT_EPSILON,
                              DegenerateBoxError, ScoringPlan, TargetPaths, _intersect,
                              _unique_rows, enumerate_effort_allocations, forest_to_dict)
from treeshift.fixtures import firefighter_forest
from treeshift.solver import (_Run, _check_problem, _distance, _resolve_kappa, choose_point,
                              majority_threshold, path_probability)

TABLE_E = 2  # tables always cover effort levels 0..2 so E-monotonicity can be probed


@dataclass
class RandomInstance:
    seed: int
    forest: Forest
    table: NodeProbabilityTable
    instance: ProblemInstance
    kappa: int          # may exceed positive-leaf counts (exercises the 1.0 caps)
    kappa_ord: int      # capped at every tree's positive-leaf count
    mu: float


def _grow_random_tree(rng, d, max_depth):
    """Path-consistent random tree: every leaf region is nonempty.

    Thresholds live on a 0.01 grid (integer ticks 5..95), always strictly
    inside the window implied by the ancestors, like a trained tree's.
    """
    ids = [0]
    nodes, leaves = [], []

    def build(depth, windows):
        splittable = [j for j in range(d) if windows[j][0] < windows[j][1]]
        make_leaf = depth >= max_depth or not splittable or (depth > 0 and rng.random() < 0.3)
        ident = ids[0]
        ids[0] += 1
        if make_leaf:
            leaves.append(Leaf(ident, int(rng.integers(0, 2))))
            return ident
        feature = int(rng.choice(splittable))
        lo_tick, hi_tick = windows[feature]
        tick = int(rng.integers(lo_tick + 1, hi_tick + 1))  # in (lo, hi]
        threshold = round(tick / 100.0, 2)
        left_windows = dict(windows)
        left_windows[feature] = (lo_tick, tick - 1)
        right_windows = dict(windows)
        right_windows[feature] = (tick, hi_tick)
        left = build(depth + 1, left_windows)
        right = build(depth + 1, right_windows)
        nodes.append(Node(ident, feature, threshold, left, right))
        return ident

    root = build(0, {j: (4, 95) for j in range(d)})
    return Tree(root, nodes, leaves)


def make_random_instance(seed: int) -> RandomInstance:
    """Instance within the oracle-checkable envelope: R<=5, depth<=3, d<=5."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1257]))
    d = int(rng.integers(2, 6))
    R = int(rng.integers(1, 6))
    depth = int(rng.integers(1, 4))
    metas = []
    for j in range(d):
        mutable = bool(rng.random() < 0.8)
        metas.append(FeatureMeta(
            j, f"f{j}", mutable=mutable,
            beneficial="increase" if mutable else "none",
        ))
    forest = Forest([_grow_random_tree(rng, d, depth) for _ in range(R)], metas)

    probs = {}
    for t, tree in enumerate(forest.trees):
        for node_id, node in tree.nodes.items():
            if forest.feature_metas[node.feature].mutable:
                row = tuple(_random_prob(rng) for _ in range(TABLE_E + 1))
            else:
                p = _random_prob(rng)
                row = (p,) * (TABLE_E + 1)
            probs[(t, node_id)] = row
    table = NodeProbabilityTable(individual=seed, E=TABLE_E, probs=probs)

    instance = ProblemInstance(
        x0=tuple(round(float(v), 3) for v in rng.random(d)),
        target_class=int(rng.integers(0, 2)),
        eta=int(rng.integers(0, 4)),
        E=int(rng.integers(0, TABLE_E + 1)),
    )
    max_leaves = max(len(tree.leaves) for tree in forest.trees)
    positive_counts = [
        sum(1 for leaf in tree.leaves.values() if leaf.predicted_class == instance.target_class)
        for tree in forest.trees
    ]
    min_positive = min((c for c in positive_counts if c > 0), default=1)
    kappa = int(rng.integers(1, max_leaves + 1))
    kappa_ord = int(rng.integers(1, min_positive + 1))
    mu = float(rng.choice([0.0, 0.0, 1e-6, 0.2]))
    return RandomInstance(seed, forest, table, instance, kappa, kappa_ord, mu)


def _random_prob(rng) -> float:
    roll = rng.random()
    if roll < 0.06:
        return 0.0
    if roll < 0.12:
        return 1.0
    return round(float(rng.uniform(0.01, 0.99)), 4)


def oracle_agreement(case, objective, **config_kw):
    """Solve and brute-force one instance; returns (solver, oracle, config)."""
    from treeshift import SolverConfig, solve

    config = SolverConfig(objective=objective, **config_kw)
    solver_sol = solve(case.forest, case.instance, case.table, config)
    oracle_sol = brute_force_oracle(case.forest, case.instance, case.table, config)
    return solver_sol, oracle_sol, config


def assert_matches_oracle(case, objective, **config_kw):
    from treeshift import objectives_close, verify_solution

    solver_sol, oracle_sol, config = oracle_agreement(case, objective, **config_kw)
    assert solver_sol.status == oracle_sol.status, (
        f"seed {case.seed} {objective}: solver {solver_sol.status}, oracle {oracle_sol.status}")
    if solver_sol.status == "optimal":
        assert objectives_close(solver_sol.objective, oracle_sol.objective), (
            f"seed {case.seed} {objective}: solver {solver_sol.objective!r} "
            f"!= oracle {oracle_sol.objective!r}")
        for sol in (solver_sol, oracle_sol):
            verdict = verify_solution(case.forest, case.instance, case.table, sol, config)
            assert verdict.passed, f"seed {case.seed} {objective}: {verdict.failures}"
        assert case.forest.predict(solver_sol.x)[0] == case.instance.target_class
    return solver_sol, oracle_sol


def per_tree_value_chain(case, kappa):
    """min over positive leaves <= kappa-th smallest positive <= max, per tree."""
    from treeshift import enumerate_effort_allocations, path_probability

    forest, instance, table = case.forest, case.instance, case.table
    mask = [m.mutable for m in forest.feature_metas]
    for effort in enumerate_effort_allocations(forest.num_features, instance.E,
                                               instance.eta, mask):
        for t, tree in enumerate(forest.trees):
            pos = sorted(
                path_probability(forest, t, l, table, effort)
                for l, leaf in tree.leaves.items()
                if leaf.predicted_class == instance.target_class
            )
            if not pos:
                continue
            idx = min(kappa, len(pos))
            assert pos[0] <= pos[idx - 1] <= pos[-1]


def reference_tree_value(positive_probs, n_leaves: int, kappa: int, config):
    """One tree's (value, mu-eligible) from its target leaves' path probabilities, one
    sort per tree in Python: the reference for the solver's batch rule ``_tree_values``.
    ``kappa`` is the tree's ``_resolve_kappa(config, n_leaves)``.

    The other ``n_leaves - len(positive_probs)`` leaves carry the 1.0 cap in
    the theta vector; path probabilities never exceed 1, so appending the caps
    to the sorted target probabilities gives the sorted theta vector.
    """
    from treeshift import KAPPA_PATH, MIN_PATH

    positive_probs = list(positive_probs)
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


@functools.lru_cache(maxsize=None)
def ladder_rung(trees: int, depth: int):
    """(forest, table, instance) of a solver-ladder rung: ``trees`` trees of depth ``depth``
    trained on ``synth_generate(800, 14, seed=0)`` (a 2/3 split), and the first training
    row the forest classifies off-target, its table at E=1 from 1,000 samples (seed 0)
    and its instance at eta 4. Built once per test run; the callers do not change them."""
    train_ds, _ = split(synth_generate(800, 14, seed=0), 2 / 3, seed=0)
    forest = train(train_ds, TrainConfig(num_trees=trees, max_depth=depth, seed=0))
    row = next(i for i in range(train_ds.num_rows) if forest.predict(train_ds.X[i])[0] != 0)
    spec = PerturbationSpec.from_dataset(train_ds, num_samples=1000, seed=0)
    table = estimate_node_probabilities(forest, train_ds.X[row], spec, E=1, individual=row)
    return forest, table, ProblemInstance(x0=tuple(train_ds.X[row]), target_class=0, eta=4, E=1)


def with_a_fixed(forest: Forest) -> Forest:
    """``forest``, on the firefighter features S and A, with feature A immutable."""
    s, a = forest.feature_metas
    return Forest(forest.trees, [s, FeatureMeta(a.index, a.name, a.kind, mutable=False)])


def firefighter_forest_json(**edits) -> str:
    """The firefighter forest's JSON text with fields set; a key names a field by its path,
    such as ``feature_0`` (feature S), ``tree`` (tree 0), ``node_0`` or ``leaf_1`` (its
    second leaf), and a value holds the fields to set there."""
    doc = forest_to_dict(firefighter_forest())
    tree = doc["trees"][0]
    parts = {"doc": doc, "tree": tree, "feature_0": doc["features"][0],
             "node_0": tree["nodes"][0], "node_2": tree["nodes"][2],
             "leaf_0": tree["leaves"][0], "leaf_1": tree["leaves"][1]}
    for part, fields in edits.items():
        parts[part].update(fields)
    return json.dumps(doc)


DECIMAL_TREE_WEIGHTS = (0.1, 0.2, 0.3, 0.6, 0.7, 1.1, 1 / 3)


def make_weighted_distance_case(seed: int, tree_weights=None):
    """Forest with unequal tree weights plus a distance configuration.

    Tree weights are integers 1-3, whose sums are exact, or drawn from
    ``tree_weights``, such as ``DECIMAL_TREE_WEIGHTS``, whose sums round.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD157]))
    case = make_random_instance(seed)
    trees = [
        Tree(t.root, list(t.nodes.values()), list(t.leaves.values()),
             weight=float(rng.integers(1, 4) if tree_weights is None
                          else rng.choice(tree_weights)))
        for t in case.forest.trees
    ]
    forest = Forest(trees, case.forest.feature_metas)
    weights = tuple(round(float(w), 2) for w in rng.uniform(0.5, 2.0, forest.num_features))
    kind = str(rng.choice(["l1", "l2", "linf"]))
    return forest, case.instance, weights, kind


def _reference_gini(counts) -> float:
    total = counts[0] + counts[1]
    if total == 0:
        return 0.0
    p1 = counts[1] / total
    return 2.0 * p1 * (1.0 - p1)


def reference_best_split(X, y, rows, feature_pool, rng, k):
    """CART split search with one mask per threshold, the reference for ``_best_split``.

    Same contract: draw the feature subset first, then return the smallest
    ``(weighted Gini, feature, midpoint threshold)`` key that sends rows both
    ways, or None.
    """
    chosen = rng.choice(feature_pool, size=min(k, len(feature_pool)), replace=False)
    best = None
    for j in sorted(chosen):
        col = X[rows, j]
        values = np.unique(col)
        if len(values) < 2:
            continue
        mids = (values[:-1] + values[1:]) / 2.0
        for thr in mids:
            right = col >= thr
            n_right = int(right.sum())
            n_left = len(rows) - n_right
            if n_left == 0 or n_right == 0:
                continue
            y_here = y[rows]
            right_ones = int(y_here[right].sum())
            left_ones = int(y_here.sum()) - right_ones
            score = (
                n_left * _reference_gini((n_left - left_ones, left_ones))
                + n_right * _reference_gini((n_right - right_ones, right_ones))
            ) / len(rows)
            key = (score, j, thr)
            if best is None or key < best:
                best = key
    return best


def reference_load_csv(path, schema):
    """``load_csv`` one row dict and one cell at a time, the reference for the
    column-wise loader.

    Same contract: skip blank lines, drop rows by their raw strings, reject a
    repeated schema column and every missing, unrecoded, non-numeric or
    non-finite feature cell and every missing label, row by row, then
    min-max normalize the continuous columns. Every rejection names the file.
    """
    try:
        return _reference_dataset(path, schema)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _reference_dataset(path, schema):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in schema.columns:
            if col.name not in header:
                raise ValueError(f"header has no {col.name!r} column")
            if header.count(col.name) > 1:
                raise ValueError(f"header repeats column {col.name!r}")
        rows = list(reader)
    target = schema.target
    feats = schema.feature_columns
    droppable = [c for c in feats if c.drop_values]
    rows = [
        row for row in rows
        if row[target.name] not in target.drop_labels
        and not any(row[c.name] in c.drop_values for c in droppable)
    ]
    if not rows:
        raise ValueError("CSV has no data rows")

    recodes = [col.recode if col.recode is not None else (
        {"0": 0.0, "1": 1.0} if col.kind == BINARY else None) for col in feats]
    raw = np.empty((len(rows), len(feats)))
    labels = np.empty(len(rows), dtype=int)
    errors = []
    for i, row in enumerate(rows):
        for j, (col, recode) in enumerate(zip(feats, recodes)):
            value = row[col.name]
            if value is None or value == "":
                errors.append(f"row {i}: missing value in {col.name}")
                continue
            if recode is not None:
                if value not in recode:
                    errors.append(f"row {i}: {col.name} value {value!r} has no recode")
                    continue
                raw[i, j] = recode[value]
            else:
                try:
                    raw[i, j] = number = float(value)
                except ValueError:
                    errors.append(f"row {i}: {col.name} value {value!r} is not numeric")
                    continue
                if not math.isfinite(number):
                    errors.append(f"row {i}: {col.name} value {value!r} is not finite")
        label = row[target.name]
        if label is None or label == "":
            errors.append(f"row {i}: missing value in {target.name}")
        labels[i] = 1 if label in target.positive_labels else 0
    if errors:
        raise ValueError("CSV rejected:\n" + "\n".join(errors))

    X = np.empty_like(raw)
    for j, col in enumerate(feats):
        if col.kind == BINARY:
            if not set(np.unique(raw[:, j])) <= {0.0, 1.0}:
                raise ValueError(f"binary column {col.name} recodes outside {{0, 1}}")
            X[:, j] = raw[:, j]
        else:
            lo, hi = float(raw[:, j].min()), float(raw[:, j].max())
            if hi == lo:
                hi = lo + 1.0
            X[:, j] = (raw[:, j] - lo) / (hi - lo)
    metas = [FeatureMeta(index=j, name=col.name, kind=col.kind, mutable=col.mutable,
                         beneficial=col.beneficial) for j, col in enumerate(feats)]
    return Dataset(X, labels, metas)


def reference_leaf_geometry(trees, domains, epsilon):
    """``Forest.leaf_geometry`` from one ``leaf_box`` call per leaf, the reference for
    the level-by-level walk: per tree {leaf_id: its box}, then the geometry's ``bit``,
    ``compatible``, ``lo`` and ``hi``."""
    boxes = tuple(
        {leaf_id: tuple(leaf_box(tree, leaf_id, domains, epsilon)) for leaf_id in tree.leaves}
        for tree in trees
    )
    sizes = [len(tree_boxes) for tree_boxes in boxes]
    n, d = sum(sizes), len(domains)
    flat_boxes = [box for tree_boxes in boxes for box in tree_boxes.values()]
    lo, hi = (np.fromiter((box[j][end] for j in range(d) for box in flat_boxes),
                          dtype=float, count=n * d).reshape(d, n) for end in (0, 1))
    owner = np.repeat(np.arange(len(trees)), sizes)
    rows = []
    # a block of rows at a time, so that no n x n temporary is made
    step = max(1, _GEOMETRY_BLOCK // n)
    for a in range(0, n, step):
        b = min(a + step, n)
        meets = owner[a:b, None] != owner
        test = np.empty_like(meets)
        for j in range(d):   # closed intervals meet iff each starts at or before the other ends
            meets &= np.less_equal(lo[j, a:b, None], hi[j], out=test)
            meets &= np.greater_equal(hi[j, a:b, None], lo[j], out=test)
        packed = np.packbits(meets, axis=1, bitorder="little")
        rows.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    # leaves are numbered tree by tree, in each tree's leaf order; leaf g owns bit g
    bit, compatible, g = [], [], 0
    for tree_boxes in boxes:
        bit.append({leaf_id: 1 << (g + k) for k, leaf_id in enumerate(tree_boxes)})
        compatible.append({leaf_id: rows[g + k] for k, leaf_id in enumerate(tree_boxes)})
        g += len(tree_boxes)
    return boxes, tuple(bit), tuple(compatible), lo.T, hi.T



def reference_target_paths(trees, target_class):
    """``Forest.target_paths`` from each tree's ``trace_paths``, the reference for the
    paths read off the level-by-level walk."""
    leaves = tuple(tuple(sorted(leaf_id for leaf_id, leaf in tree.leaves.items()
                                if leaf.predicted_class == target_class)) for tree in trees)
    traced = [trace_paths(tree) for tree in trees]
    depth = max([1] + [max(map(len, traced[t].values())) for t, ids in enumerate(leaves) if ids])
    paths = [[(t, node_id, went_right) for node_id, went_right in traced[t][leaf_id]]
             for t, ids in enumerate(leaves) for leaf_id in ids]
    nodes = tuple(dict.fromkeys((t, node_id) for path in paths for t, node_id, _ in path))
    position = {key: i for i, key in enumerate(nodes)}
    pad = [(len(nodes), 0, True)]
    steps = np.array([[(position[t, node_id], trees[t].nodes[node_id].feature, went_right)
                       for t, node_id, went_right in path] + pad * (depth - len(path))
                      for path in paths], dtype=np.intp).reshape(len(paths), depth, 3)
    node, feature, right = (np.ascontiguousarray(steps[..., i]) for i in range(3))
    right = right.astype(bool)
    for array in (node, feature, right):
        array.flags.writeable = False
    return TargetPaths(leaves, nodes, node, feature, right)



def reference_scoring_plan(mutable, paths, E, eta):
    """``Forest.scoring_plan`` with one ``np.unique`` key per tree, the reference for the
    key built for all trees at once."""
    d = len(mutable)
    allocations = tuple(enumerate_effort_allocations(d, E, eta, mutable))
    effort = np.array(allocations, dtype=np.intp).reshape(len(allocations), d)
    width = E + 1
    sizes = np.array([len(ids) for ids in paths.leaves], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    real = paths.node < len(paths.nodes)   # the steps before each path's end
    pair = np.empty((len(allocations), len(sizes)), dtype=np.int32)
    tree_of, first = [], []
    for t, (a, b) in enumerate(zip(starts.tolist(), (starts + sizes).tolist())):
        features = np.unique(paths.feature[a:b][real[a:b]]).tolist()
        # no allocation puts effort on an immutable feature
        index, inverse = _unique_rows(np.zeros(len(allocations), dtype=np.int64), 1,
                                      (effort[:, j] for j in features if mutable[j]), width)
        pair[:, t] = inverse + len(first)
        first.extend(index.tolist())   # the first allocation with each signature
        tree_of.extend([t] * len(index))
    tree_of = np.array(tree_of, dtype=np.intp)
    first = np.array(first, dtype=np.intp)

    # the leaf signatures of every (pair, target leaf) row, keyed a chunk of whole trees at
    # a time: a leaf belongs to one tree, so no signature spans two chunks. A row's levels
    # are read from one flat table of the allocations' levels, whose column d holds 0s for
    # the steps past each path's end.
    level_table = np.zeros((len(allocations), d + 1),
                           dtype=np.int8 if E <= np.iinfo(np.int8).max else np.intp)
    level_table[:, :d] = effort
    level_table = level_table.reshape(-1)
    column = np.where(real, paths.feature, d)
    pair_count = np.bincount(tree_of, minlength=len(sizes))
    pair_end = np.cumsum(pair_count)
    row_end = np.cumsum(pair_count * sizes)
    slot = np.full((len(tree_of), max(1, int(sizes.max(initial=0)))), -1, dtype=np.int32)
    leaf_parts, level_parts, count = [], [], 0
    t0 = 0
    while t0 < len(sizes):
        t1 = max(t0 + 1, int(np.searchsorted(
            row_end, row_end[t0] - pair_count[t0] * sizes[t0] + _SIGNATURE_CHUNK, side="right")))
        pairs = np.arange(pair_end[t0] - pair_count[t0], pair_end[t1 - 1])
        per_pair = sizes[tree_of[pairs]]
        row_pair = np.repeat(pairs, per_pair)
        k = np.arange(len(row_pair)) - np.repeat(np.cumsum(per_pair) - per_pair, per_pair)
        leaf = starts[tree_of[row_pair]] + k
        level = level_table[(first[row_pair] * (d + 1))[:, None] + column[leaf]]
        index, inverse = _unique_rows((leaf - starts[t0]).astype(np.int64),
                                      int(sizes[t0:t1].sum()), level.T, width)
        slot[row_pair, k] = inverse + count
        leaf_parts.append(leaf[index])
        level_parts.append(level[index])
        count += len(index)
        t0 = t1
    leaf, level = np.concatenate(leaf_parts).astype(np.int32), np.concatenate(level_parts)
    plan = ScoringPlan(allocations, pair, tree_of, slot, reference_steps(paths, leaf, level, E))
    for array in plan[1:]:
        array.flags.writeable = False
    return plan


def reference_steps(paths, leaf, level, E):
    """``ScoringPlan.step`` of leaf rows ``leaf`` of ``paths`` at effort levels ``level``,
    one (row, step) at a time: where ``_path_products``' flat table holds the factor of
    step k, the node's row (going right) or its row among the 1.0 - p rows (going left),
    times E + 1, plus the level; int32 unless a position could pass it."""
    n, width = len(paths.nodes), E + 1
    step = np.empty((paths.node.shape[1], len(leaf)),
                    dtype=np.int32 if 2 * (n + 1) * width <= 2 ** 31 else np.intp)
    for s, (row, levels) in enumerate(zip(np.asarray(leaf).tolist(), np.asarray(level).tolist())):
        for k, e in enumerate(levels):
            node = int(paths.node[row, k])
            step[k, s] = (node if paths.right[row, k] else n + 1 + node) * width + e
    return step


# --- paths, boxes and the brute-force oracle -------------------------------------


def trace_paths(tree: Tree) -> dict[int, tuple[tuple[int, bool], ...]]:
    """Each leaf's root-to-leaf path as ``(node_id, went_right)`` pairs, traced depth first
    through the tree's node dicts: the reference for the paths ``Forest._leaf_paths``
    reads off its level-by-level walk."""
    paths = {}
    stack = [(tree.root, ())]
    while stack:
        ident, path = stack.pop()
        if ident in tree.leaves:
            paths[ident] = path
            continue
        node = tree.nodes[ident]
        stack.append((node.left, path + ((ident, False),)))
        stack.append((node.right, path + ((ident, True),)))
    return paths


def leaf_box(tree: Tree, leaf_id: int, domains, epsilon: float = DEFAULT_EPSILON):
    """Axis-aligned closed box implied by a leaf's ancestor splits, the oracle's own box
    builder and the reference for ``Forest.leaf_geometry``.

    Right ancestors impose ``x >= threshold``; left ancestors impose
    ``x <= threshold - epsilon``. Features absent from the path keep their
    full domain.
    """
    if not epsilon > 0:   # also rejects NaN, which would drop every left-branch bound
        raise ValueError("epsilon must be positive")
    box = [list(dom) for dom in domains]
    for node_id, went_right in trace_paths(tree)[leaf_id]:
        node = tree.nodes[node_id]
        lo, hi = box[node.feature]
        if went_right:
            lo = max(lo, node.threshold)
        else:
            hi = min(hi, node.threshold - epsilon)
        if lo > hi:
            raise DegenerateBoxError(
                f"leaf {leaf_id}: feature {node.feature} interval [{lo}, {hi}] is empty"
            )
        box[node.feature] = [lo, hi]
    return [(lo, hi) for lo, hi in box]


ORACLE_CAP = 2_000_000   # most allocations x leaf combinations the exhaustive oracle walks


def brute_force_oracle(forest, instance, table, config) -> Solution:
    """Exhaustive reference: every allocation x every leaf combination.

    Shares with the solver only the input check, path products and solve record;
    allocations, leaf boxes and the search are its own: a plain enumeration of full
    leaf combinations with empty-box skipping, recomputing objectives from their
    definitions at every complete combination. It has no time limit.
    """
    _check_problem(forest, instance, table, config)
    allocations = _allocations(forest, instance)
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
    return _Run(forest, instance, config, lambda t, leaf: boxes[t][leaf]).finish(walk)


def _allocations(forest, instance):
    """The instance's effort allocations in lexicographic order: levels 0..E, none on
    immutables, sum <= eta."""
    levels = [range(instance.E + 1) if meta.mutable else (0,) for meta in forest.feature_metas]
    return [effort for effort in itertools.product(*levels) if sum(effort) <= instance.eta]


def _oracle_log(v: float) -> float:
    return math.log(v) if v > 0.0 else float("-inf")


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

        for combo, _ in _oracle_combinations(forest, boxes):
            positive = [t for t, leaf_id in enumerate(combo)
                        if forest.trees[t].leaves[leaf_id].predicted_class == target]
            if config.objective == MAX_PATH:
                scored = [(leafprob[t][combo[t]], t) for t in positive]
            else:
                scored = [(tree_value[t], t) for t in positive if tree_eligible[t]]
            if len(scored) < m:
                continue
            top = sorted(scored, key=lambda s: (-s[0], s[1]))[:m]
            log_obj = math.fsum(_oracle_log(v) for v, _ in top)
            if run.best is None or log_obj > run.score:
                run.keep(log_obj, dict(enumerate(combo)), effort, {t: v for v, t in top})


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
    weights = config.distance_weights
    if weights is None:
        weights = (1.0,) * forest.num_features
    for combo, box in _oracle_combinations(forest, boxes):
        votes = [forest.trees[i].leaves[l].predicted_class for i, l in enumerate(combo)]
        if forest.vote(votes) != instance.target_class:
            continue
        dist = _distance(instance.x0, choose_point(box, instance.x0), weights, config.distance)
        if run.best is None or dist < run.score:
            run.keep(dist, dict(enumerate(combo)))
