"""Binary-split tree ensembles: structure, prediction, leaf geometry, JSON round trip.

Routing semantics everywhere: an observation goes right at a node iff
``x[feature] >= threshold`` and left otherwise. Leaf regions therefore tile
the feature space; the epsilon-closed boxes of :meth:`Forest.leaf_geometry`
realize the strict left-branch inequality as ``x <= threshold - epsilon``.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .documents import read_json, typed_fields, write_json

DEFAULT_EPSILON = 1e-6
_GEOMETRY_BLOCK = 1 << 16   # elements of one block of the leaf-compatibility build
_SIGNATURE_CHUNK = 4096   # (pair, target leaf) rows keyed together when finding leaf signatures
_DENSE_KEYS = 1 << 16   # key spaces up to this size are deduplicated by marking, not sorting

CONTINUOUS = "continuous"
BINARY = "binary"
DIRECTIONS = ("increase", "decrease", "to_one", "to_zero", "none")


class ForestFormatError(ValueError):
    """A forest document or structure failed validation."""


class DegenerateBoxError(ValueError):
    """Epsilon shrank a leaf interval to emptiness."""


@dataclass(frozen=True)
class FeatureMeta:
    """Static description of one input feature."""

    index: int
    name: str
    kind: str = CONTINUOUS
    mutable: bool = True
    beneficial: str = "none"
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        typed_fields(FeatureMeta, [vars(self)], "feature {index!r}: ")
        if self.kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"feature {self.name}: unknown kind {self.kind!r}")
        if self.beneficial not in DIRECTIONS:
            raise ValueError(f"feature {self.name}: unknown direction {self.beneficial!r}")
        if self.kind == BINARY and (self.lo, self.hi) != (0.0, 1.0):
            raise ValueError(f"feature {self.name}: binary features use the [0, 1] domain")
        if self.lo >= self.hi:
            raise ValueError(f"feature {self.name}: empty domain [{self.lo}, {self.hi}]")
        if self.beneficial == "none" and self.mutable:
            raise ValueError(f"feature {self.name}: mutable features need a beneficial direction")
        if self.kind == BINARY and self.beneficial in ("increase", "decrease"):
            raise ValueError(f"feature {self.name}: binary features use to_one/to_zero")
        if self.kind == CONTINUOUS and self.beneficial in ("to_one", "to_zero"):
            raise ValueError(f"feature {self.name}: continuous features use increase/decrease")

    @property
    def domain(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def beneficial_value(self) -> float:
        # binary only
        return 1.0 if self.beneficial == "to_one" else 0.0


@dataclass(frozen=True)
class Node:
    id: int
    feature: int
    threshold: float
    left: int
    right: int


@dataclass(frozen=True)
class Leaf:
    id: int
    predicted_class: int

    def __post_init__(self):
        # JSON's true and 1.0 equal 1 in Python, but they are no class
        if self.predicted_class not in (0, 1) or type(self.predicted_class) in (bool, float):
            raise ForestFormatError(f"leaf {self.id}: class must be 0 or 1, got {self.predicted_class!r}")


class Tree:
    """One proper binary tree, immutable after construction; its leaves' paths are read
    off ``Forest._leaf_paths``, and ``depth`` is the longest one's number of splits."""

    def __init__(self, root: int, nodes: list[Node], leaves: list[Leaf], weight: float = 1.0):
        if not 0 <= weight < math.inf:
            raise ForestFormatError(f"tree weight must be finite and nonnegative, got {weight}")
        self.root = root
        self.nodes = {n.id: n for n in nodes}
        self.leaves = {l.id: l for l in leaves}
        self.weight = weight
        if len(self.nodes) != len(nodes) or len(self.leaves) != len(leaves):
            raise ForestFormatError("duplicate node or leaf id")
        if set(self.nodes) & set(self.leaves):
            raise ForestFormatError("node and leaf ids must be disjoint")
        if not self.leaves:
            raise ForestFormatError("tree has no leaves")
        if self.root not in self.nodes and self.root not in self.leaves:
            raise ForestFormatError(f"root id {self.root} undefined")
        # one walk from the root: no id reached twice, no dangling child, none unreached
        self.depth = 0
        seen: set[int] = set()
        stack = [(root, 0)]
        while stack:
            ident, level = stack.pop()
            if ident in seen:
                raise ForestFormatError(f"id {ident} reached twice (not a tree)")
            seen.add(ident)
            if ident in self.leaves:
                self.depth = max(self.depth, level)
                continue
            node = self.nodes.get(ident)
            if node is None:
                raise ForestFormatError(f"dangling child id {ident}")
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
        unreachable = (set(self.nodes) | set(self.leaves)) - seen
        if unreachable:
            raise ForestFormatError(f"unreachable ids {sorted(unreachable)}")


class Forest:
    """An ordered list of trees over a shared feature space."""

    def __init__(self, trees: list[Tree], feature_metas: list[FeatureMeta]):
        if not trees:
            raise ForestFormatError("forest needs at least one tree")
        for j, meta in enumerate(feature_metas):
            if meta.index != j:
                raise ForestFormatError(f"feature meta {meta.name} out of order (index {meta.index} at {j})")
        self.trees = list(trees)
        self.feature_metas = list(feature_metas)
        self.num_features = len(feature_metas)
        self._leaf_geometry: dict[float, LeafGeometry] = {}
        self._split_gaps: dict[float, SplitGaps] = {}
        self._target_paths: dict[int, TargetPaths] = {}
        self._target_masks: dict[tuple[int, float], tuple[int, ...]] = {}
        self._scoring_plans: dict[tuple[int, int, int], ScoringPlan] = {}
        for t, tree in enumerate(self.trees):
            for node in tree.nodes.values():
                if not 0 <= node.feature < self.num_features:
                    raise ForestFormatError(f"node {node.id} in tree {t}: feature {node.feature} out of range")
                meta = self.feature_metas[node.feature]
                if not meta.lo < node.threshold < meta.hi:
                    raise ForestFormatError(
                        f"node {node.id} in tree {t}: threshold {node.threshold} outside domain"
                    )

    @property
    def num_trees(self) -> int:
        return len(self.trees)

    @property
    def domains(self) -> list[tuple[float, float]]:
        return [m.domain for m in self.feature_metas]

    def equal_weights(self) -> bool:
        return len({t.weight for t in self.trees}) == 1

    def _check_point(self, x) -> None:
        if len(x) != self.num_features:
            raise ValueError(f"point has {len(x)} coordinates, forest expects {self.num_features}")

    def predict(self, x) -> tuple[int, list[int]]:
        """Weighted majority vote. Returns (class, per-tree votes); ties go to class 0."""
        self._check_point(x)
        votes = [tree.leaves[leaf_of(tree, x)].predicted_class for tree in self.trees]
        return self.vote(votes), votes

    def vote(self, votes) -> int:
        """The class per-tree votes elect: weights summed in tree order, ties to class 0."""
        w1 = sum(t.weight for t, v in zip(self.trees, votes) if v == 1)
        w0 = sum(t.weight for t, v in zip(self.trees, votes) if v == 0)
        return 1 if _target_wins(w1, w0, 1) else 0

    @cached_property
    def _flat(self) -> _FlatTrees:
        feature, threshold, left, right, leaf_class, roots, owner, ident = ([] for _ in range(8))
        for t, tree in enumerate(self.trees):
            ids = [*tree.nodes, *tree.leaves]
            pos = dict(zip(ids, range(len(feature), len(feature) + len(ids))))
            roots.append(pos[tree.root])
            nodes, leaves = tree.nodes.values(), tree.leaves.values()
            # a leaf routes to itself, so extra routing steps leave it in place
            feature += [node.feature for node in nodes] + [0] * len(leaves)
            threshold += [node.threshold for node in nodes] + [0.0] * len(leaves)
            left += [pos[node.left] for node in nodes] + [pos[leaf.id] for leaf in leaves]
            right += [pos[node.right] for node in nodes] + [pos[leaf.id] for leaf in leaves]
            leaf_class += [0] * len(nodes) + [leaf.predicted_class for leaf in leaves]
            owner += [t] * len(ids)
            ident += ids
        feature, left, right, leaf_class, owner, ident = (
            np.array(column, dtype=np.intp)
            for column in (feature, left, right, leaf_class, owner, ident))
        return _FlatTrees(feature, np.array(threshold, dtype=float), left, right, leaf_class,
                          roots, owner, ident)

    @cached_property
    def _leaf_paths(self) -> _LeafPaths:
        """Every leaf's path from its root, read off one walk down all trees, level by level."""
        flat = self._flat
        n = len(flat.feature)
        node = np.full((n, max(1, max(tree.depth for tree in self.trees))), n, dtype=np.intp)
        right = np.zeros(node.shape, dtype=bool)
        frontier = np.array(flat.roots, dtype=np.intp)
        for k in range(node.shape[1]):
            frontier = frontier[flat.left[frontier] != frontier]   # the level's nodes
            parents = np.concatenate([frontier, frontier])
            children = np.concatenate([flat.left[frontier], flat.right[frontier]])
            node[children] = node[parents]
            right[children] = right[parents]
            node[children, k] = parents
            right[flat.right[frontier], k] = True
            frontier = children
        leaves = np.flatnonzero(flat.left == np.arange(n))
        count = itertools.count()   # zip stops at a tree's last leaf without drawing from it
        row = tuple(dict(zip(tree.leaves, count)) for tree in self.trees)
        return _LeafPaths(leaves, node[leaves], right[leaves], row)

    @cached_property
    def _path_lists(self) -> tuple[list, list, list, list]:
        """``_leaf_paths.node`` and ``.right`` and the flat entries' node ids and features as
        Python lists, for reads one step at a time."""
        flat, paths = self._flat, self._leaf_paths
        return paths.node.tolist(), paths.right.tolist(), flat.ident.tolist(), flat.feature.tolist()

    def predict_batch(self, X) -> np.ndarray:
        """Classes of the rows of X, exactly as :meth:`predict` gives them one at a time.

        Each tree routes all rows together, one level per step; tree weights
        are summed in tree order and ties go to class 0.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.num_features:
            raise ValueError(f"X has shape {X.shape}, forest expects (n, {self.num_features})")
        flat = self._flat
        rows = np.arange(len(X))
        w1 = np.zeros(len(X))
        w0 = np.zeros(len(X))
        for tree, root in zip(self.trees, flat.roots):
            idx = np.full(len(X), root, dtype=np.intp)
            for _ in range(tree.depth):
                go_right = X[rows, flat.feature[idx]] >= flat.threshold[idx]
                idx = np.where(go_right, flat.right[idx], flat.left[idx])
            votes = flat.leaf_class[idx]
            w1 += np.where(votes == 1, tree.weight, 0.0)
            w0 += np.where(votes == 0, tree.weight, 0.0)
        return _target_wins(w1, w0, 1).astype(int)

    def leaf_geometry(self, epsilon: float = DEFAULT_EPSILON) -> LeafGeometry:
        """Leaf boxes and leaf-compatibility bitsets, built once per epsilon.

        The table is shared by every caller; treat it as read-only.
        """
        geometry = self._leaf_geometry.get(epsilon)
        if geometry is None:
            geometry = _leaf_geometry(self, epsilon)
            self._leaf_geometry[epsilon] = geometry
        return geometry

    def split_gaps(self, epsilon: float = DEFAULT_EPSILON) -> SplitGaps:
        """Where a point lies in no leaf box of a tree, built once per epsilon (read-only)."""
        if epsilon not in self._split_gaps:
            self._split_gaps[epsilon] = _split_gaps(self, epsilon)
        return self._split_gaps[epsilon]

    def target_paths(self, target_class: int) -> TargetPaths:
        """The paths to one class's leaves as padded index arrays, built once per class
        and shared, read-only, by every caller."""
        paths = self._target_paths.get(target_class)
        if paths is None:
            paths = _target_paths(self, target_class)
            self._target_paths[target_class] = paths
        return paths

    def target_masks(self, target_class: int, epsilon: float = DEFAULT_EPSILON) -> tuple[int, ...]:
        """Per tree, the OR of its class leaves' ``leaf_geometry(epsilon)`` bits, built once
        per (class, epsilon)."""
        key = (target_class, epsilon)
        if key not in self._target_masks:
            bit = self.leaf_geometry(epsilon).bit
            self._target_masks[key] = tuple(sum(bit[t][leaf] for leaf in ids) for t, ids in
                                            enumerate(self.target_paths(target_class).leaves))
        return self._target_masks[key]

    def scoring_plan(self, target_class: int, E: int, eta: int) -> ScoringPlan:
        """The effort allocations grouped per tree by their effort at the features on the
        tree's paths to the class's leaves, built once per (class, E, eta) and shared,
        read-only, by every caller."""
        key = (target_class, E, eta)
        plan = self._scoring_plans.get(key)
        if plan is None:
            mutable = [meta.mutable for meta in self.feature_metas]
            plan = _scoring_plan(mutable, self.target_paths(target_class), E, eta)
            self._scoring_plans[key] = plan
        return plan


class LeafGeometry(NamedTuple):
    """The leaf boxes of a forest at one epsilon and which of them meet.

    Every leaf of the forest owns one bit of a Python int, ``bit[t][leaf_id]``;
    ``compatible[t][leaf_id]`` is the OR of the bits of the leaves in other
    trees whose boxes meet that leaf's box. Closed intervals that meet
    pairwise share a point, so leaves from distinct trees have a nonempty
    joint box iff every pair of them is compatible. ``lo`` and ``hi`` hold the
    boxes as (leaves, features) arrays, one row per leaf in bit order; a leaf's
    box as Python pairs is made when :meth:`box` first reads it, since a solve
    reads few of them.
    """

    bit: tuple[dict[int, int], ...]       # per tree, {leaf_id: the leaf's own bit}
    compatible: tuple[dict[int, int], ...]  # per tree, {leaf_id: bitset of compatible leaves}
    lo: np.ndarray                        # lo[g, j]: leaf g's lower bound on feature j
    hi: np.ndarray                        # hi[g, j]: its upper bound
    boxes: tuple[dict[int, tuple], ...]   # per tree, {leaf_id: box} of the leaves read so far

    def box(self, t: int, leaf_id: int) -> tuple[tuple[float, float], ...]:
        """The box of leaf ``leaf_id`` of tree t: one (lo, hi) pair per feature."""
        box = self.boxes[t].get(leaf_id)
        if box is None:
            g = self.bit[t][leaf_id].bit_length() - 1   # leaf g owns bit g
            box = self.boxes[t][leaf_id] = tuple(zip(self.lo[g].tolist(), self.hi[g].tolist()))
        return box


def _leaf_geometry(forest, epsilon) -> LeafGeometry:
    if not epsilon > 0:   # also rejects NaN, which would drop every left-branch bound
        raise ValueError("epsilon must be positive")
    domains, flat = forest.domains, forest._flat
    leaves, node, right, ids = forest._leaf_paths
    n, d = len(leaves), len(domains)
    # (features, leaves): each bound starts at the domain and is tightened by every real
    # step of the leaf's path that splits on its feature
    lo, hi = (np.repeat(np.array([dom[end] for dom in domains], dtype=float)[:, None], n, axis=1)
              for end in (0, 1))
    g, k = np.nonzero(node < len(flat.feature))
    at, went_right = node[g, k], right[g, k]
    split, threshold = flat.feature[at], flat.threshold[at]
    np.maximum.at(lo, (split[went_right], g[went_right]), threshold[went_right])
    went_left = ~went_right
    np.minimum.at(hi, (split[went_left], g[went_left]), threshold[went_left] - epsilon)
    empty = (lo > hi).any(axis=0)
    if empty.any():   # walk the first emptied leaf's path again, one bound at a time
        first, box = int(empty.argmax()), [list(dom) for dom in domains]
        for at, went_right in zip(node[first].tolist(), right[first].tolist()):
            j, cut = flat.feature[at].item(), flat.threshold[at].item()
            low, high = box[j]
            box[j] = low, high = (max(low, cut), high) if went_right else (low, min(high, cut - epsilon))
            if low > high:
                raise DegenerateBoxError(f"leaf {flat.ident[leaves[first]]}: feature {j} "
                                         f"interval [{low}, {high}] is empty")
    owner = flat.tree[leaves]
    rows = []
    # a block of rows at a time, so that no n x n temporary is made. Closed intervals meet
    # iff each starts at or before the other ends; when one block holds every row, the
    # second test is the first one transposed.
    step = max(1, _GEOMETRY_BLOCK // n)
    for a in range(0, n, step):
        b = min(a + step, n)
        meets = owner[a:b, None] != owner
        test = np.empty_like(meets)
        for j in range(d):
            meets &= np.less_equal(lo[j, a:b, None], hi[j], out=test)
        if b - a == n:
            meets = meets & meets.T
        else:
            for j in range(d):
                meets &= np.greater_equal(hi[j, a:b, None], lo[j], out=test)
        packed = np.packbits(meets, axis=1, bitorder="little")
        rows.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    # leaf g owns bit g
    bit = tuple({leaf_id: 1 << g for leaf_id, g in tree.items()} for tree in ids)
    compatible = tuple({leaf_id: rows[g] for leaf_id, g in tree.items()} for tree in ids)
    return LeafGeometry(bit, compatible, lo.T, hi.T, tuple({} for _ in ids))


class SplitGaps(NamedTuple):
    """The gaps of a forest's splits at one epsilon. A split's gap lies strictly between its
    threshold - epsilon and its threshold: a point there that reaches the split goes left
    but lies in no leaf box below it."""

    # per feature, its splits' thresholds ascending and their threshold - epsilon, then inf
    gaps: tuple[tuple[list[float], list[float]], ...]
    crowded: bool   # a bound of some leaf box lies in a gap on its feature

    def in_gap(self, x) -> bool:
        """Does some x_j lie in a gap of a split on feature j?"""
        return any(starts[bisect.bisect_right(ends, v)] < v   # the first threshold above v
                   for (ends, starts), v in zip(self.gaps, x))


def _split_gaps(forest, epsilon) -> SplitGaps:
    flat, geometry = forest._flat, forest.leaf_geometry(epsilon)
    inner = flat.left != np.arange(len(flat.left))   # a leaf routes to itself
    gaps = [(ends, np.append(ends - epsilon, math.inf)) for ends in
            (np.sort(flat.threshold[inner & (flat.feature == j)])
             for j in range(forest.num_features))]
    bounds = np.hstack((geometry.lo.T, geometry.hi.T))   # per feature, every leaf's bounds
    crowded = any((starts[np.searchsorted(ends, row, side="right")] < row).any()
                  for (ends, starts), row in zip(gaps, bounds))
    return SplitGaps(tuple((ends.tolist(), starts.tolist()) for ends, starts in gaps), crowded)


class TargetPaths(NamedTuple):
    """The root-to-leaf paths of one class's leaves, padded to one length.

    Row l of each array is leaf l of ``leaves``, taken tree by tree, and column
    k is step k of its path from the root. Past a path's end a step names
    ``len(nodes)``, which is no node, goes right and reads feature 0.
    """

    leaves: tuple[tuple[int, ...], ...]   # per tree, its leaf ids of the class, ascending
    nodes: tuple[tuple[int, int], ...]    # the (tree, node id) pairs the paths pass, each once
    node: np.ndarray      # [l, k]: the position in ``nodes`` of step k's node
    feature: np.ndarray   # [l, k]: the feature that node splits on
    right: np.ndarray     # [l, k]: the path goes right there


def _target_paths(forest, target_class) -> TargetPaths:
    flat = forest._flat
    leaves, node, right, _ = forest._leaf_paths
    owner, ident = flat.tree[leaves], flat.ident[leaves]
    rows = np.flatnonzero(flat.leaf_class[leaves] == target_class)
    rows = rows[np.lexsort((ident[rows], owner[rows]))]
    ends = np.cumsum(np.bincount(owner[rows], minlength=forest.num_trees)).tolist()
    ids = ident[rows].tolist()
    leaf_ids = tuple(tuple(ids[a:b]) for a, b in zip([0] + ends[:-1], ends))
    depth = max([1] + [tree.depth for tree, own in zip(forest.trees, leaf_ids) if own])
    steps = node[rows, :depth]
    real = steps < len(flat.feature)
    # the nodes the paths pass, each once, in the order the paths first reach them
    passed, first = np.unique(steps[real], return_index=True)
    passed = passed[np.argsort(first, kind="stable")]
    number = np.full(len(flat.feature) + 1, len(passed), dtype=np.intp)
    number[passed] = np.arange(len(passed))
    nodes = tuple(zip(flat.tree[passed].tolist(), flat.ident[passed].tolist()))
    paths = TargetPaths(leaf_ids, nodes, number[steps],
                        np.where(real, flat.feature.take(steps, mode="clip"), 0),
                        right[rows, :depth] | ~real)
    for array in paths[2:]:
        array.flags.writeable = False
    return paths


def enumerate_effort_allocations(d: int, E: int, eta: int, mutable_mask=None):
    """All effort vectors with sum <= eta, entries in 0..E, zero on immutables.

    Yields each exactly once, in lexicographic order (all-zero vector first).
    """
    mask = list(mutable_mask) if mutable_mask is not None else [True] * d
    if len(mask) != d:
        raise ValueError("mutable_mask length must equal d")
    # every prefix with the budget it leaves, extended one feature at a time
    prefixes = [((), eta)]
    for movable in mask:
        prefixes = [(prefix + (e,), left - e) for prefix, left in prefixes
                    for e in range(min(E, left) + 1 if movable else 1)]
    for prefix, _ in prefixes:
        yield prefix


class ScoringPlan(NamedTuple):
    """A forest's effort allocations for one (target class, E, eta), grouped tree by tree
    and target leaf by target leaf.

    A tree's value under an allocation depends only on the allocation's effort at the
    features on the tree's paths to the class's leaves, its signature there. Pair p is
    one tree together with one of its signatures; pairs are numbered tree by tree. A
    target leaf's path probability depends only on the effort at the features on its own
    path: a leaf signature is one target leaf together with its effort level at each step
    of its path. Pairs share leaf signatures, so a solve computes each product once and
    reads a pair's leaves through ``slot``.
    """

    allocations: tuple[tuple[int, ...], ...]   # in lexicographic order
    pair: np.ndarray     # [a, t]: the pair of tree t and allocation a's signature there
    tree: np.ndarray     # [p]: pair p's tree
    slot: np.ndarray     # [p, k]: the leaf signature of pair p's k-th target leaf, -1 past the last
    step: np.ndarray     # [k, s]: signature s's factor at step k in ``_path_products``' table:
                         # (node, plus len(nodes) + 1 going left) * (E + 1) + level (0 past the end)


def _unique_rows(key, size, columns, width):
    """np.unique's first indices and inverse of the rows of (key, *columns), key in
    0..size-1 and each column in 0..width-1, read as one mixed-radix integer; before it
    could pass int64, the keys so far are renumbered densely, so it stays exact. A small
    key space is marked instead of sorted, with the same result."""
    for column in columns:
        if size * width > 1 << 63:
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
            size = len(key)
        key = key * width + column
        size *= width
    if size > max(_DENSE_KEYS, 4 * len(key)):
        _, index, inverse = np.unique(key, return_index=True, return_inverse=True)
        return index, inverse.reshape(-1)
    # a small key space: mark each key's first row instead of sorting the rows
    first = np.full(size, len(key), dtype=np.intp)
    np.minimum.at(first, key, np.arange(len(key)))
    present = np.flatnonzero(first < len(key))
    number = np.empty(size, dtype=np.intp)
    number[present] = np.arange(len(present))
    return first[present], number[key]


def _scoring_plan(mutable, paths: TargetPaths, E, eta) -> ScoringPlan:
    d = len(mutable)
    allocations = tuple(enumerate_effort_allocations(d, E, eta, mutable))
    effort = np.array(allocations, dtype=np.intp).reshape(len(allocations), d)
    width = E + 1
    sizes = np.array([len(ids) for ids in paths.leaves], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    real = paths.node < len(paths.nodes)   # the steps before each path's end
    R, A = len(sizes), len(allocations)
    # a tree's signature: the allocation's effort at the mutable features on its target
    # paths (no allocation puts effort on an immutable feature), keyed below the tree for
    # all (tree, allocation) rows at once; an unused feature adds a 0 digit
    uses = np.zeros((R, d), dtype=bool)
    uses[np.repeat(np.arange(R), sizes)[np.nonzero(real)[0]], paths.feature[real]] = True
    index, inverse = _unique_rows(np.repeat(np.arange(R, dtype=np.int64), A), R,
                                  ((uses[:, j, None] * effort[:, j]).reshape(-1)
                                   for j in range(d) if mutable[j] and uses[:, j].any()), width)
    pair = np.ascontiguousarray(inverse.reshape(R, A).T, dtype=np.int32)
    tree_of, first = np.divmod(index, A)   # the first allocation with each signature
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
    side = np.where(paths.right, paths.node, paths.node + len(paths.nodes) + 1)
    step = np.ascontiguousarray((side[leaf] * width + level).T, dtype=np.int32 if 2 * (
        len(paths.nodes) + 1) * width <= 1 << 31 else np.intp)   # int32 where it fits
    plan = ScoringPlan(allocations, pair, tree_of, slot, step)
    for array in plan[1:]:
        array.flags.writeable = False
    return plan


class _FlatTrees(NamedTuple):
    """All trees' nodes and leaves in flat arrays, tree by tree and in each tree its nodes,
    then its leaves, in dict order; child and root entries index them."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray
    roots: list[int]
    tree: np.ndarray    # the entry's tree
    ident: np.ndarray   # its node or leaf id in that tree


class _LeafPaths(NamedTuple):
    """Every leaf's path from its root, one row per leaf in flat order (the leaf-bit order)."""

    leaves: np.ndarray   # [g]: leaf g's flat entry
    node: np.ndarray     # [g, k]: the flat entry of step k's node; len(flat) past the path's end
    right: np.ndarray    # [g, k]: the path goes right there (False past the end)
    row: tuple[dict[int, int], ...]   # per tree, {leaf_id: its row g}


def _target_wins(w_target, w_other, target):
    """The weighted vote's outcome: ties classify to 0, so target 1 needs a strict majority.

    Works elementwise on numpy arrays of weight sums too.
    """
    return w_target >= w_other if target == 0 else w_target > w_other


def leaf_of(tree: Tree, x) -> int:
    """Follow the splits from the root; returns the id of the leaf containing x."""
    ident = tree.root
    while ident in tree.nodes:
        node = tree.nodes[ident]
        ident = node.right if x[node.feature] >= node.threshold else node.left
    return ident


def _intersect(box, other):
    """Coordinate-wise intersection of two boxes; None if empty."""
    out = []
    for (alo, ahi), (blo, bhi) in zip(box, other):
        lo = alo if alo >= blo else blo
        hi = ahi if ahi <= bhi else bhi
        if lo > hi:
            return None
        out.append((lo, hi))
    return out


def boxes_intersect(boxes):
    """Coordinate-wise intersection of per-feature interval boxes; None if empty."""
    if not boxes:
        raise ValueError("no boxes given")
    out = [(-math.inf, math.inf)] * len(boxes[0])
    for box in boxes:
        out = _intersect(out, box)
        if out is None:
            return None
    return out


# --- JSON document round trip -------------------------------------------------

def forest_to_dict(forest: Forest) -> dict:
    return {
        "num_features": forest.num_features,
        "features": [asdict(m) for m in forest.feature_metas],
        "trees": [
            {
                "weight": tree.weight,
                "root": tree.root,
                "nodes": [asdict(n) for n in sorted(tree.nodes.values(), key=lambda n: n.id)],
                "leaves": [{"id": l.id, "class": l.predicted_class}
                           for l in sorted(tree.leaves.values(), key=lambda l: l.id)],
            }
            for tree in forest.trees
        ],
    }


def forest_from_dict(doc: dict) -> Forest:
    """The forest of a :func:`forest_to_dict` document; a bad field raises KeyError or TypeError."""
    metas = [FeatureMeta(**feature) for feature in doc["features"]]
    if doc["num_features"] != len(metas):
        raise ForestFormatError("num_features does not match the features list")
    tdocs, trees = doc["trees"], []
    try:   # each field is checked in all trees at once, as a forest is loaded per shift
        roots, weights = typed_fields(Tree, tdocs, "", ("root", "weight")).values()
        nodes = iter(map(Node, *typed_fields(
            Node, [n for d in tdocs for n in d["nodes"]], "node {id!r}: ").values()))
        ids = iter(typed_fields(Leaf, [l for d in tdocs for l in d["leaves"]], "leaf {id!r}: ", ("id",))["id"])
        for tdoc, root, weight in zip(tdocs, roots, weights):
            leaves = [Leaf(next(ids), l["class"]) for l in tdoc["leaves"]]
            trees.append(Tree(root, list(itertools.islice(nodes, len(tdoc["nodes"]))), leaves, weight))
    except ValueError as exc:   # name the tree of a mistyped record, or else the tree being built
        t = next((t for t, d in enumerate(tdocs) for r in (d, *d["nodes"], *d["leaves"])
                  if r is getattr(exc, "record", None)), len(trees))
        raise ForestFormatError(f"tree {t}: {exc}") from exc
    return Forest(trees, metas)


def save_forest(forest: Forest, path) -> None:
    write_json(path, forest_to_dict(forest))


def load_forest(path) -> Forest:
    return read_json(path, forest_from_dict, ForestFormatError)
