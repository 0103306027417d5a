"""Binary-split tree ensembles: structure, prediction, leaf geometry, JSON round trip.

Routing semantics everywhere: an observation goes right at a node iff
``x[feature] >= threshold`` and left otherwise. Leaf regions therefore tile
the feature space; the epsilon-closed boxes returned by :func:`leaf_box`
realize the strict left-branch inequality as ``x <= threshold - epsilon``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

DEFAULT_EPSILON = 1e-6
_GEOMETRY_BLOCK = 1 << 16   # elements of one block of the leaf-compatibility build

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
        if self.predicted_class not in (0, 1):
            raise ForestFormatError(f"leaf {self.id}: class must be 0 or 1")


class Tree:
    """One proper binary tree. Immutable after construction.

    ``paths`` maps each leaf id to the root-to-leaf path as a tuple of
    ``(node_id, went_right)`` pairs (the left/right ancestor sets).
    """

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
        self.paths = self._trace_paths()
        self.depth = max((len(p) for p in self.paths.values()), default=0)

    def _trace_paths(self) -> dict[int, tuple[tuple[int, bool], ...]]:
        if not self.leaves:
            raise ForestFormatError("tree has no leaves")
        if self.root not in self.nodes and self.root not in self.leaves:
            raise ForestFormatError(f"root id {self.root} undefined")
        paths: dict[int, tuple[tuple[int, bool], ...]] = {}
        seen: set[int] = set()
        stack: list[tuple[int, tuple[tuple[int, bool], ...]]] = [(self.root, ())]
        while stack:
            ident, path = stack.pop()
            if ident in seen:
                raise ForestFormatError(f"id {ident} reached twice (not a tree)")
            seen.add(ident)
            if ident in self.leaves:
                paths[ident] = path
                continue
            node = self.nodes.get(ident)
            if node is None:
                raise ForestFormatError(f"dangling child id {ident}")
            stack.append((node.left, path + ((node.id, False),)))
            stack.append((node.right, path + ((node.id, True),)))
        unreachable = (set(self.nodes) | set(self.leaves)) - seen
        if unreachable:
            raise ForestFormatError(f"unreachable ids {sorted(unreachable)}")
        return paths


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
        self._target_paths: dict[int, TargetPaths] = {}
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
        w1 = sum(t.weight for t, v in zip(self.trees, votes) if v == 1)
        w0 = sum(t.weight for t, v in zip(self.trees, votes) if v == 0)
        return (1 if _target_wins(w1, w0, 1) else 0), votes

    @cached_property
    def _flat(self) -> _FlatTrees:
        feature, threshold, left, right, leaf_class, roots = [], [], [], [], [], []
        for tree in self.trees:
            ids = list(tree.nodes) + list(tree.leaves)
            pos = {ident: len(feature) + k for k, ident in enumerate(ids)}
            roots.append(pos[tree.root])
            for node in tree.nodes.values():
                feature.append(node.feature)
                threshold.append(node.threshold)
                left.append(pos[node.left])
                right.append(pos[node.right])
                leaf_class.append(0)
            for leaf in tree.leaves.values():
                # a leaf routes to itself, so extra routing steps leave it in place
                feature.append(0)
                threshold.append(0.0)
                left.append(pos[leaf.id])
                right.append(pos[leaf.id])
                leaf_class.append(leaf.predicted_class)
        return _FlatTrees(np.array(feature, dtype=np.intp), np.array(threshold, dtype=float),
                          np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                          np.array(leaf_class, dtype=np.intp), roots)

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
            geometry = _leaf_geometry(self.trees, self.domains, epsilon)
            self._leaf_geometry[epsilon] = geometry
        return geometry

    def target_paths(self, target_class: int) -> TargetPaths:
        """The paths to one class's leaves as padded index arrays, built once per class
        and shared, read-only, by every caller."""
        paths = self._target_paths.get(target_class)
        if paths is None:
            paths = _target_paths(self.trees, target_class)
            self._target_paths[target_class] = paths
        return paths

    def scoring_plan(self, target_class: int, E: int, eta: int) -> ScoringPlan:
        """The effort allocations grouped per tree by their effort at the features on the
        tree's paths to the class's leaves, built once per (class, E, eta) and shared,
        read-only, by every caller."""
        key = (target_class, E, eta)
        plan = self._scoring_plans.get(key)
        if plan is None:
            mutable = [meta.mutable for meta in self.feature_metas]
            plan = _scoring_plan(self.trees, mutable, target_class, E, eta)
            self._scoring_plans[key] = plan
        return plan


class LeafGeometry(NamedTuple):
    """The leaf boxes of a forest at one epsilon and which of them meet.

    Every leaf of the forest owns one bit of a Python int, ``bit[t][leaf_id]``;
    ``compatible[t][leaf_id]`` is the OR of the bits of the leaves in other
    trees whose boxes meet that leaf's box. Closed intervals that meet
    pairwise share a point, so leaves from distinct trees have a nonempty
    joint box iff every pair of them is compatible. ``lo`` and ``hi`` hold the
    same boxes as (leaves, features) arrays, one row per leaf in bit order.
    """

    boxes: tuple[dict[int, tuple], ...]   # per tree, {leaf_id: box as (lo, hi) pairs}
    bit: tuple[dict[int, int], ...]       # per tree, {leaf_id: the leaf's own bit}
    compatible: tuple[dict[int, int], ...]  # per tree, {leaf_id: bitset of compatible leaves}
    lo: np.ndarray                        # lo[g, j]: leaf g's lower bound on feature j
    hi: np.ndarray                        # hi[g, j]: its upper bound


def _leaf_geometry(trees, domains, epsilon) -> LeafGeometry:
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
    return LeafGeometry(boxes, tuple(bit), tuple(compatible), lo.T, hi.T)


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


def _target_paths(trees, target_class) -> TargetPaths:
    leaves = tuple(tuple(sorted(leaf_id for leaf_id, leaf in tree.leaves.items()
                                if leaf.predicted_class == target_class)) for tree in trees)
    depth = max([1] + [trees[t].depth for t, ids in enumerate(leaves) if ids])
    paths = [[(t, node_id, went_right) for node_id, went_right in trees[t].paths[leaf_id]]
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


class ScoringPlan(NamedTuple):
    """A forest's effort allocations for one (target class, E, eta), grouped tree by tree.

    A tree's value under an allocation depends only on the allocation's effort at the
    features on the tree's paths to the class's leaves, its signature there. Pair p is
    one tree together with one of its signatures; pairs are numbered tree by tree.
    """

    allocations: tuple[tuple[int, ...], ...]   # in lexicographic order
    effort: np.ndarray   # [a, j]: allocation a's effort at feature j
    pair: np.ndarray     # [a, t]: the pair of tree t and allocation a's signature there
    tree: np.ndarray     # [p]: pair p's tree
    first: np.ndarray    # [p]: the first allocation with pair p's signature


def _scoring_plan(trees, mutable, target_class, E, eta) -> ScoringPlan:
    d = len(mutable)
    allocations = tuple(enumerate_effort_allocations(d, E, eta, mutable))
    effort = np.array(allocations, dtype=np.intp).reshape(len(allocations), d)
    width = E + 1
    pair = np.empty((len(allocations), len(trees)), dtype=np.int32)
    tree_of, first = [], []
    for t, tree in enumerate(trees):
        features = sorted({tree.nodes[node_id].feature
                           for leaf_id, leaf in tree.leaves.items()
                           if leaf.predicted_class == target_class
                           for node_id, _ in tree.paths[leaf_id]})
        # the signature as one mixed-radix integer; before it could pass int64, the keys
        # so far are renumbered densely (fewer than the allocations), so it stays exact
        key, size = np.zeros(len(allocations), dtype=np.int64), 1
        for j in features:
            if not mutable[j]:
                continue   # no allocation puts effort there
            if size * width > 1 << 63:
                key = np.unique(key, return_inverse=True)[1].reshape(-1)
                size = len(allocations)
            key = key * width + effort[:, j]
            size *= width
        _, index, inverse = np.unique(key, return_index=True, return_inverse=True)
        pair[:, t] = inverse.reshape(-1) + len(first)
        first.extend(index.tolist())
        tree_of.extend([t] * len(index))
    plan = ScoringPlan(allocations, effort, pair, np.array(tree_of, dtype=np.intp),
                       np.array(first, dtype=np.intp))
    for array in plan[1:]:
        array.flags.writeable = False
    return plan


class _FlatTrees(NamedTuple):
    """All trees' nodes and leaves in flat arrays; child and root entries index them."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray
    roots: list[int]


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


def leaf_box(tree: Tree, leaf_id: int, domains, epsilon: float = DEFAULT_EPSILON):
    """Axis-aligned closed box implied by a leaf's ancestor splits.

    Right ancestors impose ``x >= threshold``; left ancestors impose
    ``x <= threshold - epsilon``. Features absent from the path keep their
    full domain.
    """
    if not epsilon > 0:   # also rejects NaN, which would drop every left-branch bound
        raise ValueError("epsilon must be positive")
    box = [list(dom) for dom in domains]
    for node_id, went_right in tree.paths[leaf_id]:
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
        "features": [
            {
                "index": m.index,
                "name": m.name,
                "kind": m.kind,
                "mutable": m.mutable,
                "beneficial": m.beneficial,
                "lo": m.lo,
                "hi": m.hi,
            }
            for m in forest.feature_metas
        ],
        "trees": [
            {
                "weight": tree.weight,
                "root": tree.root,
                "nodes": [
                    {
                        "id": n.id,
                        "feature": n.feature,
                        "threshold": n.threshold,
                        "left": n.left,
                        "right": n.right,
                    }
                    for n in sorted(tree.nodes.values(), key=lambda n: n.id)
                ],
                "leaves": [
                    {"id": l.id, "class": l.predicted_class}
                    for l in sorted(tree.leaves.values(), key=lambda l: l.id)
                ],
            }
            for tree in forest.trees
        ],
    }


def forest_from_dict(doc: dict) -> Forest:
    try:
        metas = [
            FeatureMeta(
                index=f["index"],
                name=f["name"],
                kind=f.get("kind", CONTINUOUS),
                mutable=f.get("mutable", True),
                beneficial=f.get("beneficial", "none"),
                lo=f.get("lo", 0.0),
                hi=f.get("hi", 1.0),
            )
            for f in doc["features"]
        ]
        if doc["num_features"] != len(metas):
            raise ForestFormatError("num_features does not match the features list")
        trees = []
        for t, tdoc in enumerate(doc["trees"]):
            try:
                nodes = [
                    Node(n["id"], n["feature"], float(n["threshold"]), n["left"], n["right"])
                    for n in tdoc["nodes"]
                ]
                leaves = [Leaf(l["id"], l["class"]) for l in tdoc["leaves"]]
                trees.append(Tree(tdoc["root"], nodes, leaves, float(tdoc.get("weight", 1.0))))
            except ForestFormatError as exc:
                raise ForestFormatError(f"tree {t}: {exc}") from exc
        return Forest(trees, metas)
    except (KeyError, TypeError) as exc:
        raise ForestFormatError(f"malformed forest document: missing or bad field {exc}") from exc


def save_forest(forest: Forest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(forest_to_dict(forest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_forest(path) -> Forest:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ForestFormatError(f"{path}: not valid JSON at line {exc.lineno}") from exc
    return forest_from_dict(doc)
