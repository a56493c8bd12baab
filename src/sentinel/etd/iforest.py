"""Isolation forest built from scratch.

Each tree partitions a random subsample with uniformly random
(feature, split-value) choices; anomalous points isolate in short paths.
The anomaly score is 2^(-E[h(x)] / c(psi)) where c(n) is the average
unsuccessful-search path length of a binary search tree.

The forest is held as one table of parallel node arrays, the layout of
scikit-learn's trees, so a batch of rows walks every tree at once in
numpy instead of one Python loop per row and tree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

EULER_GAMMA = 0.5772156649015329


@functools.lru_cache(maxsize=None)
def _harmonic(n: int) -> float:
    # Exact for the subsample sizes we actually use; the asymptotic form
    # only kicks in for very large n where its error is negligible.
    if n < 4096:
        return sum(1.0 / k for k in range(1, n + 1))
    return math.log(n) + EULER_GAMMA + 1.0 / (2 * n)


def avg_path_length(n: int) -> float:
    """c(n): expected path length normalizer; c(1)=0, c(2)=1."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * _harmonic(n - 1) - 2.0 * (n - 1) / n


# Rows walked through the forest at once.  Bounds the (rows x trees)
# temporaries of a large batch; 256 rows by 100 trees stay in cache, and
# blocks of 1024 walked about half as fast per row on a 2-core x86 VM.
_WALK_ROWS = 256


class _TreeLists:
    """One tree's nodes as parallel lists, appended depth first with the
    left subtree before the right.  Both children of a new node point to
    itself; a split's caller then sets them."""

    def __init__(self):
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.size: List[int] = []
        self.leaf_value: List[float] = []
        self.depth = 0  # largest leaf depth

    def _add(self, feature: int, threshold: float, size: int, leaf_value: float) -> int:
        node = len(self.feature)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(node)
        self.right.append(node)
        self.size.append(size)
        self.leaf_value.append(leaf_value)
        return node

    def leaf(self, depth: int, size: int) -> int:
        self.depth = max(self.depth, depth)
        return self._add(0, 0.0, size, depth + avg_path_length(size))

    def split(self, feature: int, threshold: float) -> int:
        return self._add(feature, threshold, 0, 0.0)


@dataclass
class IsolationForestModel:
    """The trees stacked into one padded node table.

    Tree ``t`` owns slots ``t * stride`` up to ``(t + 1) * stride``, root
    first.  Row ``i`` of ``children`` holds the table indices of slot
    ``i``'s left and right child; a leaf, like an unused padding slot,
    points to itself, so ``depth`` steps from the roots land every row on
    its leaf in every tree.  ``leaf_value`` is a leaf's depth plus
    c(size), the path length of a row ending there, and ``size`` the
    number of training rows that reached it.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    size: np.ndarray
    leaf_value: np.ndarray
    stride: int
    depth: int
    subsample: int
    tree_count: int
    c_psi: float
    seed: int
    dim: int

    @classmethod
    def from_trees(cls, trees: List[_TreeLists], **meta) -> "IsolationForestModel":
        if not trees:
            raise ValueError("an isolation forest needs at least one tree")
        stride = max(len(tree.feature) for tree in trees)
        slots = np.arange(len(trees) * stride)
        table = {
            "feature": np.zeros(slots.size, dtype=np.intp),
            "threshold": np.zeros(slots.size),
            "children": np.repeat(slots[:, None], 2, axis=1),
            "size": np.zeros(slots.size, dtype=np.intp),
            "leaf_value": np.zeros(slots.size),
        }
        for t, tree in enumerate(trees):
            base = t * stride
            used = slice(base, base + len(tree.feature))
            for name in ("feature", "threshold", "size", "leaf_value"):
                table[name][used] = getattr(tree, name)
            table["children"][used, 0] = np.add(tree.left, base)
            table["children"][used, 1] = np.add(tree.right, base)
        depth = max(tree.depth for tree in trees)
        return cls(stride=stride, depth=depth, **table, **meta)

    @property
    def roots(self) -> np.ndarray:
        return np.arange(0, self.feature.size, self.stride)

    def to_obj(self):
        """The nested ``{"f","v","l","r"}`` / ``{"n"}`` form stored in artifacts."""

        def nest_tree(base):
            # One tree's lists at a time: converting the whole table at
            # once raised the peak RSS of a daemon retraining every 3 s
            # from 130 to 142 MB.
            used = slice(base, base + self.stride)
            feature, threshold = self.feature[used].tolist(), self.threshold[used].tolist()
            size = self.size[used].tolist()
            left, right = (self.children[used] - base).T.tolist()

            def nest(node):
                if left[node] == node:
                    return {"n": size[node]}
                return {"f": feature[node], "v": threshold[node],
                        "l": nest(left[node]), "r": nest(right[node])}

            return nest(0)

        return {
            "subsample": self.subsample,
            "tree_count": self.tree_count,
            "c_psi": self.c_psi,
            "seed": self.seed,
            "dim": self.dim,
            "trees": [nest_tree(root) for root in self.roots.tolist()],
        }

    @classmethod
    def from_obj(cls, obj) -> "IsolationForestModel":
        def unnest(tree, node, depth):
            if "n" in node:
                return tree.leaf(depth, int(node["n"]))
            index = tree.split(int(node["f"]), float(node["v"]))
            tree.left[index] = unnest(tree, node["l"], depth + 1)
            tree.right[index] = unnest(tree, node["r"], depth + 1)
            return index

        trees = []
        for root in obj["trees"]:
            trees.append(_TreeLists())
            unnest(trees[-1], root, 0)
        return cls.from_trees(
            trees,
            subsample=int(obj["subsample"]),
            tree_count=int(obj["tree_count"]),
            c_psi=float(obj["c_psi"]),
            seed=int(obj["seed"]),
            dim=int(obj["dim"]),
        )


def _grow(tree: _TreeLists, X: np.ndarray, rng: np.random.Generator, depth: int, cap: int) -> int:
    n = X.shape[0]
    if n <= 1 or depth >= cap:
        return tree.leaf(depth, n)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    splittable = np.nonzero(hi > lo)[0]
    if splittable.size == 0:  # all points identical
        return tree.leaf(depth, n)
    feat = int(rng.choice(splittable))
    value = float(rng.uniform(lo[feat], hi[feat]))
    mask = X[:, feat] < value
    node = tree.split(feat, value)
    tree.left[node] = _grow(tree, X[mask], rng, depth + 1, cap)
    tree.right[node] = _grow(tree, X[~mask], rng, depth + 1, cap)
    return node


def build_iforest(
    X: np.ndarray,
    tree_count: int = 100,
    subsample: int = 256,
    seed: int = 0,
) -> IsolationForestModel:
    """Build the forest; deterministic for a given seed."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 rows to build an isolation forest")
    rng = np.random.default_rng(seed)
    psi = min(subsample, X.shape[0])
    cap = math.ceil(math.log2(psi)) if psi > 1 else 1
    trees = []
    for _ in range(tree_count):
        if X.shape[0] > psi:
            idx = rng.choice(X.shape[0], size=psi, replace=False)
            sample = X[idx]
        else:
            sample = X
        trees.append(_TreeLists())
        _grow(trees[-1], sample, rng, 0, cap)
    return IsolationForestModel.from_trees(
        trees, subsample=psi, tree_count=tree_count,
        c_psi=avg_path_length(psi), seed=seed, dim=X.shape[1],
    )


def iforest_scores(model: IsolationForestModel, Z: np.ndarray) -> np.ndarray:
    """Anomaly score in (0,1) of each row of ``Z``; higher isolates faster.

    A row goes left when its split value is below the threshold, so NaN
    goes right, as in a per-node walk.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != model.dim:
        raise ValueError(f"expected rows of dimension {model.dim}, got shape {Z.shape}")
    roots = model.roots
    children = model.children.ravel()  # slot i's children at 2i (left) and 2i+1 (right)
    total = np.empty(Z.shape[0])
    for start in range(0, Z.shape[0], _WALK_ROWS):
        block = Z[start:start + _WALK_ROWS]
        values = block.ravel()  # row-major: feature f of row r at r * dim + f
        row_base = (np.arange(block.shape[0]) * model.dim)[:, None]
        node = np.broadcast_to(roots, (block.shape[0], roots.size))
        for _ in range(model.depth):
            go_right = ~(values[row_base + model.feature[node]] < model.threshold[node])
            node = children[2 * node + go_right]
        total[start:start + block.shape[0]] = model.leaf_value[node].sum(axis=1)
    return 2.0 ** (-(total / roots.size) / model.c_psi)


def iforest_score(model: IsolationForestModel, x: np.ndarray) -> float:
    """Anomaly score of one row: a batch of one."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"expected dimension {model.dim}, got shape {x.shape}")
    return float(iforest_scores(model, x[None, :])[0])
