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
import json
import math
from dataclasses import dataclass

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
    def from_nodes(cls, tree_count: int, stride: int, splits, leaves, **meta) -> "IsolationForestModel":
        """The padded table of ``tree_count`` trees of at most ``stride`` nodes.

        ``splits`` holds ``(tree, slot, feature, threshold, left)`` and
        ``leaves`` ``(tree, slot, size, depth)`` tuples of parallel arrays
        (``tree`` and ``depth`` may each be one number), where ``slot``
        counts from a tree's root, 0.  A split's children take slots
        ``left`` and ``left + 1`` of its tree; a leaf's value is
        depth + c(size).
        """
        if tree_count < 1:
            raise ValueError("an isolation forest needs at least one tree")
        total = tree_count * stride
        feature, size = np.zeros(total, dtype=np.intp), np.zeros(total, dtype=np.intp)
        threshold, leaf_value = np.zeros(total), np.zeros(total)
        children = np.arange(2 * total).reshape(total, 2)
        children //= 2  # every slot its own child until a split sets them
        for tree, slot, split_feature, split_value, left in splits:
            base = tree * stride
            at = base + slot
            feature[at], threshold[at] = split_feature, split_value
            children[at, 0] = base + left
            children[at, 1] = base + left + 1
        for tree, slot, leaf_size, depth in leaves:
            at = tree * stride + slot
            sizes, which = np.unique(leaf_size, return_inverse=True)
            size[at] = leaf_size
            leaf_value[at] = depth + np.array([avg_path_length(int(n)) for n in sizes])[which]
        return cls(feature=feature, threshold=threshold, children=children, size=size,
                   leaf_value=leaf_value, stride=stride, tree_count=tree_count, **meta)

    @property
    def roots(self) -> np.ndarray:
        return np.arange(0, self.feature.size, self.stride)

    def to_json(self) -> str:
        """The nested ``{"f","l","r","v"}`` / ``{"n"}`` form stored in
        artifacts, as ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
        writes it."""
        head = json.dumps({"c_psi": self.c_psi, "dim": self.dim, "seed": self.seed,
                           "subsample": self.subsample, "tree_count": self.tree_count},
                          sort_keys=True, separators=(",", ":"))
        trees = ",".join(self._tree_json(root) for root in self.roots.tolist())
        return f'{head[:-1]},"trees":[{trees}]}}'  # "trees" sorts last

    def _tree_json(self, base: int) -> str:
        # One tree's lists at a time: converting the whole table at once
        # raised the peak RSS of a daemon retraining every 3 s from 130 to
        # 142 MB.
        used = slice(base, base + self.stride)
        left, right = (self.children[used] - base).T.tolist()
        feature, size = self.feature[used].tolist(), self.size[used].tolist()
        threshold = self.threshold[used]
        # ``str`` writes a finite float as ``json.dumps`` does, but not NaN
        # or the infinities.
        threshold = threshold.tolist() if np.isfinite(threshold).all() else _json_numbers(threshold)
        # Preorder with an explicit stack of nodes still to open and of
        # text to write once the subtrees above it in the stack are done.
        out, stack = [], [0]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
            elif left[node] == node:
                out.append(f'{{"n":{size[node]}}}')
            else:
                out.append(f'{{"f":{feature[node]},"l":')
                stack += (f',"v":{threshold[node]}}}', right[node], ',"r":', left[node])
        return "".join(out)

    @classmethod
    def from_obj(cls, obj) -> "IsolationForestModel":
        # Each tree's nodes as flat lists of numbers: three integers and a
        # threshold per split, three integers per leaf.  They become arrays
        # one tree at a time as the table fills; holding every tree's
        # arrays until then left a daemon about 0.15 MB larger.
        trees, stride, depth = [], 1, 0
        for root in obj["trees"]:
            # Level by level, as ``build_iforest`` numbers the slots.
            split, threshold, leaf = [], [], []
            level, level_depth, start = [root], 0, 0
            while level:
                below = []
                for slot, node in enumerate(level, start):
                    if "n" in node:
                        leaf += (slot, node["n"], level_depth)
                    else:
                        split += (slot, node["f"], start + len(level) + len(below))
                        threshold.append(node["v"])
                        below += (node["l"], node["r"])
                start += len(level)
                level, level_depth = below, level_depth + 1
            trees.append((split, threshold, leaf))
            stride, depth = max(stride, start), max(depth, level_depth - 1)

        def splits():
            for tree, (split, threshold, _) in enumerate(trees):
                slot, feature, left = np.array(split, dtype=np.intp).reshape(-1, 3).T
                yield tree, slot, feature, np.array(threshold, dtype=float), left

        leaves = ((tree, *np.array(leaf, dtype=np.intp).reshape(-1, 3).T)
                  for tree, (_, _, leaf) in enumerate(trees))
        return cls.from_nodes(
            len(trees), stride, splits(), leaves,
            depth=depth,
            subsample=int(obj["subsample"]),
            c_psi=float(obj["c_psi"]),
            seed=int(obj["seed"]),
            dim=int(obj["dim"]),
        )


def _json_numbers(values: np.ndarray) -> list:
    """Each number's text as ``json.dumps`` writes it."""
    return json.dumps(values.tolist(), separators=(",", ":"))[1:-1].split(",")


def build_iforest(
    X: np.ndarray,
    tree_count: int = 100,
    subsample: int = 256,
    seed: int = 0,
) -> IsolationForestModel:
    """Build the forest; deterministic for a given seed.

    All trees grow together, one level per pass.  The sample rows of the
    nodes still open lie in ``rows`` one node after another, so each
    node's feature ranges are one ``reduceat`` over its segment, and a
    stable sort by child moves every row to its child's segment.
    Liu, Ting & Zhou (ICDM 2008) ask for uniformly random splits, not an
    order of draws, so a level's features and thresholds are each one
    vector draw.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 rows to build an isolation forest")
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    psi = min(subsample, n)
    cap = math.ceil(math.log2(psi)) if psi > 1 else 1

    # Every tree's subsample first, in tree order.  Row, tree and slot
    # numbers fit in 32 bits, which halves the arrays the build holds.
    rows = np.empty((tree_count, psi), dtype=np.int32)
    for sample in rows:
        sample[:] = rng.choice(n, size=psi, replace=False) if n > psi else np.arange(n)
    rows = rows.ravel()
    # The open nodes of the level: tree, slot in the tree, and row count.
    tree, slot = np.arange(tree_count, dtype=np.int32), np.zeros(tree_count, dtype=np.int32)
    size = np.full(tree_count, psi)
    used = np.ones(tree_count, dtype=np.intp)  # slots taken in each tree
    splits, leaves = [], []
    depth = 0

    def close(leaf):
        """Make the open nodes in ``leaf`` leaves, and drop their rows."""
        nonlocal rows, tree, slot, size
        keep = ~leaf
        if leaf.any():
            leaves.append((tree[leaf], slot[leaf], size[leaf], depth))
            rows = rows[np.repeat(keep, size)]
            tree, slot, size = tree[keep], slot[keep], size[keep]
        return keep

    while True:
        close((size < 2) | (depth >= cap))
        if not size.size:
            break
        lo, hi = _ranges(X, rows, size)
        splittable = hi > lo
        keep = close(~splittable.any(axis=1))  # all rows equal
        if not size.size:
            break
        splittable, lo, hi = splittable[keep], lo[keep], hi[keep]
        # A uniform pick among each node's splittable features, then a
        # uniform threshold in that feature's range.
        pick = rng.integers(splittable.sum(axis=1))
        feature = (np.cumsum(splittable, axis=1) > pick[:, None]).argmax(axis=1).astype(np.int32)
        nodes = np.arange(size.size)
        threshold = rng.uniform(lo[nodes, feature], hi[nodes, feature])
        rows, child_size = _partition(X, rows, size, feature, threshold)
        # The children take the next two free slots of their tree.
        left = (used[tree] + 2 * (nodes - np.searchsorted(tree, tree))).astype(np.int32)
        used += 2 * np.bincount(tree, minlength=tree_count)
        splits.append((tree, slot, feature, threshold, left))
        tree = np.repeat(tree, 2)
        slot = np.stack([left, left + 1], axis=1).ravel()
        size = child_size
        depth += 1
    return IsolationForestModel.from_nodes(
        tree_count, int(used.max(initial=1)), splits, leaves, depth=depth,
        subsample=psi, c_psi=avg_path_length(psi), seed=seed, dim=X.shape[1],
    )


def _ranges(X: np.ndarray, rows: np.ndarray, size: np.ndarray):
    """Least and greatest value of each feature over each node's rows.

    ``rows`` holds the rows of node 0, then those of node 1, and so on,
    and nothing else: ``reduceat`` runs each segment up to the next
    start, and the last one to the end of ``rows``.
    """
    starts = np.cumsum(size) - size
    lo, hi = np.empty((2, size.size, X.shape[1]))
    for f, column in enumerate(X.T):  # a column at a time keeps the gather small
        values = column[rows]
        lo[:, f], hi[:, f] = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
    return lo, hi


def _partition(X: np.ndarray, rows: np.ndarray, size: np.ndarray,
               feature: np.ndarray, threshold: np.ndarray):
    """Move each node's rows, in order, to its children's segments.

    Node j's rows below its threshold go to child 2j, the others to
    child 2j + 1.  Returns the moved rows and the children's sizes.
    """
    node = np.repeat(np.arange(size.size, dtype=np.int32), size)
    child = 2 * node + ~(X[rows, feature[node]] < threshold[node])
    del node  # before the sort's arrays: the build's peak memory is at this level
    return rows[np.argsort(child, kind="stable")], np.bincount(child, minlength=2 * size.size)


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
