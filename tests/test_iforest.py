import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import iforest_tree_violations, nested_forest_json
from sentinel.etd.iforest import (
    IsolationForestModel,
    avg_path_length,
    build_iforest,
    iforest_score,
)


class TestNormalizer:
    def test_c1_is_zero(self):
        assert avg_path_length(1) == 0.0

    def test_c2_is_one(self):
        # 2*H(1) - 2*(1)/2 with H(1) = 1
        assert avg_path_length(2) == 1.0

    def test_small_values_match_harmonic_formula(self):
        for n in range(3, 12):
            h = sum(1.0 / k for k in range(1, n))
            assert avg_path_length(n) == pytest.approx(2 * h - 2 * (n - 1) / n, rel=1e-9)

    def test_monotone(self):
        values = [avg_path_length(n) for n in range(2, 1000)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestBuild:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((500, 4))
        a = build_iforest(X, tree_count=20, seed=42)
        b = build_iforest(X, tree_count=20, seed=42)
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((500, 4))
        a = build_iforest(X, tree_count=20, seed=1)
        b = build_iforest(X, tree_count=20, seed=2)
        assert a.to_json() != b.to_json()

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            build_iforest(np.zeros((1, 3)))

    def test_depth_capped(self):
        X = np.random.default_rng(1).standard_normal((2000, 3))
        model = build_iforest(X, tree_count=10, subsample=256, seed=0)
        cap = int(np.ceil(np.log2(256)))

        def max_depth(node, depth=0):
            left, right = model.children[node]
            if left == node:
                return depth
            return max(max_depth(left, depth + 1), max_depth(right, depth + 1))

        depths = [max_depth(root) for root in model.roots]
        assert all(d <= cap for d in depths)
        assert model.depth == max(depths)  # the walk takes exactly this many steps

    def test_identical_rows_score_half(self):
        X = np.ones((64, 3))
        model = build_iforest(X, tree_count=10, seed=0)
        assert iforest_score(model, np.ones(3)) == pytest.approx(0.5)

    def test_serialization_roundtrip(self):
        X = np.random.default_rng(2).standard_normal((300, 4))
        model = build_iforest(X, tree_count=15, seed=3)
        back = IsolationForestModel.from_obj(json.loads(model.to_json()))
        for x in np.random.default_rng(4).standard_normal((20, 4)):
            assert iforest_score(back, x) == iforest_score(model, x)


PSI = 16


@st.composite
def build_inputs(draw):
    """Rows for a forest of subsample ``PSI``: few, or about ``PSI``, with
    float, constant and heavily tied integer columns, or all rows equal."""
    n = draw(st.sampled_from([2, 3, PSI - 1, PSI, PSI + 1]))
    # Multiples of 1/64 keep max - min exact, so a uniform threshold
    # cannot round past the range.
    kinds = {
        "float": st.integers(-64000, 64000).map(lambda k: k / 64),
        "ties": st.integers(0, 2).map(float),
    }
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "ties", "constant"]), min_size=1, max_size=4)):
        if kind == "constant":
            columns.append([draw(kinds["float"])] * n)
        else:
            columns.append(draw(st.lists(kinds[kind], min_size=n, max_size=n)))
    X = np.array(columns).T
    if draw(st.integers(0, 3)) == 0:
        X = np.repeat(X[:1], n, axis=0)  # all rows identical
    return X, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


class TestBuildStructure:
    """Every tree recounted against the rows it was built from
    (``oracles.iforest_tree_violations``)."""

    @settings(max_examples=300, deadline=None)
    @given(build_inputs())
    def test_every_tree_recounts(self, case):
        X, tree_count, seed = case
        model = build_iforest(X, tree_count=tree_count, subsample=PSI, seed=seed)
        n = X.shape[0]
        if n > PSI:
            # build_iforest draws every tree's subsample first, in tree order.
            rng = np.random.default_rng(seed)
            samples = [X[rng.choice(n, size=PSI, replace=False)] for _ in range(tree_count)]
        else:
            samples = [X] * tree_count
        cap = math.ceil(math.log2(min(n, PSI)))
        trees = json.loads(model.to_json())["trees"]
        assert len(trees) == tree_count
        for tree, rows in zip(trees, samples):
            assert iforest_tree_violations(tree, rows, cap) == []

    def test_loading_rebuilds_the_same_table(self):
        X = np.random.default_rng(8).standard_normal((600, 4))
        model = build_iforest(X, tree_count=12, seed=5)
        back = IsolationForestModel.from_obj(json.loads(model.to_json()))
        for name in ("feature", "threshold", "children", "size", "leaf_value"):
            assert np.array_equal(getattr(back, name), getattr(model, name)), name
        assert (back.stride, back.depth) == (model.stride, model.depth)


THRESHOLDS = [-0.0, 5e-324, 1e300, 3.0, 1 / 3, math.inf, -math.inf, math.nan]


@st.composite
def node_tables(draw):
    """A table from ``from_nodes``: small trees of any shape, grown by
    splitting a drawn leaf, with thresholds that are hard to write."""
    tree_count, dim, stride, depth = draw(st.integers(1, 3)), 3, 1, 0
    splits, leaves = [], []
    for tree in range(tree_count):
        open_leaves, split, used = {0: 0}, [], 1  # leaf slot -> depth
        for _ in range(draw(st.integers(0, 6))):
            slot = draw(st.sampled_from(sorted(open_leaves)))
            below = open_leaves.pop(slot) + 1
            split.append((slot, draw(st.integers(0, dim - 1)), draw(st.sampled_from(THRESHOLDS)), used))
            open_leaves.update({used: below, used + 1: below})
            used += 2
        if split:
            slot, feature, threshold, left = (np.array(column) for column in zip(*split))
            splits.append((tree, slot, feature, threshold.astype(float), left))
        slot, at = (np.array(column) for column in zip(*open_leaves.items()))
        leaves.append((tree, slot, np.array([draw(st.integers(0, 300)) for _ in slot]), at))
        stride, depth = max(stride, used), max(depth, int(at.max()))
    return IsolationForestModel.from_nodes(tree_count, stride, splits, leaves, depth=depth,
                                           subsample=256, c_psi=avg_path_length(256),
                                           seed=draw(st.integers(0, 9)), dim=dim)


class TestRender:
    """``to_json`` against ``oracles.nested_forest_json``, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(build_inputs())
    def test_built_forests(self, case):
        X, tree_count, seed = case
        model = build_iforest(X, tree_count=tree_count, subsample=PSI, seed=seed)
        assert model.to_json() == nested_forest_json(model)

    @settings(max_examples=150, deadline=None)
    @given(node_tables())
    def test_node_tables(self, model):
        assert model.to_json() == nested_forest_json(model)


class TestScore:
    def test_in_unit_interval(self):
        X = np.random.default_rng(5).standard_normal((400, 3))
        model = build_iforest(X, seed=6)
        for x in np.random.default_rng(7).standard_normal((100, 3)) * 3:
            assert 0.0 < iforest_score(model, x) < 1.0

    def test_dimension_mismatch(self):
        model = build_iforest(np.random.default_rng(0).standard_normal((50, 3)), seed=0)
        with pytest.raises(ValueError):
            iforest_score(model, np.zeros(4))

    def test_outlier_beats_inliers(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((1000, 4)) * 0.5
        model = build_iforest(X, seed=42)
        inlier_scores = [iforest_score(model, x) for x in X[:200]]
        outlier = iforest_score(model, np.full(4, 8.0))
        assert outlier > np.percentile(inlier_scores, 90)

    def test_score_decreasing_in_path_length(self):
        # the mapping h -> 2^(-h/c) is strictly decreasing
        c = avg_path_length(256)
        values = [2 ** (-h / c) for h in np.linspace(0.5, 20, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))
