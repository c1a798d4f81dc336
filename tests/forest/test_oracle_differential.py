"""Differential suite: the memoized plaintext oracle vs a reference walk.

``DecisionForest.label_bitvector`` memoizes each tree's
``id(leaf) -> preorder position`` map and walks one root-to-leaf path
per tree.  ``reference_bitvector`` below keeps the original algorithm
(walk to the leaf, find it by identity in a fresh ``tree.leaves()``
enumeration, then emit ``tree.num_leaves`` slots) so every serving
path's ground truth is held to it bit for bit.

Hypothesis draws forests of every shape the oracle must handle:
single-leaf trees, multi-class leaves, deep/narrow chains, shallow/wide
full trees, and leaf objects reused at several positions.  The trained
income/soccer stand-ins from :mod:`repro.forest.datasets` ride along.
The suite runs under the fixed ``repro-plan-ci`` profile, so CI replays
the same case set every run.
"""

import copy
import pickle
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.forest.datasets import dataset_by_name
from repro.forest.forest import DecisionForest
from repro.forest.node import Branch, Leaf
from repro.forest.train import RandomForestTrainer
from repro.forest.tree import DecisionTree

CI_PROFILE = settings.get_profile("repro-plan-ci")

PRECISION = 8
LIMIT = 1 << PRECISION

#: Tree shapes and the depth each may reach.
SHAPES = {"leaf": 0, "any": 6, "chain": 12, "full": 4}


def reference_bitvector(forest, features):
    """The oracle's original algorithm, kept as the differential anchor."""
    bits = []
    for tree in forest.trees:
        leaves = tree.leaves()
        node = tree.root
        while isinstance(node, Branch):
            node = node.true_child if node.decide(features) else node.false_child
        chosen = next(i for i, leaf in enumerate(leaves) if leaf is node)
        bits.extend(1 if i == chosen else 0 for i in range(tree.num_leaves))
    return bits


@st.composite
def trees(draw, n_features, n_labels):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    depth = draw(st.integers(min_value=0, max_value=SHAPES[shape]))
    drawn_leaves = []

    def leaf():
        if drawn_leaves and draw(st.integers(min_value=0, max_value=4)) == 0:
            return draw(st.sampled_from(drawn_leaves))  # shared leaf object
        node = Leaf(draw(st.integers(min_value=0, max_value=n_labels - 1)))
        drawn_leaves.append(node)
        return node

    def grow(levels):
        if levels == 0 or (
            shape == "any" and draw(st.integers(min_value=0, max_value=2)) == 0
        ):
            return leaf()
        feature = draw(st.integers(min_value=0, max_value=n_features - 1))
        threshold = draw(st.integers(min_value=0, max_value=LIMIT))
        if shape == "chain":
            deep, short = grow(levels - 1), leaf()
            if draw(st.booleans()):
                deep, short = short, deep
            return Branch(feature, threshold, deep, short)
        return Branch(feature, threshold, grow(levels - 1), grow(levels - 1))

    return DecisionTree(grow(depth))


@st.composite
def forests_and_queries(draw):
    n_features = draw(st.integers(min_value=1, max_value=4))
    n_labels = draw(st.integers(min_value=1, max_value=5))
    forest = DecisionForest(
        trees=draw(
            st.lists(trees(n_features, n_labels), min_size=1, max_size=6)
        ),
        label_names=[f"L{i}" for i in range(n_labels)],
        n_features=n_features,
    )
    queries = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=LIMIT - 1),
                min_size=n_features,
                max_size=n_features,
            ),
            min_size=1,
            max_size=8,
        )
    )
    return forest, queries


@CI_PROFILE
@given(case=forests_and_queries())
def test_memoized_oracle_matches_reference_walk(case):
    forest, queries = case
    for features in queries:
        bits = forest.label_bitvector(features)
        assert bits == reference_bitvector(forest, features)
        assert sum(bits) == forest.n_trees  # N-hot: one slot per tree


@lru_cache(maxsize=None)
def stand_in_forest(name):
    data = dataset_by_name(name, n_samples=400, precision=PRECISION)
    return RandomForestTrainer(n_trees=4, max_depth=6, seed=3).fit(
        data.features, data.labels, list(data.label_names)
    )


@pytest.mark.parametrize("name", ["income", "soccer"])
@CI_PROFILE
@given(data=st.data())
def test_stand_in_forests_match_reference(name, data):
    forest = stand_in_forest(name)
    features = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=LIMIT - 1),
            min_size=forest.n_features,
            max_size=forest.n_features,
        )
    )
    assert forest.label_bitvector(features) == reference_bitvector(
        forest, features
    )


def test_root_reassignment_invalidates_memo():
    tree = DecisionTree(Branch(0, 10, Leaf(0), Leaf(1)))
    forest = DecisionForest(
        trees=[tree], label_names=["a", "b", "c"], n_features=1
    )
    assert forest.label_bitvector([5]) == [1, 0]
    tree.root = Branch(0, 10, Leaf(2), Branch(0, 20, Leaf(1), Leaf(0)))
    for features in ([5], [15], [25]):
        assert forest.label_bitvector(features) == reference_bitvector(
            forest, features
        )
    assert forest.label_bitvector([25]) == [0, 0, 1]
    tree.root = Leaf(1)
    assert forest.label_bitvector([25]) == [1]


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
    ids=["deepcopy", "pickle"],
)
def test_copied_forest_rebuilds_memo(clone):
    forest = stand_in_forest("soccer")
    queries = [[(i * 37 + k * 11) % LIMIT for k in range(forest.n_features)]
               for i in range(16)]
    expected = [forest.label_bitvector(q) for q in queries]  # memo built
    copied = clone(forest)
    assert all(tree._leaf_index is None for tree in copied.trees)
    assert [copied.label_bitvector(q) for q in queries] == expected
