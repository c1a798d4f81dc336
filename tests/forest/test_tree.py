"""Tests for tree nodes and single-tree behaviour."""

import copy
import pickle

import pytest

from repro.errors import ValidationError
from repro.forest.node import Branch, Leaf
from repro.forest.tree import DecisionTree

from tests.conftest import build_example_tree


class TestNodes:
    def test_leaf_level_zero(self):
        assert Leaf(0).level == 0
        assert Leaf(0).is_leaf

    def test_branch_level(self):
        b = Branch(0, 10, Leaf(0), Leaf(1))
        assert b.level == 1
        assert not b.is_leaf

    def test_nested_level(self):
        inner = Branch(0, 10, Leaf(0), Leaf(1))
        outer = Branch(1, 20, inner, Leaf(2))
        assert outer.level == 2

    def test_decide_semantics(self):
        b = Branch(0, 100, Leaf(1), Leaf(0))
        assert b.decide([99]) is True  # feature < threshold
        assert b.decide([100]) is False
        assert b.decide([101]) is False

    def test_negative_indices_rejected(self):
        with pytest.raises(ValidationError):
            Leaf(-1)
        with pytest.raises(ValidationError):
            Branch(-1, 10, Leaf(0), Leaf(1))
        with pytest.raises(ValidationError):
            Branch(0, -5, Leaf(0), Leaf(1))


class TestClassification:
    def test_example_tree_paths(self, example_tree):
        # d0 true (y < 120), d1 true (x < 60) -> L0
        assert example_tree.classify([10, 10]) == 0
        # d0 true, d1 false, d2 true (y < 40) -> L1
        assert example_tree.classify([100, 30]) == 1
        # d0 true, d1 false, d2 false -> L2
        assert example_tree.classify([100, 100]) == 2
        # d0 false, d3 true (x < 200) -> L1
        assert example_tree.classify([100, 200]) == 1
        # d0 false, d3 false -> L0
        assert example_tree.classify([220, 200]) == 0

    def test_decision_path(self, example_tree):
        assert example_tree.decision_path([10, 10]) == [True, True]
        assert example_tree.decision_path([100, 100]) == [True, False, False]
        assert example_tree.decision_path([220, 200]) == [False, False]


class TestTraversal:
    def test_preorder_order(self, example_tree):
        kinds = [
            ("B", n.feature) if isinstance(n, Branch) else ("L", n.label_index)
            for n in example_tree.preorder()
        ]
        assert kinds == [
            ("B", 1),  # d0
            ("B", 0),  # d1
            ("L", 0),
            ("B", 1),  # d2
            ("L", 1),
            ("L", 2),
            ("B", 0),  # d3
            ("L", 1),
            ("L", 0),
        ]

    def test_counts(self, example_tree):
        assert example_tree.num_branches == 4
        assert example_tree.num_leaves == 5
        assert len(example_tree.branches()) == 4
        assert len(example_tree.leaves()) == 5

    def test_depth_and_levels(self, example_tree):
        assert example_tree.depth == 3
        branches = example_tree.branches()
        levels = [example_tree.node_level(b) for b in branches]
        assert levels == [3, 2, 1, 1]

    def test_feature_and_threshold_vectors(self, example_tree):
        assert example_tree.feature_indices() == [1, 0, 1, 0]
        assert example_tree.thresholds() == [120, 60, 40, 200]


class TestMemos:
    """The ``id(node)``-keyed memos never outlive the nodes they name."""

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_start_with_empty_memos(self, clone):
        tree = build_example_tree()
        assert tree.depth == 3 and tree.leaf_positions()[1] == 5
        assert tree._levels and tree._leaf_index is not None
        copied = clone(tree)
        assert copied._levels == {} and copied._leaf_index is None
        fresh = build_example_tree()
        assert copied.depth == fresh.depth
        assert [copied.node_level(b) for b in copied.branches()] == [
            fresh.node_level(b) for b in fresh.branches()
        ]
        assert copied.leaf_positions()[1] == fresh.leaf_positions()[1]
        assert copied == tree  # memos never take part in equality

    def test_pickle_carries_no_memo(self):
        tree = build_example_tree()
        cold = pickle.dumps(tree)
        tree.depth, tree.leaf_positions()
        assert pickle.dumps(tree) == cold

    def test_root_reassignment_drops_memos(self):
        tree = build_example_tree()
        assert tree.depth == 3 and tree.leaf_positions()[1] == 5
        tree.root = Branch(0, 10, Leaf(0), Leaf(1))
        assert tree._levels == {} and tree._leaf_index is None
        assert tree.depth == 1
        assert tree.leaf_positions()[1] == 2

    def test_leaf_positions_follow_preorder(self, example_tree):
        positions, count = example_tree.leaf_positions()
        assert count == example_tree.num_leaves
        assert [positions[id(leaf)] for leaf in example_tree.leaves()] == list(
            range(count)
        )

    def test_shared_leaf_maps_to_first_position(self):
        shared = Leaf(1)
        tree = DecisionTree(Branch(0, 10, shared, Branch(0, 20, Leaf(0), shared)))
        positions, count = tree.leaf_positions()
        assert count == 3 and positions[id(shared)] == 0


class TestDownstream:
    def test_root_downstream_is_everything(self, example_tree):
        root = example_tree.branches()[0]
        downstream = example_tree.downstream_labels(root)
        assert sorted(p for p, _ in downstream) == [0, 1, 2, 3, 4]

    def test_sides(self, example_tree):
        root = example_tree.branches()[0]
        sides = dict(example_tree.downstream_labels(root))
        # Leaves 0,1,2 sit under the true child; 3,4 under the false child.
        assert sides[0] and sides[1] and sides[2]
        assert not sides[3] and not sides[4]

    def test_width_matches_downstream(self, example_tree):
        d1 = example_tree.branches()[1]
        assert len(example_tree.downstream_labels(d1)) == 3


class TestValidate:
    def test_valid(self, example_tree):
        example_tree.validate(n_features=2, n_labels=3)

    def test_feature_out_of_range(self, example_tree):
        with pytest.raises(ValidationError):
            example_tree.validate(n_features=1, n_labels=3)

    def test_label_out_of_range(self, example_tree):
        with pytest.raises(ValidationError):
            example_tree.validate(n_features=2, n_labels=2)


def test_build_example_tree_is_fresh():
    a = build_example_tree()
    b = build_example_tree()
    assert a.root is not b.root
