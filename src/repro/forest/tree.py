"""A single decision tree: traversal, inference, structural queries.

Inference follows Section 2.1: starting at the root, each branch compares
one feature against its threshold and descends into the *true* child when
``feature < threshold`` holds, until a leaf assigns the class label.

Structural queries implement the definitions of Section 4.1.1:

* *preorder enumeration* of branches and of leaves (the canonical order the
  reshuffling matrix restores and the label bitvector uses);
* *level* of a node — branches on the longest node-to-leaf path, inclusive;
* *downstream set* of a branch — the leaf positions reachable from it;
* *width* — the size of the downstream set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.forest.node import Branch, Leaf, Node


@dataclass
class DecisionTree:
    """A decision tree over integer (fixed-point) features."""

    root: Node
    # Memos keyed by ``id(node)``.  Nodes are frozen, so only reassigning
    # ``root`` can stale them, and ``__setattr__`` drops them when it
    # happens.  An ``id()`` means nothing in another process or in a
    # copy, so pickling and copying drop them too (``__getstate__``).
    _levels: Dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _leaf_index: Optional[Tuple[Dict[int, int], int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        if name == "root":
            self._drop_memos()
        object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_levels", None)
        state.pop("_leaf_index", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._drop_memos()

    def _drop_memos(self) -> None:
        self._levels = {}
        self._leaf_index = None

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def classify(self, features: Sequence[int]) -> int:
        """Return the label index this tree assigns to a feature vector."""
        return self.leaf_for(features).label_index

    def leaf_for(self, features: Sequence[int]) -> Leaf:
        """The leaf a feature vector reaches from the root."""
        node = self.root
        while isinstance(node, Branch):
            node = node.true_child if node.decide(features) else node.false_child
        return node

    def decision_path(self, features: Sequence[int]) -> List[bool]:
        """The sequence of decision bits taken from root to leaf."""
        path: List[bool] = []
        node = self.root
        while isinstance(node, Branch):
            bit = node.decide(features)
            path.append(bit)
            node = node.true_child if bit else node.false_child
        return path

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------

    def preorder(self) -> Iterator[Node]:
        """All nodes in preorder (node, true subtree, false subtree)."""
        stack: List[Node] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Branch):
                stack.append(node.false_child)
                stack.append(node.true_child)

    def branches(self) -> List[Branch]:
        """Branches in preorder (the paper's branch enumeration)."""
        return [n for n in self.preorder() if isinstance(n, Branch)]

    def leaves(self) -> List[Leaf]:
        """Leaves in preorder (the paper's label enumeration)."""
        return [n for n in self.preorder() if isinstance(n, Leaf)]

    def leaf_positions(self) -> Tuple[Dict[int, int], int]:
        """``(id(leaf) -> preorder position, leaf count)``, memoized.

        A leaf object reachable at several positions maps to the first.
        """
        index = self._leaf_index
        if index is None:
            leaves = self.leaves()
            positions: Dict[int, int] = {}
            for i, leaf in enumerate(leaves):
                positions.setdefault(id(leaf), i)
            index = self._leaf_index = (positions, len(leaves))
        return index

    # ------------------------------------------------------------------
    # Structural statistics
    # ------------------------------------------------------------------

    @property
    def num_branches(self) -> int:
        return sum(1 for n in self.preorder() if isinstance(n, Branch))

    @property
    def num_leaves(self) -> int:
        return sum(1 for n in self.preorder() if isinstance(n, Leaf))

    @property
    def depth(self) -> int:
        """Level of the root: the maximum number of branches on any path."""
        return self.node_level(self.root)

    def node_level(self, node: Node) -> int:
        """Level of a node, memoized (Section 4.1.1)."""
        key = id(node)
        cached = self._levels.get(key)
        if cached is not None:
            return cached
        if isinstance(node, Leaf):
            level = 0
        else:
            level = 1 + max(
                self.node_level(node.true_child), self.node_level(node.false_child)
            )
        self._levels[key] = level
        return level

    def feature_indices(self) -> List[int]:
        """Feature index of every branch, in preorder (the paper's ``f``)."""
        return [b.feature for b in self.branches()]

    def thresholds(self) -> List[int]:
        """Threshold of every branch, in preorder (the paper's ``t``)."""
        return [b.threshold for b in self.branches()]

    def downstream_labels(self, branch: Branch) -> List[Tuple[int, bool]]:
        """Leaf positions under a branch, tagged with the side they lie on.

        Returns ``(leaf_position, under_true_side)`` pairs, where the leaf
        position indexes this tree's preorder leaf enumeration.  The width
        of the branch is the length of this list.
        """
        positions: Dict[int, int] = {
            id(leaf): i for i, leaf in enumerate(self.leaves())
        }

        def collect(node: Node, acc: List[int]) -> None:
            if isinstance(node, Leaf):
                acc.append(positions[id(node)])
            else:
                collect(node.true_child, acc)
                collect(node.false_child, acc)

        true_side: List[int] = []
        false_side: List[int] = []
        collect(branch.true_child, true_side)
        collect(branch.false_child, false_side)
        return [(p, True) for p in true_side] + [(p, False) for p in false_side]

    def validate(self, n_features: int, n_labels: int) -> None:
        """Check feature/label indices are in range; raise otherwise."""
        for node in self.preorder():
            if isinstance(node, Branch):
                if node.feature >= n_features:
                    raise ValidationError(
                        f"branch references feature {node.feature} but the "
                        f"model has only {n_features} features"
                    )
            else:
                if node.label_index >= n_labels:
                    raise ValidationError(
                        f"leaf references label {node.label_index} but the "
                        f"model has only {n_labels} labels"
                    )
