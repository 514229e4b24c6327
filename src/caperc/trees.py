"""Branching-process tree arena and full-tree sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ecbp import NODE_CAP
from .graph import EdgeColoredGraph
from .params import as_lambda


class NodeCapExceeded(Exception):
    """Tree growth hit the node cap; the sample is censored."""


@dataclass
class ColoredTree:
    """Arena of branching-process nodes. Root is node 0 at depth 0."""

    parent: list[int] = field(default_factory=lambda: [-1])
    edge_color: list[int] = field(default_factory=lambda: [-1])
    depth: list[int] = field(default_factory=lambda: [0])
    children: list[list[int]] = field(default_factory=lambda: [[]])

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    def add_child(self, parent: int, color: int) -> int:
        node = len(self.parent)
        self.parent.append(parent)
        self.edge_color.append(color)
        self.depth.append(self.depth[parent] + 1)
        self.children.append([])
        self.children[parent].append(node)
        return node

    def to_graph(self, k: int) -> EdgeColoredGraph:
        """View the arena as an edge-colored graph on its node indices."""
        edge_sets: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for v in range(1, self.n_nodes):
            edge_sets[self.edge_color[v]].append((self.parent[v], v))
        return EdgeColoredGraph(self.n_nodes, edge_sets)


def sample_ecbp(lam, depth: int, rng: np.random.Generator,
                node_cap: int = NODE_CAP) -> ColoredTree:
    """Sample a full edge-colored Poisson branching-process tree to the given
    depth: each node spawns Poisson(lambda_i) children per color i."""
    lam = as_lambda(lam)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    tree = ColoredTree()
    level = [0]
    for _ in range(depth):
        nxt = []
        for u in level:
            for c in range(lam.k):
                for _ in range(int(rng.poisson(lam[c]))):
                    nxt.append(tree.add_child(u, c))
                    if tree.n_nodes > node_cap:
                        raise NodeCapExceeded(f"node cap {node_cap} exceeded")
        level = nxt
    return tree
