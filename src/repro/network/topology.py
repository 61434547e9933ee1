"""Aries-style network topology model.

Piz Daint's interconnect is a Cray Aries dragonfly (Table 3).  For the
scaling model we only need hop counts between node pairs: dragonfly routes
are at most ~5 hops (node→router, intra-group, global link, intra-group,
router→node) and on average short, so distance grows very slowly with
machine size — which is why communication cost in Fig. 2 is dominated by
message *counts* and per-message overheads rather than by distance.
"""

from __future__ import annotations

__all__ = ["DragonflyTopology"]


class DragonflyTopology:
    """Hop-count model of a dragonfly with Aries-like group sizes.

    Nodes are numbered densely; 4 nodes share a router (Aries blade),
    96 routers form a group (Cray XC two-cabinet group = 384 nodes).
    """

    NODES_PER_ROUTER = 4
    ROUTERS_PER_GROUP = 96

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.nodes_per_group = self.NODES_PER_ROUTER * self.ROUTERS_PER_GROUP

    def router_of(self, node: int) -> int:
        self._check(node)
        return node // self.NODES_PER_ROUTER

    def group_of(self, node: int) -> int:
        self._check(node)
        return node // self.nodes_per_group

    def hops(self, a: int, b: int) -> int:
        """Hop count between two nodes (0 for self)."""
        self._check(a)
        self._check(b)
        if a == b:
            return 0
        if self.router_of(a) == self.router_of(b):
            return 1                      # same Aries ASIC
        if self.group_of(a) == self.group_of(b):
            return 2                      # intra-group electrical
        return 4                          # via a global optical link

    def mean_hops(self, a: int, neighbours: list[int]) -> float:
        if not neighbours:
            return 0.0
        return sum(self.hops(a, b) for b in neighbours) / len(neighbours)

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
