"""Network topology model.

Theorem 3 ties m/u-degradable agreement to *network connectivity*: at least
``m + u + 1`` vertex connectivity is necessary (and, with enough nodes,
sufficient).  This module wraps ``networkx`` graphs with the operations the
experiments need: connectivity computation, vertex cuts (to script the
Theorem 3 fault scenarios), and vertex-disjoint path discovery (consumed by
the relay layer in :mod:`repro.sim.routing`).  ``networkx`` is imported by
the methods that call it, so importing the package does not load it.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, FrozenSet, Hashable, Iterable, List, Sequence, Set, Tuple,
)

from repro.exceptions import ConfigurationError, RoutingError

if TYPE_CHECKING:
    import networkx as nx

NodeId = Hashable


class Topology:
    """An undirected communication graph.

    Nodes are arbitrary hashables; an edge means the two nodes share a
    direct, reliable link.  The object is immutable after construction
    (mutating the underlying graph mid-simulation would invalidate cached
    connectivity), so "link failures" are modelled by building a new
    topology or by fault injection at the engine level.
    """

    def __init__(self, graph: nx.Graph) -> None:
        import networkx as nx
        if graph.number_of_nodes() == 0:
            raise ConfigurationError("topology must contain at least one node")
        self._graph = graph.copy()
        self._graph = nx.freeze(self._graph)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def complete(cls, nodes: Sequence[NodeId]) -> "Topology":
        """Fully connected topology (algorithm BYZ's native assumption)."""
        import networkx as nx
        graph = nx.complete_graph(list(nodes))
        return cls(graph)

    @classmethod
    def from_edges(
        cls, nodes: Sequence[NodeId], edges: Iterable[Tuple[NodeId, NodeId]]
    ) -> "Topology":
        import networkx as nx
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        for a, b in edges:
            if a not in graph or b not in graph:
                raise ConfigurationError(f"edge ({a!r}, {b!r}) references unknown node")
            if a == b:
                raise ConfigurationError(f"self-loop on node {a!r}")
            graph.add_edge(a, b)
        return cls(graph)

    @classmethod
    def ring(cls, nodes: Sequence[NodeId]) -> "Topology":
        node_list = list(nodes)
        edges = [
            (node_list[i], node_list[(i + 1) % len(node_list)])
            for i in range(len(node_list))
        ]
        return cls.from_edges(node_list, edges)

    @classmethod
    def random_with_connectivity(
        cls,
        nodes: Sequence[NodeId],
        min_connectivity: int,
        edge_probability: float,
        seed: int = 0,
        max_attempts: int = 200,
    ) -> "Topology":
        """A random graph whose vertex connectivity is at least *min_connectivity*.

        Samples Erdos–Renyi graphs (seeded, reproducible) until one meets
        the connectivity floor, then returns it.  Used by property tests
        that want topologies less regular than Harary graphs.
        """
        import random as _random

        import networkx as nx
        if not 0.0 <= edge_probability <= 1.0:
            raise ConfigurationError(
                f"edge_probability must be in [0, 1], got {edge_probability}"
            )
        node_list = list(nodes)
        if min_connectivity >= len(node_list):
            raise ConfigurationError(
                f"connectivity {min_connectivity} impossible with "
                f"{len(node_list)} nodes"
            )
        rng = _random.Random(seed)
        for _ in range(max_attempts):
            graph = nx.Graph()
            graph.add_nodes_from(node_list)
            for i, a in enumerate(node_list):
                for b in node_list[i + 1 :]:
                    if rng.random() < edge_probability:
                        graph.add_edge(a, b)
            candidate = cls(graph)
            if candidate.connectivity() >= min_connectivity:
                return candidate
        raise ConfigurationError(
            f"no graph with connectivity >= {min_connectivity} found in "
            f"{max_attempts} samples (p={edge_probability}); raise the "
            f"edge probability"
        )

    @classmethod
    def k_connected_harary(cls, nodes: Sequence[NodeId], k: int) -> "Topology":
        """A Harary-style graph with vertex connectivity exactly ``k``.

        Built as a circulant graph where node ``i`` links to the ``k``
        nearest neighbours on each side (``ceil(k/2)`` offsets), the minimal
        construction achieving connectivity ``k`` — ideal for Theorem 3
        experiments that need connectivity *exactly* ``m + u`` or
        ``m + u + 1``.
        """
        import networkx as nx
        node_list = list(nodes)
        n = len(node_list)
        if k < 1 or k >= n:
            raise ConfigurationError(
                f"need 1 <= k < n for a Harary graph, got k={k}, n={n}"
            )
        base = nx.hkn_harary_graph(k, n)
        mapping = {i: node_list[i] for i in range(n)}
        return cls(nx.relabel_nodes(base, mapping))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def nodes(self) -> List[NodeId]:
        return list(self._graph.nodes)

    @property
    def n_nodes(self) -> int:
        return self._graph.number_of_nodes()

    def has_edge(self, a: NodeId, b: NodeId) -> bool:
        return self._graph.has_edge(a, b)

    def neighbors(self, node: NodeId) -> List[NodeId]:
        return list(self._graph.neighbors(node))

    def is_complete(self) -> bool:
        n = self.n_nodes
        return self._graph.number_of_edges() == n * (n - 1) // 2

    def connectivity(self) -> int:
        """Vertex connectivity of the graph (0 when disconnected)."""
        import networkx as nx
        if self.n_nodes == 1:
            return 0
        if not nx.is_connected(self._graph):
            return 0
        if self.is_complete():
            return self.n_nodes - 1
        return nx.node_connectivity(self._graph)

    def vertex_cut(self) -> FrozenSet[NodeId]:
        """A minimum vertex cut (the Theorem 3 fault-placement target)."""
        import networkx as nx
        if self.is_complete():
            raise ConfigurationError("complete graphs have no vertex cut")
        return frozenset(nx.minimum_node_cut(self._graph))

    def components_without(self, removed: Set[NodeId]) -> List[Set[NodeId]]:
        """Connected components after deleting *removed* nodes."""
        import networkx as nx
        remaining = self._graph.subgraph(
            [v for v in self._graph.nodes if v not in removed]
        )
        return [set(c) for c in nx.connected_components(remaining)]

    def disjoint_paths(
        self, source: NodeId, target: NodeId, count: int
    ) -> List[Tuple[NodeId, ...]]:
        """*count* vertex-disjoint paths from *source* to *target*.

        Each path is returned as the tuple of nodes from source to target
        inclusive.  Raises :class:`RoutingError` when the graph does not
        contain that many disjoint paths (by Menger's theorem, exactly when
        local connectivity is below *count*).
        """
        import networkx as nx
        if source == target:
            raise RoutingError("source and target coincide")
        try:
            paths = list(
                nx.node_disjoint_paths(self._graph, source, target)
            )
        except nx.NetworkXNoPath:
            raise RoutingError(f"no path between {source!r} and {target!r}")
        if len(paths) < count:
            raise RoutingError(
                f"only {len(paths)} vertex-disjoint paths between "
                f"{source!r} and {target!r}, need {count}"
            )
        paths.sort(key=lambda p: (len(p), tuple(str(x) for x in p)))
        return [tuple(p) for p in paths[:count]]

    def supports_degradable_agreement(self, m: int, u: int) -> bool:
        """Check both Theorem 2 and Theorem 3 preconditions."""
        return (
            self.n_nodes >= 2 * m + u + 1
            and self.connectivity() >= m + u + 1
        )

    def __repr__(self) -> str:
        return (
            f"Topology(n={self.n_nodes}, edges={self._graph.number_of_edges()}, "
            f"complete={self.is_complete()})"
        )
