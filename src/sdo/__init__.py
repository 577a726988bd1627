"""Single-source distance oracle tolerating one edge fault, plus SSRP."""

from .baseline import brute_query, brute_ssrp
from .departing import DepArray, brute_departing, build_dep
from .graphs import (
    Distance,
    Edge,
    Graph,
    GraphFormatError,
    UNREACHABLE,
    is_unreachable,
    parse_graph,
    read_graph,
    write_graph,
)
from .oracle import OracleNode, OracleTree, build_node, build_oracle, classify
from .pathrep import replacement_lengths_along_path
from .query import QueryResult, SsrpOutput, query, ssrp
from .serialize import dump_oracle, load_oracle, save_oracle
from .spt import (
    PathOnTree,
    ShortestPathTree,
    dijkstra,
    edge_on_tree_path,
    find_separator,
    separator_split,
    tree_path,
)

__all__ = [
    "Distance",
    "DepArray",
    "Edge",
    "Graph",
    "GraphFormatError",
    "OracleNode",
    "OracleTree",
    "PathOnTree",
    "QueryResult",
    "ShortestPathTree",
    "SsrpOutput",
    "UNREACHABLE",
    "brute_departing",
    "brute_query",
    "brute_ssrp",
    "build_dep",
    "build_node",
    "build_oracle",
    "classify",
    "dijkstra",
    "dump_oracle",
    "edge_on_tree_path",
    "find_separator",
    "is_unreachable",
    "load_oracle",
    "parse_graph",
    "query",
    "read_graph",
    "replacement_lengths_along_path",
    "save_oracle",
    "separator_split",
    "ssrp",
    "tree_path",
    "write_graph",
]

__version__ = "0.1.0"
