"""Single-source distance oracle tolerating one edge fault, plus SSRP."""

from .baseline import brute_query, brute_ssrp
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
from .oracle import OracleTree, build_oracle
from .query import QueryResult, SsrpOutput, query, ssrp
from .serialize import dump_oracle, load_oracle, save_oracle
from .spt import (
    PathOnTree,
    ShortestPathTree,
    dijkstra,
    separator_split,
    tree_path,
)

__all__ = [
    "Distance",
    "Edge",
    "Graph",
    "GraphFormatError",
    "OracleTree",
    "PathOnTree",
    "QueryResult",
    "ShortestPathTree",
    "SsrpOutput",
    "UNREACHABLE",
    "brute_query",
    "brute_ssrp",
    "build_oracle",
    "dijkstra",
    "dump_oracle",
    "is_unreachable",
    "load_oracle",
    "parse_graph",
    "query",
    "read_graph",
    "save_oracle",
    "separator_split",
    "ssrp",
    "tree_path",
    "write_graph",
]

__version__ = "0.1.0"
