from .query import QueryNode, parse_query
from .searcher import Searcher

__all__ = ["QueryNode", "parse_query", "Searcher"]
