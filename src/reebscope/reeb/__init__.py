from .build import build_reeb
from .graph import QuotientMap, ReebGraph, isomorphic
from .oracle import reeb_oracle

__all__ = [
    "QuotientMap",
    "ReebGraph",
    "build_reeb",
    "isomorphic",
    "reeb_oracle",
]
