"""``repro.core`` — the TDP engine (the paper's primary contribution)."""

from repro.core.compiled_query import CompiledQuery, QueryResult
from repro.core.config import QueryConfig, constants
from repro.core.session import Session
from repro.core.tensor_cache import TensorCache
from repro.core.udf import FunctionRegistry, UdfInfo, collect_modules, parse_output_schema

__all__ = [
    "CompiledQuery", "FunctionRegistry", "QueryConfig", "QueryResult",
    "Session", "TensorCache", "UdfInfo", "collect_modules", "constants",
    "parse_output_schema",
]
