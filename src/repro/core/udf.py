"""UDF/TVF registration (paper §3, "ML within SQL").

``@tdp_udf("Digit float, Size float")`` registers a Python function whose
body runs on the tensor runtime. Unlike classic DB UDFs there is no context
switch: the function's tensor ops become part of the compiled query's tensor
program, and any ``nn.Module`` the function closes over contributes trainable
parameters to the query (discovered automatically for
``CompiledQuery.parameters()``).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import UdfError
from repro.storage import types as dt
from repro.storage.column import Column
from repro.storage.encodings import EncodedTensor, PlainEncoding
from repro.tcr.nn.module import Module
from repro.tcr.tensor import Tensor


def parse_output_schema(schema_text: str) -> List[Tuple[str, dt.DataType]]:
    """Parse ``"Digit float, Size float"`` (or just ``"float"``) declarations."""
    schema: List[Tuple[str, dt.DataType]] = []
    parts = [p.strip() for p in schema_text.split(",") if p.strip()]
    if not parts:
        raise UdfError(f"empty UDF schema {schema_text!r}")
    for i, part in enumerate(parts):
        tokens = part.split()
        if len(tokens) == 1:
            name, type_name = f"col{i}", tokens[0]
        elif len(tokens) == 2:
            name, type_name = tokens
        else:
            raise UdfError(f"bad UDF schema fragment {part!r}")
        try:
            data_type = dt.parse_sql_type(type_name)
        except ValueError as exc:
            raise UdfError(str(exc)) from None
        schema.append((name, data_type))
    return schema


def collect_modules(func: Callable) -> List[Module]:
    """Find ``nn.Module`` instances the function can see (closure + globals).

    This is how a compiled query learns which parameters it owns: the CNNs in
    Listing 4 are module-level globals referenced by ``parse_mnist_grid``.
    """
    modules: List[Module] = []
    seen = set()

    def _add(value):
        if isinstance(value, Module) and id(value) not in seen:
            seen.add(id(value))
            modules.append(value)

    if func.__closure__:
        for cell in func.__closure__:
            try:
                _add(cell.cell_contents)
            except ValueError:
                continue
    code = getattr(func, "__code__", None)
    if code is not None:
        for name in code.co_names:
            if name in func.__globals__:
                _add(func.__globals__[name])
    return modules


ANN_METRICS = ("inner_product",)


@dataclasses.dataclass
class UdfInfo:
    """Registry entry for one user-defined (table-valued) function."""

    name: str
    func: Callable
    output_schema: List[Tuple[str, dt.DataType]]
    modules: List[Module]
    encoded_io: bool = False     # pass/accept EncodedTensor instead of Tensor
    # Declared ANN contract: set to "inner_product" when the UDF's scores
    # are monotone in the inner product over its model's embedding space.
    # Only declared UDFs are eligible for vector-index acceleration — the
    # optimizer cannot infer monotonicity from an arbitrary function body.
    ann_metric: Optional[str] = None
    # Deterministic (parameter-frozen) UDFs may serve repeated evaluations
    # from the session's materialization cache; grad-enabled invocations
    # always bypass it regardless. Declare deterministic=False for functions
    # whose output depends on more than (inputs, module parameters).
    deterministic: bool = True
    # Registration stamp (set by FunctionRegistry.register): cache keys carry
    # it so re-registering a name can never hit entries of the old function.
    version: int = 0

    @property
    def is_table_valued(self) -> bool:
        return len(self.output_schema) > 1

    def invoke(self, args: Sequence[object]) -> List[Column]:
        """Call the function and normalise its results to engine columns."""
        try:
            result = self.func(*args)
        except Exception as exc:
            raise UdfError(f"UDF {self.name!r} raised: {exc}") from exc
        outputs = list(result) if isinstance(result, (tuple, list)) else [result]
        if len(outputs) != len(self.output_schema):
            raise UdfError(
                f"UDF {self.name!r} returned {len(outputs)} columns but declared "
                f"{len(self.output_schema)}"
            )
        columns: List[Column] = []
        for (col_name, _), value in zip(self.output_schema, outputs):
            if isinstance(value, EncodedTensor):
                columns.append(Column(col_name, value))
            elif isinstance(value, Tensor):
                columns.append(Column(col_name, EncodedTensor(value, PlainEncoding())))
            else:
                columns.append(Column.from_values(col_name, value))
        return columns

    def __repr__(self) -> str:
        cols = ", ".join(f"{n} {t}" for n, t in self.output_schema)
        return f"UdfInfo({self.name!r}, [{cols}], modules={len(self.modules)})"


class FunctionRegistry:
    """Session-scoped registry the binder resolves function names against.

    Thread-safe: registration (including the version stamp and the encoder
    memo install) happens under a re-entrant lock, so concurrent
    re-registration can neither tear the version counter nor double-wrap a
    model's ``encode_image``.
    """

    def __init__(self):
        self._functions: Dict[str, UdfInfo] = {}
        self._lock = threading.RLock()
        # Monotonic change counter mirroring Catalog.version: registering or
        # replacing a UDF invalidates cached plans that may reference it.
        self.version = 0

    def register(self, info: UdfInfo, replace: bool = True) -> None:
        key = info.name.lower()
        with self._lock:
            if not replace and key in self._functions:
                raise UdfError(f"function {info.name!r} already registered")
            self._functions[key] = info
            self.version += 1
            info.version = self.version
            if info.deterministic:
                # Two-tower models behind deterministic UDFs get a cache-aware
                # encode_image memo, so query-time evaluation and index builds
                # share corpus embeddings (see repro.core.tensor_cache).
                from repro.core.tensor_cache import install_encoder_memo
                for module in info.modules:
                    if hasattr(module, "encode_image") or hasattr(module, "encode_text"):
                        install_encoder_memo(module)

    def lookup(self, name: str) -> Optional[UdfInfo]:
        with self._lock:
            return self._functions.get(name.lower())


def make_udf_decorator(registry: FunctionRegistry):
    """Build a ``tdp_udf`` decorator bound to one session's registry."""

    def tdp_udf(schema_text: str, name: Optional[str] = None,
                modules: Optional[Sequence[Module]] = None,
                encoded_io: bool = False, ann: Optional[str] = None,
                deterministic: bool = True):
        output_schema = parse_output_schema(schema_text)
        if ann is not None and ann not in ANN_METRICS:
            raise UdfError(
                f"unknown ann metric {ann!r}; valid: {list(ANN_METRICS)}"
            )

        def decorate(func: Callable) -> Callable:
            found = list(modules) if modules is not None else collect_modules(func)
            info = UdfInfo(
                name=name or func.__name__,
                func=func,
                output_schema=output_schema,
                modules=found,
                encoded_io=encoded_io,
                ann_metric=ann,
                deterministic=deterministic,
            )
            registry.register(info)
            func.udf_info = info
            return func

        return decorate

    return tdp_udf
