"""Columns: named encoded tensors with logical types.

Paper §2 (Storage Model): "TDP stores relational data in a columnar format,
where each column is a PyTorch tensor" — including 2-d tensors (a vector per
row), 3-d (grayscale images) and 4-d (RGB images) columns.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EncodingError
from repro.storage import types as dt
from repro.storage.encodings import (
    DictionaryEncoding,
    EncodedTensor,
    Encoding,
    PlainEncoding,
    ProbabilityEncoding,
)
from repro.tcr import ops
from repro.tcr.tensor import Tensor


# Process-unique identity tokens: the engine's materialization cache keys on
# "which stored tensor is this" rather than raw id() (which aliases after
# garbage collection). Tokens are assigned lazily on first use and live on
# the object itself, so a token is never reused for different data.
_IDENTITY_COUNTER = itertools.count(1)
_IDENTITY_LOCK = threading.Lock()


def identity_token(obj) -> Optional[int]:
    """Get-or-assign a process-unique identity token on ``obj``.

    Returns None for objects that cannot carry attributes. Assignment is
    locked so two threads first-touching the same tensor agree on one token
    (an overwrite race would orphan cache entries keyed under the loser).
    """
    token = getattr(obj, "_cache_token", None)
    if token is None:
        with _IDENTITY_LOCK:
            token = getattr(obj, "_cache_token", None)
            if token is None:
                token = next(_IDENTITY_COUNTER)
                try:
                    obj._cache_token = token
                except AttributeError:
                    return None
    return token


# Buffer tokens: a registered numpy array is identified by the buffer it
# lives in, not by the Tensor wrapped around it, so two registrations of
# rows of one buffer (``images[:400]``, then ``images[:420]``) share cached
# model outputs row by row. Keyed on ``id()`` of the owning ndarray plus the
# view's dtype and row shape (two reinterpretations of one buffer never
# share a token); each entry holds a weakref to the owner, so an ``id()``
# reused after the owner is freed is never mistaken for it.
_BUFFER_TOKENS: Dict[tuple, Tuple["weakref.ref", int]] = {}


def _forget_buffer(key: tuple, ref: "weakref.ref") -> None:
    # Weakref callback: runs while the owner is being freed, before its id()
    # can be reused, so only this owner's own entry can match ``ref``.
    entry = _BUFFER_TOKENS.get(key)
    if entry is not None and entry[0] is ref:
        _BUFFER_TOKENS.pop(key, None)


def _owner(array: np.ndarray) -> np.ndarray:
    """The last ndarray on ``array``'s ``.base`` chain: the buffer's owner."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def buffer_lineage(array: np.ndarray) -> Optional[Tuple[int, Optional[np.ndarray]]]:
    """``(buffer token, rows)`` for a C-contiguous row range of a buffer.

    ``rows`` is None when ``array`` covers the whole buffer, else the base
    row indices ``arange(offset // row_bytes, ...)``. Returns None for
    anything that is not a whole-row range (a column slice ``a[:, 0]``, a
    view starting mid-row, a 0-d array): those keep a per-Tensor token.
    """
    if array.size == 0 or not array.flags.c_contiguous:
        return None
    owner = _owner(array)
    row_bytes = array.nbytes // array.shape[0]
    offset = (array.__array_interface__["data"][0]
              - owner.__array_interface__["data"][0])
    if offset < 0 or offset % row_bytes or offset + array.nbytes > owner.nbytes:
        return None
    key = (id(owner), array.dtype, array.shape[1:])
    with _IDENTITY_LOCK:
        entry = _BUFFER_TOKENS.get(key)
        if entry is not None and entry[0]() is owner:
            token = entry[1]
        else:
            token = next(_IDENTITY_COUNTER)
            ref = weakref.ref(owner, lambda r, key=key: _forget_buffer(key, r))
            _BUFFER_TOKENS[key] = (ref, token)
    if offset == 0 and array.nbytes == owner.nbytes:
        return token, None
    start = offset // row_bytes
    return token, np.arange(start, start + array.shape[0])


def freeze_buffer(array: np.ndarray) -> None:
    """Mark ``array`` and every ndarray on its ``.base`` chain read-only:
    a registered buffer written in place would silently diverge from the
    model outputs cached for it, so the write raises instead."""
    while isinstance(array, np.ndarray):
        array.flags.writeable = False
        array = array.base


def concat_encoded(columns: Sequence) -> Optional[EncodedTensor]:
    """Concatenate column pieces (or encoded tensors) row-wise into one
    :class:`EncodedTensor`.

    Stateless encodings (plain) may differ by object; stateful ones
    (dictionary/probability) must be the *same object* for their codes to
    concatenate directly — pieces that each built their own dictionary
    (e.g. per-shard ``UPPER(...)`` outputs or string-literal broadcasts)
    are instead decoded and re-encoded over the union, which preserves the
    logical values exactly. Returns None only when no sound combination
    exists. The one concatenation rule of the shard stitcher and of the
    tensor cache's entry merges.
    """
    encoding = columns[0].encoding
    compatible = all(
        column.encoding is encoding
        or (isinstance(column.encoding, PlainEncoding)
            and isinstance(encoding, PlainEncoding))
        for column in columns[1:]
    )
    if compatible:
        return EncodedTensor(ops.cat([c.tensor for c in columns], dim=0), encoding)
    if all(isinstance(c.encoding, DictionaryEncoding) for c in columns):
        values = np.concatenate([c.decode() for c in columns])
        return DictionaryEncoding.encode(list(values),
                                         device=columns[0].device)
    return None


class Column:
    """A named column stored as an :class:`EncodedTensor`.

    ``lineage`` records row provenance for the materialization cache as
    ``(base token, row indices)``, ``rows=None`` meaning "all rows of that
    base". A registered numpy array stored without a copy names its buffer
    (:func:`buffer_lineage`: the owning ndarray, dtype and row shape) and
    its row range in it, so ``buf[:40]`` and ``buf[:60]`` share the model
    outputs of their common rows. A row gather of a column carries the
    gathered base rows. Columns whose carrier is freshly computed have no
    lineage; the cache then keys on their carrier tensor's identity token.
    """

    __slots__ = ("name", "encoded", "lineage")

    def __init__(self, name: str, encoded: EncodedTensor,
                 lineage: Optional[Tuple[int, Optional[np.ndarray]]] = None):
        self.name = name
        self.encoded = encoded
        self.lineage = lineage

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_values(name: str, values, device=None) -> "Column":
        """Build a column, picking the natural encoding for the value kind.

        Strings → order-preserving dictionary; everything numeric/bool (any
        rank) → plain. Existing tensors/encoded tensors pass through.
        """
        if isinstance(values, Column):
            return Column(name, values.encoded, values.lineage)
        if isinstance(values, EncodedTensor):
            return Column(name, values.to(device) if device is not None else values)
        if isinstance(values, Tensor):
            return Column(name, EncodedTensor(values.to(device=device), PlainEncoding()))
        array = np.asarray(values)
        if array.dtype.kind in ("U", "S", "O"):
            return Column(name, DictionaryEncoding.encode(list(array), device=device))
        if array.dtype.kind not in "fiub":
            raise EncodingError(
                f"column {name!r}: cannot store values of dtype {array.dtype} "
                "(columns hold numbers, booleans and strings)")
        return Column(name, PlainEncoding.encode(array, device=device))

    @staticmethod
    def from_registered(name: str, values, device=None) -> "Column":
        """:meth:`from_values` for data a caller registers as a table.

        When the carrier is the caller's own ndarray (no copy was needed),
        the buffer is frozen (:func:`freeze_buffer`) and a C-contiguous row
        range gets buffer lineage. An array the engine copied on the way in
        (a dtype conversion, strings) is left alone.
        """
        column = Column.from_values(name, values, device=device)
        if isinstance(values, np.ndarray) and column.tensor.data is values:
            freeze_buffer(values)
            column.lineage = buffer_lineage(values)
        return column

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tensor(self) -> Tensor:
        return self.encoded.tensor

    @property
    def encoding(self) -> Encoding:
        return self.encoded.encoding

    @property
    def num_rows(self) -> int:
        return self.encoded.num_rows

    @property
    def device(self):
        return self.encoded.device

    @property
    def data_type(self) -> dt.DataType:
        enc = self.encoding
        if isinstance(enc, DictionaryEncoding):
            return dt.STRING
        if isinstance(enc, ProbabilityEncoding):
            return dt.prob_type(enc.num_classes)
        row_shape = self.tensor.shape[1:]
        if row_shape:
            return dt.tensor_type(row_shape)
        return dt.dtype_to_data_type(self.tensor.dtype)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def decode(self) -> np.ndarray:
        """Logical values as a numpy array (strings for dictionary columns)."""
        return self.encoded.decode()

    def take(self, indices) -> "Column":
        """Row-gather preserving the encoding (differentiable for float
        data). A slice gives a zero-copy view of a contiguous row range;
        both record the base rows they hold as lineage."""
        if isinstance(indices, slice):
            idx = indices
        else:
            idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
        gathered = ops.getitem(self.tensor, idx)
        return Column(self.name, EncodedTensor(gathered, self.encoding),
                      self.take_lineage(idx))

    def take_lineage(self, idx) -> Optional[Tuple[int, np.ndarray]]:
        """The lineage ``take(idx)`` records, without gathering: this
        column's base token and the base rows behind ``idx`` (a slice or
        a 1-d integer ndarray; None for any other index, or when the
        column has no content identity)."""
        if not (isinstance(idx, slice) or (idx.ndim == 1 and idx.dtype.kind in "iu")):
            return None
        base = self.lineage
        if base is None:
            token = identity_token(self.tensor)
            if token is None:
                return None
            base = (token, None)
        base_token, base_rows = base
        if base_rows is not None:
            rows = base_rows[idx]
        elif isinstance(idx, slice):
            rows = np.arange(*idx.indices(self.num_rows))
        else:
            rows = idx
        return base_token, rows

    def slice_rows(self, start: int, stop: int) -> "Column":
        """Contiguous row range ``[start, stop)`` as a zero-copy view.

        The shard driver slices every scan column this way: a contiguous
        slice of a C-contiguous carrier is a numpy view (``take`` with the
        equivalent ``arange`` would gather a copy per shard). No lineage is
        recorded: lineage only keys tensor-cache entries, no UDF runs on a
        shard, and a shard's row numbers would cost an array per column.
        """
        sliced = ops.getitem(self.tensor, slice(start, stop))
        return Column(self.name, EncodedTensor(sliced, self.encoding))

    def rename(self, name: str) -> "Column":
        return Column(name, self.encoded, self.lineage)

    def to(self, device) -> "Column":
        # A device transfer keeps logical content: remember the source
        # identity so per-device copies share cached materializations.
        lineage = self.lineage
        if lineage is None:
            token = identity_token(self.tensor)
            lineage = (token, None) if token is not None else None
        return Column(self.name, self.encoded.to(device), lineage)

    def __repr__(self) -> str:
        return f"Column({self.name!r}, type={self.data_type}, rows={self.num_rows})"
