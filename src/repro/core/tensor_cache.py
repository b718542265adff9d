"""Session-wide inference materialization cache (the "inference-aware
execution" subsystem).

The paper's core workload runs NN inference *inside* queries — similarity
UDFs over multimodal columns. Following NeurStore's position that
in-database model outputs are first-class managed state, the session keeps
them in one row-keyed memo, :class:`TensorCache`: a bytes-budgeted LRU
(``Session.tensor_cache``).

* **One kind of entry.** An entry holds the outputs of one row-wise
  function for the rows of one base computed so far, keyed by base row
  (Delta Tensor's row chunks, one layer up). A **UDF** entry is keyed on
  ``(udf name, registration version, weight fingerprint, constant
  arguments, device, column bases)``; an **encoder** entry
  (``model.encode_image``) on ``(model, weight fingerprint, device,
  base)``, shared by query-time calls and index builds in both directions.
  :meth:`TensorCache.lookup` serves both: it gathers the rows the entry
  holds and calls the function once, on the rows it lacks. A repeated
  statement calls nothing, a UDF over a filtered subset of a scored column
  gathers, and ``images[:420]`` after ``images[:400]`` computes 20 rows.
  UDFs are row-wise by contract (outputs for row ``i`` depend only on
  inputs of row ``i``), which makes this sound. Text embeddings
  (``encode_text``) are memoised whole, keyed on the text tuple.

* **Content identity** rides on buffer identity plus row lineage. A
  registered numpy array stored without a copy is named by its buffer and
  row range (:func:`repro.storage.column.buffer_lineage`), and registration
  marks that buffer read-only, so the name can never come to mean other
  bytes. Every other stored tensor gets a process-unique token on first use
  (:func:`repro.storage.column.identity_token`); registered tensors must not
  be written in place while registered (docs/SEMANTICS.md).
  ``Column.take`` records ``(base token, row indices)`` lineage. Stale
  entries are never hit; they age out of the LRU. In-place weight mutation
  is caught by the weight fingerprint, re-hashed only when the weights
  differ bitwise from the snapshot kept (as an entry) beside it: one
  comparison of raw bytes per array, plus its name, dtype and shape. No
  write counter stands in for it, since ``param.data[...] = x`` would
  bypass one.

The bypass rule lives in :meth:`TensorCache.admits`: deterministic=False
UDFs, grad-enabled calls and models in ``train()`` mode never enter, and
trainable compilations never activate the cache.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import threading
from collections import OrderedDict
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.storage.column import Column, concat_encoded, identity_token
from repro.storage.encodings import EncodedTensor, PlainEncoding
from repro.tcr import ops
from repro.tcr.autograd import is_grad_enabled
from repro.tcr.tensor import Tensor

DEFAULT_TENSOR_CACHE_BYTES = 256 * 1024 * 1024

# The active cache (None outside a query run / index build). Plumbing a
# session handle through every operator would touch each evaluator
# constructor; a scoped variable keeps the engine layers decoupled while
# activation stays owned by CompiledQuery.run(). A ContextVar (not a module
# global) so concurrent scheduler workers each see only the activation of
# the query *they* are running.
_ACTIVE: "contextvars.ContextVar[Optional[TensorCache]]" = contextvars.ContextVar(
    "tdp_active_tensor_cache", default=None)


def entered(modules: Sequence = (), deterministic: bool = True) -> Optional["TensorCache"]:
    """The cache activated by the currently running query, if a call over
    ``modules`` may use it (:meth:`TensorCache.admits`)."""
    cache = _ACTIVE.get()
    return cache if cache is not None and cache.admits(modules, deterministic) else None


# ----------------------------------------------------------------------
# Content identity: tags, parameter fingerprints
# ----------------------------------------------------------------------
class CacheTag(NamedTuple):
    """Content identity of one tensor argument: ``base`` is the identity
    token of its base buffer or tensor, and ``rows`` the base row behind
    each of its rows (None: every row of the base, in order)."""

    base: int
    rows: Optional[np.ndarray]


def _state_arrays(module) -> List[Tuple[str, np.ndarray]]:
    """Every parameter and buffer ``module`` owns, by name, as C-contiguous
    arrays (none for objects without parameters)."""
    if getattr(module, "named_parameters", None) is None:
        return []
    arrays = [(name, np.ascontiguousarray(param.data))
              for name, param in module.named_parameters()]
    arrays += [(name, np.ascontiguousarray(buf.data))
               for name, buf in module.named_buffers() if buf is not None]
    return arrays


def _digest(arrays: Sequence[Tuple[str, np.ndarray]]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name, array in arrays:
        # dtype and shape too: a same-bytes view or reshape computes
        # something else.
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array)
    return h.hexdigest() if arrays else "stateless"


def state_fingerprint(modules: Sequence[object]) -> str:
    """Digest of every parameter and buffer a UDF/model owns.

    Catches in-place weight mutation (training between statements) that
    object identity cannot see. Modules without parameters hash to a
    constant: their outputs depend on inputs alone. Hashing costs about a
    millisecond per megabyte, so the session cache hashes a module only
    when its weights differ bitwise from the snapshot kept beside its last
    fingerprint (:meth:`TensorCache.model_state_fp`).
    """
    return _digest([pair for module in modules for pair in _state_arrays(module)])


class _StateSnapshot:
    """A bitwise copy of one module's weights beside their fingerprint:
    each array's name, dtype, shape and raw bytes."""

    __slots__ = ("fp", "arrays", "nbytes")

    def __init__(self, fp: str, arrays: Sequence[Tuple[str, np.ndarray]]):
        self.fp = fp
        self.arrays = [(name, array.dtype, array.shape, array.tobytes())
                       for name, array in arrays]
        self.nbytes = sum(len(raw) for *_, raw in self.arrays)

    def matches(self, arrays: Sequence[Tuple[str, np.ndarray]]) -> bool:
        """Whether ``arrays`` hold the snapshot's bits. Comparing raw
        bytes is one memcmp per array: a NaN weight equals itself, and
        ``-0.0`` differs from ``0.0``."""
        return len(arrays) == len(self.arrays) and all(
            name == was_name and now.dtype == dtype and now.shape == shape
            and now.tobytes() == raw
            for (name, now), (was_name, dtype, shape, raw) in zip(arrays, self.arrays))


def column_tag(column: Column) -> Optional[CacheTag]:
    """Content identity of a column: its lineage when it has one, the
    identity token of its carrier tensor otherwise."""
    if column.lineage is not None:
        return CacheTag(*column.lineage)
    token = identity_token(column.tensor)
    return None if token is None else CacheTag(token, None)


_TAG_LOCK = threading.Lock()


def tag_tensor(tensor, tag: CacheTag) -> None:
    """Attach a content tag to a tensor about to flow into user code.

    Tags are refcounted: concurrent queries over one *shared* base-column
    tensor tag it alike, and one query's cleanup must not strip the tag
    from under another mid-flight (silently disabling its encoder memo).
    """
    with _TAG_LOCK:
        tensor._cache_tag_refs = getattr(tensor, "_cache_tag_refs", 0) + 1
        if tensor._cache_tag_refs == 1:
            tensor._cache_tag = tag


def untag_tensor(tensor) -> None:
    """Release one reference to a tensor's content tag (tags are scoped to
    one memoised UDF invocation: stale tags must not engage encoder memos
    for callers that did not opt in)."""
    with _TAG_LOCK:
        refs = getattr(tensor, "_cache_tag_refs", 0) - 1
        if refs > 0:
            tensor._cache_tag_refs = refs
        elif refs == 0:
            del tensor._cache_tag, tensor._cache_tag_refs


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class _Entry:
    __slots__ = ("value", "nbytes")

    def __init__(self, value, nbytes: int):
        self.value = value
        self.nbytes = nbytes


class TensorCache:
    """Bytes-budgeted LRU over UDF outputs and encoder materializations."""

    def __init__(self, max_bytes: int = DEFAULT_TENSOR_CACHE_BYTES):
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._model_fps: dict = {}
        # One re-entrant lock guards entries, byte accounting, the
        # fingerprint memo AND the stat counters: hit/miss counts are bumped
        # under the same critical section as the lookup they describe, so
        # concurrent readers can never tear or misreport them. Leaf lock in
        # the engine's ordering — nothing else is acquired while held.
        self._lock = threading.RLock()
        self._activations = 0
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.gather_hits = 0
        self.rows_encoded = 0
        self.rows_computed = 0
        self.inserts = 0
        self.evictions = 0
        self.state_hashes = 0
        self.state_reuses = 0

    def admits(self, modules: Sequence = (), deterministic: bool = True) -> bool:
        """Whether a call over ``modules`` may use this cache: never for a
        deterministic=False UDF, a call recording gradients, or a module
        left in ``train()`` mode (dropout may make it stochastic); and a
        zero budget stores nothing."""
        return (self.max_bytes > 0 and deterministic and not is_grad_enabled()
                and not any(getattr(m, "training", False) for m in modules))

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def activate(self):
        """Make this cache visible to the expression evaluator and encoder
        memos for the duration of one query run (this thread only), and
        memoise each model's weight fingerprint for that run: the first
        :meth:`model_state_fp` of a model compares its weights with their
        snapshot, and later calls in the same statement reuse the answer."""
        token = _ACTIVE.set(self)
        # Weight fingerprints are memoised per activation (per statement),
        # which is exactly the granularity at which a training loop can
        # mutate weights: each module is checked against its snapshot once
        # per statement, however many UDFs and encoder memos share it.
        # Under concurrent serving, the memo is cleared when the *first* of
        # the overlapping activations begins — in-place weight mutation
        # while statements are in flight is outside the cache's contract
        # (models being trained must be in train() mode, which bypasses it).
        with self._lock:
            self._activations += 1
            if self._activations == 1:
                self._model_fps.clear()
        try:
            yield self
        finally:
            with self._lock:
                self._activations -= 1
            _ACTIVE.reset(token)

    def model_state_fp(self, model) -> str:
        """The fingerprint of ``model``'s weights (:func:`state_fingerprint`).

        The weights are hashed only when they differ bitwise from the
        snapshot kept beside the last fingerprint; the snapshot is an entry
        of this cache (its bytes count against the budget, and it can be
        evicted, after which the next call hashes again). Inside an
        activation the answer is memoised for the rest of the statement.
        """
        token = identity_token(model)
        if token is None:
            return state_fingerprint([model])
        memo = _ACTIVE.get() is self
        if memo:
            with self._lock:
                fp = self._model_fps.get(token)
            if fp is not None:
                return fp
        fp = self._checked_fp(token, model)
        if memo:
            with self._lock:
                self._model_fps[token] = fp
        return fp

    def _checked_fp(self, token: int, model) -> str:
        arrays = _state_arrays(model)
        if not arrays:
            return "stateless"
        key = ("state", token)
        with self._lock:
            entry = self._touch(key)
        # Snapshots are replaced, never written: comparing against a
        # captured one outside the lock is safe.
        if entry is not None and entry.value.matches(arrays):
            with self._lock:
                self.state_reuses += 1
            return entry.value.fp
        fp = _digest(arrays)
        with self._lock:
            self.state_hashes += 1
        if 0 < self.max_bytes and sum(a.nbytes for _, a in arrays) <= self.max_bytes:
            snapshot = _StateSnapshot(fp, arrays)
            self.put(key, snapshot, snapshot.nbytes)
        return fp

    def udf_state_fp(self, udf) -> str:
        """A UDF's weight fingerprint, joined from its modules'
        :meth:`model_state_fp`: a model shared by a UDF and its encoder
        memos is checked once per statement."""
        return ",".join(self.model_state_fp(module) for module in udf.modules)

    # ------------------------------------------------------------------
    # Core LRU mechanics
    # ------------------------------------------------------------------
    def _touch(self, key: tuple) -> Optional[_Entry]:
        # Callers hold self._lock.
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def get(self, key: tuple):
        """The value stored under ``key`` (a hit), or None (a miss)."""
        with self._lock:
            entry = self._touch(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry.value

    def put(self, key: tuple, value, nbytes: int) -> None:
        nbytes = int(nbytes)
        if self.max_bytes <= 0 or nbytes > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old.nbytes
            self._entries[key] = _Entry(value, nbytes)
            self.current_bytes += nbytes
            self.inserts += 1
            while self.current_bytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self.current_bytes -= evicted.nbytes
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> dict:
        # Unified stats vocabulary (docs/OBSERVABILITY.md): "size" is the
        # entry count, as in every other cache's stats.
        with self._lock:
            return {
                "hits": self.hits, "misses": self.misses,
                "gather_hits": self.gather_hits, "inserts": self.inserts,
                "rows_encoded": self.rows_encoded,
                "rows_computed": self.rows_computed,
                "evictions": self.evictions, "size": len(self._entries),
                "bytes": self.current_bytes, "max_bytes": self.max_bytes,
                "state_hashes": self.state_hashes,
                "state_reuses": self.state_reuses,
            }

    # ------------------------------------------------------------------
    # Row-keyed entries: UDF outputs and encoder outputs
    # ------------------------------------------------------------------
    def lookup(self, key: tuple, rows: Optional[np.ndarray], n: int,
               compute: Callable) -> EncodedTensor:
        """The outputs of one row-wise function for ``n`` rows, row ``i``
        being base row ``rows[i]`` (row ``i`` when None) of the base(s)
        ``key`` names. ``compute(part)`` returns the :class:`EncodedTensor`
        outputs of the rows ``part`` selects: None for all, a slice for one
        run (a zero-copy view of the arguments), else an index array. It is
        called once, on the rows the entry lacks; the answer is built from
        the entry captured here plus those rows. Counts a hit when a whole
        base is held in full, a gather hit when the entry answers otherwise
        (with a copy of the rows asked for), and a miss when anything is
        computed; computed rows count in ``rows_encoded`` for encoder
        entries (kind ``"enc"``), else in ``rows_computed``.
        """
        if n == 0:
            return compute(None)
        with self._lock:
            entry = self._touch(key)
        # Entry values are replaced, never written (copy-on-write in _fill),
        # so a captured reference stays valid outside the lock, and other
        # workers' lookups do not serialize behind this worker's gather.
        stored = entry.value if entry is not None else None
        if stored is not None and rows is None and stored.rows.size == n:
            with self._lock:
                self.hits += 1
            return stored.value
        if rows is None:
            rows = np.arange(n)
        if stored is None:
            missing = np.arange(n)
        else:
            pos, held = stored.positions(rows)
            if np.count_nonzero(held) == n:
                with self._lock:
                    self.gather_hits += 1
                return _take(stored.value, pos)
            missing = np.flatnonzero(~held)
        computed = missing.size
        fresh = compute(None if computed == n else (_run(missing) or missing))
        merged = _Rows.of(rows[missing], fresh)
        if stored is not None:
            merged = stored.merge(merged)
        if merged is None:
            # Outputs whose encodings cannot be concatenated replace the
            # entry: the whole request is computed again under one encoding.
            if computed < n:
                computed += n
                fresh = compute(None)
            merged = _Rows.of(rows, fresh)
        elif computed < n:
            fresh = _take(merged.value, merged.positions(rows)[0])
        with self._lock:
            self.misses += 1
            if key[0] == "enc":
                self.rows_encoded += computed
            else:
                self.rows_computed += computed
        self._fill(key, stored, merged, lambda: _Rows.of(rows, fresh))
        return fresh

    def _fill(self, key: tuple, old: Optional["_Rows"], merged: "_Rows",
              exact: Callable[[], "_Rows"]) -> None:
        """Store ``merged`` (``old`` plus one lookup's rows) if ``old`` is
        still the live entry under ``key``; else merge the lookup's rows,
        ``exact()``, into the live one, outside the lock, and retry. An entry
        that would outgrow the whole budget keeps the lookup's rows alone,
        so a repeat of that lookup still hits."""
        while True:
            alone = (exact() if old is not None and merged.nbytes > self.max_bytes
                     else None)
            with self._lock:
                live = self._entries.get(key)
                current = live.value if live is not None else None
                if current is old:
                    if alone is not None:
                        del self._entries[key]
                        self.current_bytes -= live.nbytes
                        self.evictions += 1
                        merged = alone
                    self.put(key, merged, merged.nbytes)
                    return
            old = current
            merged = exact() if old is None else (old.merge(exact()) or exact())

    def encoded(self, model, tag: CacheTag, images: Tensor, encode) -> Tensor:
        """``encode(images)`` through ``model``'s encoder entry for the base
        ``tag`` names: the encoder runs only on rows it has never embedded.
        Entries are per device (parameterless encoders follow their input)."""
        key = ("enc", identity_token(model), self.model_state_fp(model),
               str(images.device), tag.base)
        n = images.shape[0]

        def compute(part) -> EncodedTensor:
            rows = images if part is None else ops.getitem(images, part)
            return EncodedTensor(encode(rows).detach(), PlainEncoding())

        return self.lookup(key, tag.rows, n, compute).tensor


class _Rows:
    """One entry: ``value`` row ``i`` is the output for base row
    ``rows[i]``. ``rows`` is sorted and unique, and only rows that were
    computed are stored (and charged)."""

    __slots__ = ("rows", "value", "nbytes")

    def __init__(self, rows: np.ndarray, value: EncodedTensor):
        self.rows = rows
        self.value = value
        self.nbytes = int(rows.nbytes) + int(value.tensor.data.nbytes)

    @classmethod
    def of(cls, rows: np.ndarray, value: EncodedTensor) -> "_Rows":
        """The entry holding ``value`` row ``i`` for base row ``rows[i]``."""
        keys, first = np.unique(rows, return_index=True)
        return cls(keys, _take(value, first))

    def positions(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Index into ``value`` of each base row, and whether it is held
        (where it is not, the index is meaningless)."""
        pos = self.rows.searchsorted(rows)
        return pos, self.rows.take(pos, mode="clip") == rows

    def merge(self, other: "_Rows") -> Optional["_Rows"]:
        """Both entries' rows in one, or None when their encodings cannot
        be concatenated (:func:`repro.storage.column.concat_encoded`)."""
        value = concat_encoded([self.value, other.value])
        if value is None:
            return None
        return _Rows.of(np.concatenate([self.rows, other.rows]), value)


def _take(value: EncodedTensor, index) -> EncodedTensor:
    tensor = value.tensor
    data = tensor.data[index]
    return EncodedTensor(Tensor(data, device=tensor.device, dtype=data.dtype),
                         value.encoding)


def _run(index: np.ndarray) -> Optional[slice]:
    """``index`` as a slice when it is one increasing run, else None."""
    start, stop = int(index[0]), int(index[-1]) + 1
    if stop - start == index.size and (np.diff(index) == 1).all():
        return slice(start, stop)
    return None


# ----------------------------------------------------------------------
# Encoder memoisation (installed on two-tower models at UDF registration)
# ----------------------------------------------------------------------
def install_encoder_memo(model) -> None:
    """Wrap a model's encoder entry points with active-cache-aware memos.

    ``encode_image`` memoises on the input tensor's content tag;
    ``encode_text`` on the literal text tuple (query strings are tiny and
    recur across statements and index probes). Both defer to the original
    method whenever the cache does not admit the call (:func:`entered`).
    Installed once per model (idempotent) when a *deterministic* UDF
    carrying the model is registered.
    """
    for name, memo in (("encode_image", _image_memo), ("encode_text", _text_memo)):
        orig = getattr(model, name, None)
        if orig is not None and getattr(orig, "__tdp_encoder_orig__", None) is None:
            wrapped = memo(model, orig)
            wrapped.__tdp_encoder_orig__ = orig
            setattr(model, name, wrapped)


def _image_memo(model, orig):
    def encode_image(images):
        cache = entered([model])
        tag = getattr(images, "_cache_tag", None)
        if cache is None or tag is None:
            return orig(images)
        return cache.encoded(model, tag, images, orig)

    return encode_image


def _text_memo(model, orig):
    def forward(texts, device):
        # Most encoders are ``encode_text(texts)`` with no device
        # parameter: forward the kwarg only when the caller supplied one.
        return orig(texts) if device is None else orig(texts, device=device)

    def encode_text(texts, device=None):
        cache = entered([model])
        try:
            text_key = tuple(texts)
        except TypeError:
            cache = None
        if cache is None:
            return forward(texts, device)
        key = ("text", identity_token(model), cache.model_state_fp(model),
               text_key, str(device))
        out = cache.get(key)
        if out is None:
            out = forward(texts, device).detach()
            cache.put(key, out, out.data.nbytes)
        return out

    return encode_text
