"""Session-wide inference materialization cache (the "inference-aware
execution" subsystem).

The paper's core workload runs NN inference *inside* queries — similarity
UDFs over multimodal columns — yet a naive engine re-encodes the entire
corpus per statement, per duplicate subexpression, and once more on every
index (re)build. Following NeurStore's position that in-database model
outputs are first-class managed state, this module makes inference a cached,
versioned materialization:

* :class:`TensorCache` — a bytes-budgeted LRU owned by the session
  (``Session.tensor_cache``) that stores

  - **UDF output columns**, keyed on ``(udf name, udf registration version,
    parameter-state fingerprint, per-argument content identity, device)``;
  - **encoder outputs** (``model.encode_image(...)`` of two-tower models),
    one entry per ``(model identity, parameter-state fingerprint, device,
    base)`` filled row by row — shared between query-time evaluation and
    ``IndexManager._embed_corpus``, in both directions.

* **Content identity** rides on buffer identity plus row lineage. A
  registered numpy array stored without a copy is named by its buffer and
  row range (:func:`repro.storage.column.buffer_lineage`), and registration
  marks that buffer read-only, so the name can never come to mean other
  bytes. Every other stored tensor gets a process-unique token on first use
  (:func:`repro.storage.column.identity_token`); registered tensors must not
  be written in place while registered (docs/SEMANTICS.md).
  ``Column.take`` records ``(base token, row indices)`` lineage. A
  re-registration of other data never *hits* a stale entry; stale entries
  age out of the LRU. In-place weight mutation (a training loop touching a
  UDF's modules between statements) is caught by the parameter-state
  fingerprint. A module is re-hashed only when its weights differ bitwise
  from the snapshot kept beside its last fingerprint; snapshots are
  entries of this cache, charged and evicted like any other.

* **Row-subset reuse**: a UDF evaluated over a filtered subset of a column
  it has already scored in full is answered by *gathering* from the cached
  full-column entry — this is what makes a UDF duplicated between SELECT and
  WHERE/ORDER BY invoke the model exactly once per statement. UDFs are
  row-wise (outputs for row ``i`` depend only on inputs of row ``i``),
  which is what makes the gather sound.

* **Writes are deltas**: encoder outputs are kept per base buffer, keyed
  by base row, for the rows embedded so far (:meth:`TensorCache.encoded`).
  A lookup gathers the rows it has seen and runs the encoder once, on the
  rows it has not. Registering ``images[:420]`` after ``images[:400]``
  encodes 20 rows; a table over the whole buffer, embedded once by a
  ``CREATE VECTOR INDEX`` build or a similarity query, serves every later
  row range of it without encoding. Index builds and query-time encoder
  memos share these entries in both directions.

Trainable compilations never activate the cache, and grad-enabled UDF
invocations (plus models left in ``train()`` mode) always bypass it.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.column import Column, identity_token
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


def active() -> Optional["TensorCache"]:
    """The cache activated by the currently running query, if any."""
    return _ACTIVE.get()


# ----------------------------------------------------------------------
# Content identity: tags, lineage digests, parameter fingerprints
# ----------------------------------------------------------------------
class CacheTag:
    """Content identity of one tensor argument.

    ``base`` is the identity token of the full base-column tensor;
    ``rows_fp`` is ``None`` for the full column or a digest string for a
    row gather; ``rows`` holds the actual base-row indices behind
    ``rows_fp`` (``None`` for the full column) so cached full entries can
    be gathered from.
    """

    __slots__ = ("base", "rows_fp", "rows")

    def __init__(self, base: int, rows_fp, rows: Optional[np.ndarray]):
        self.base = base
        self.rows_fp = rows_fp
        self.rows = rows

    def __repr__(self) -> str:
        return f"CacheTag(base={self.base}, rows_fp={self.rows_fp!r})"


def rows_digest(rows: np.ndarray) -> str:
    """Collision-safe digest of a row-index array (keys stay small)."""
    return hashlib.blake2b(np.ascontiguousarray(rows).tobytes(),
                           digest_size=16).hexdigest()


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
        h.update(name.encode())
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


def _bits(array: np.ndarray) -> np.ndarray:
    """``array``'s bytes as unsigned integers of its item width: comparing
    these is a bitwise comparison, so a NaN weight equals itself."""
    flat = array.reshape(-1)
    width = array.dtype.itemsize
    return flat.view(f"u{width}") if width in (1, 2, 4, 8) else flat.view(np.uint8)


class _StateSnapshot:
    """A bitwise copy of one module's weights beside their fingerprint."""

    __slots__ = ("fp", "arrays", "nbytes")

    def __init__(self, fp: str, arrays: Sequence[Tuple[str, np.ndarray]]):
        self.fp = fp
        self.arrays = [(name, array.copy()) for name, array in arrays]
        self.nbytes = sum(int(array.nbytes) for _, array in arrays)

    def matches(self, arrays: Sequence[Tuple[str, np.ndarray]]) -> bool:
        if len(arrays) != len(self.arrays):
            return False
        for (name, now), (was_name, was) in zip(arrays, self.arrays):
            if (name != was_name or now.dtype != was.dtype
                    or now.shape != was.shape
                    or not np.array_equal(_bits(now), _bits(was))):
                return False
        return True


def column_tag(column: Column) -> Optional[CacheTag]:
    """Content identity of a column: lineage when it is a row gather of a
    base column, identity token of its carrier tensor otherwise."""
    lineage = getattr(column, "lineage", None)
    if lineage is not None:
        base, rows = lineage
        if rows is None:
            return CacheTag(base, None, None)
        return CacheTag(base, rows_digest(rows), rows)
    token = identity_token(column.tensor)
    if token is None:
        return None
    return CacheTag(token, None, None)


_TAG_LOCK = threading.Lock()


def tag_tensor(tensor, tag: CacheTag) -> None:
    """Attach a content tag to a tensor about to flow into user code.

    Tags are refcounted: concurrent queries evaluating UDFs over the same
    *shared* base-column tensor tag it with identical content identity, and
    each invocation's cleanup must only release its own reference — a plain
    set/del would let the first query to finish strip the tag out from
    under another query mid-flight (silently disabling the encoder memo
    for it).
    """
    with _TAG_LOCK:
        try:
            if getattr(tensor, "_cache_tag", None) is None:
                tensor._cache_tag = tag
                tensor._cache_tag_refs = 1
            else:
                tensor._cache_tag_refs = getattr(tensor, "_cache_tag_refs", 1) + 1
        except AttributeError:
            pass


def untag_tensor(tensor) -> None:
    """Release one reference to a tensor's content tag (tags are scoped to
    one cache-eligible UDF invocation — stale tags must not engage encoder
    memos for callers that did not opt in)."""
    with _TAG_LOCK:
        refs = getattr(tensor, "_cache_tag_refs", 1)
        try:
            if refs > 1:
                tensor._cache_tag_refs = refs - 1
            else:
                del tensor._cache_tag
                if hasattr(tensor, "_cache_tag_refs"):
                    del tensor._cache_tag_refs
        except AttributeError:
            pass


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
        self.inserts = 0
        self.evictions = 0
        self.state_hashes = 0
        self.state_reuses = 0

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

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._model_fps.clear()
            self.current_bytes = 0

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
                "evictions": self.evictions, "size": len(self._entries),
                "bytes": self.current_bytes, "max_bytes": self.max_bytes,
                "state_hashes": self.state_hashes,
                "state_reuses": self.state_reuses,
            }

    # ------------------------------------------------------------------
    # UDF output entries
    # ------------------------------------------------------------------
    def udf_get(self, key: tuple, full_key: Optional[tuple],
                rows: Optional[np.ndarray]) -> Optional[List[Column]]:
        """Exact hit, or a row gather from a cached full-column entry.

        The gather itself (a potentially large copy) happens after the lock
        is released: entry values are immutable, so capturing the reference
        under the lock is enough, and concurrent workers' lookups must not
        serialize behind another worker's copy.
        """
        full_value = None
        with self._lock:
            entry = self._touch(key)
            if entry is not None:
                self.hits += 1
                return entry.value
            if full_key is not None and rows is not None:
                full = self._touch(full_key)
                if full is not None and full.value:
                    n = full.value[0].num_rows
                    if rows.size == 0 or int(rows.max()) < n:
                        self.gather_hits += 1
                        full_value = full.value
            if full_value is None:
                self.misses += 1
        if full_value is not None:
            return [col.take(rows) for col in full_value]
        return None

    def udf_put(self, key: tuple, columns: Sequence[Column]) -> None:
        nbytes = sum(int(col.tensor.data.nbytes) for col in columns)
        self.put(key, list(columns), nbytes)

    # ------------------------------------------------------------------
    # Encoder (embedding) entries
    # ------------------------------------------------------------------
    def encoded(self, model_token: int, model_fp: str, tag: CacheTag,
                device: str, images: Tensor, encode) -> Tensor:
        """``encode(images)``, running the encoder only on rows it has never
        seen. ``tag`` names the base buffer and the base row behind each row
        of ``images``; ``device`` is the input's device (parameterless
        encoders follow it, so entries are per-device, like UDF-output keys).

        One entry per ``(model, state, device, base)`` holds the embeddings
        of the base rows seen so far. Rows it holds are gathered; the rest
        are encoded in one call, and the answer is assembled from the entry
        captured at lookup plus the fresh rows, so an eviction in between
        cannot change it.
        """
        n = images.shape[0]
        if n == 0:
            return encode(images)
        rows = tag.rows if tag.rows is not None else np.arange(n)
        key = ("enc", model_token, model_fp, device, tag.base)
        with self._lock:
            entry = self._touch(key)
        # Entry values are replaced, never written (copy-on-write in
        # _fill_encoded), so a captured reference stays valid outside the
        # lock, and other workers' lookups do not serialize behind this
        # worker's gather.
        stored = entry.value if entry is not None else None
        pos = stored.positions(rows) if stored is not None else np.full(n, -1)
        missing = np.flatnonzero(pos < 0)
        if missing.size == 0:
            whole = tag.rows is None and stored.rows.size == n
            with self._lock:
                if whole:
                    self.hits += 1
                else:
                    self.gather_hits += 1
            if whole:
                return stored.value
            return _tensor(stored.value.data[pos], stored.value)
        with self._lock:
            self.misses += 1
            self.rows_encoded += int(missing.size)
        fresh = encode(images if missing.size == n
                       else ops.getitem(images, missing)).detach()
        if missing.size == n:
            out = fresh
        else:
            data = np.empty((n,) + fresh.shape[1:], dtype=fresh.dtype)
            have = np.flatnonzero(pos >= 0)
            data[have] = stored.value.data[pos[have]]
            data[missing] = fresh.data
            out = _tensor(data, fresh)
        self._fill_encoded(key, _Embedded.of(rows, out))
        return out

    def _fill_encoded(self, key: tuple, exact: "_Embedded") -> None:
        """Merge one lookup's rows into the entry under ``key``.

        The merged value is built outside the lock from a captured entry and
        stored only if that entry is still the live one; otherwise another
        fill (or an eviction) got there first and the merge is redone. When
        the merged entry would outgrow the whole budget, the older rows are
        evicted and this lookup's rows alone are kept, so a repeat of it
        still hits."""
        while True:
            with self._lock:
                entry = self._entries.get(key)
            old = entry.value if entry is not None else None
            merged = exact if old is None else old.merge(exact)
            with self._lock:
                live = self._entries.get(key)
                if (live.value if live is not None else None) is not old:
                    continue
                if merged.nbytes > self.max_bytes and old is not None:
                    del self._entries[key]
                    self.current_bytes -= live.nbytes
                    self.evictions += 1
                    merged = exact
                self.put(key, merged, merged.nbytes)
                return


def _tensor(data: np.ndarray, like: Tensor) -> Tensor:
    return Tensor(data, device=like.device, dtype=data.dtype)


class _Embedded:
    """Encoder outputs for some rows of one base: ``value[i]`` is the
    embedding of base row ``rows[i]``; ``rows`` is sorted and unique, and
    only rows that were encoded are stored (and charged)."""

    __slots__ = ("rows", "value", "nbytes")

    def __init__(self, rows: np.ndarray, value: Tensor):
        self.rows = rows
        self.value = value
        self.nbytes = int(rows.nbytes) + int(value.data.nbytes)

    @classmethod
    def of(cls, rows: np.ndarray, value: Tensor) -> "_Embedded":
        """The entry holding ``value[i]`` for base row ``rows[i]``."""
        keys, first = np.unique(rows, return_index=True)
        return cls(keys, _tensor(value.data[first], value))

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Index into ``value`` of each base row, -1 where it is absent."""
        pos = np.searchsorted(self.rows, rows)
        inside = pos < self.rows.size
        found = np.zeros(rows.shape, dtype=bool)
        found[inside] = self.rows[pos[inside]] == rows[inside]
        return np.where(found, pos, -1)

    def merge(self, other: "_Embedded") -> "_Embedded":
        keys = np.concatenate([self.rows, other.rows])
        data = np.concatenate([self.value.data, other.value.data])
        keys, first = np.unique(keys, return_index=True)
        return _Embedded(keys, _tensor(data[first], self.value))


# ----------------------------------------------------------------------
# Encoder memoisation (installed on two-tower models at UDF registration)
# ----------------------------------------------------------------------
def install_encoder_memo(model) -> None:
    """Wrap a model's encoder entry points with active-cache-aware memos.

    ``encode_image`` memoises on the input tensor's content tag;
    ``encode_text`` memoises on the literal text tuple (query strings are
    tiny and recur across statements — SELECT lists repeating one query, the
    vector index's probe encoding, repeated session calls). Both wrappers
    are transparent: they defer to the original method whenever no cache is
    active, gradients are being recorded, or the model is in training mode.
    Installed once per model (idempotent) when a *deterministic* UDF
    carrying the model is registered.
    """
    _install_image_memo(model)
    _install_text_memo(model)


def _install_image_memo(model) -> None:
    current = getattr(model, "encode_image", None)
    if current is None or getattr(current, "__tdp_encoder_orig__", None) is not None:
        return
    orig = current

    def encode_image(images):
        cache = _ACTIVE.get()
        if cache is not None and cache.max_bytes <= 0:
            cache = None
        if (cache is None or is_grad_enabled()
                or getattr(model, "training", False)):
            return orig(images)
        tag = getattr(images, "_cache_tag", None)
        if tag is None:
            return orig(images)
        return cache.encoded(identity_token(model), cache.model_state_fp(model),
                             tag, str(images.device), images, orig)

    encode_image.__tdp_encoder_orig__ = orig
    model.encode_image = encode_image


def _install_text_memo(model) -> None:
    current = getattr(model, "encode_text", None)
    if current is None or getattr(current, "__tdp_encoder_orig__", None) is not None:
        return
    orig = current

    def _forward(texts, device):
        # Preserve the wrapped model's call shape: most test/user encoders
        # are ``encode_text(texts)`` with no device parameter, so the kwarg
        # is only forwarded when the caller actually supplied one.
        if device is None:
            return orig(texts)
        return orig(texts, device=device)

    def encode_text(texts, device=None):
        cache = _ACTIVE.get()
        if cache is not None and cache.max_bytes <= 0:
            cache = None
        if (cache is None or is_grad_enabled()
                or getattr(model, "training", False)):
            return _forward(texts, device)
        try:
            text_key = tuple(texts)
        except TypeError:
            return _forward(texts, device)
        token = identity_token(model)
        key = ("text", token, cache.model_state_fp(model), text_key,
               str(device))
        with cache._lock:
            entry = cache._touch(key)
            if entry is not None:
                cache.hits += 1
                return entry.value
            cache.misses += 1
        out = _forward(texts, device)
        cache.put(key, out.detach(), out.detach().data.nbytes)
        return out

    encode_text.__tdp_encoder_orig__ = orig
    model.encode_text = encode_text
