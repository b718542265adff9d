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
    keyed on ``(model identity, parameter-state fingerprint, input content
    identity)`` — shared between query-time evaluation and
    ``IndexManager._embed_corpus``, in both directions.

* **Content identity** rides on object identity plus row lineage: every
  stored tensor gets a process-unique token on first use
  (:func:`repro.storage.column.identity_token`), and ``Column.take`` records
  ``(base token, row indices)`` lineage. Because tables are immutable and
  every ``register_*`` builds new tensors, identity tokens give exact
  invalidation — the same machinery (``catalog.version`` /
  ``functions.version`` object turnover) that invalidates the plan cache.
  Re-registration never *hits* a stale entry; stale entries age out of the
  LRU. In-place weight mutation (a training loop touching a UDF's modules
  between statements) is caught by the parameter-state fingerprint.

* **Row-subset reuse**: a UDF evaluated over a filtered subset of a column
  it has already scored in full is answered by *gathering* from the cached
  full-column entry — this is what makes a UDF duplicated between SELECT and
  WHERE/ORDER BY invoke the model exactly once per statement. UDFs are
  row-wise (outputs for row ``i`` depend only on inputs of row ``i``),
  which is what makes the gather sound.

* **One encode per column**: a UDF call receives the whole column it is
  evaluated over, so the encoder memo inside it sees the full corpus and
  stores one full-column embedding. A ``CREATE VECTOR INDEX`` build after
  a similarity query reads that entry and encodes nothing (and a query
  after a build reuses the build's entry the same way).

Trainable compilations never activate the cache, and grad-enabled UDF
invocations (plus models left in ``train()`` mode) always bypass it.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import threading
from collections import OrderedDict
from typing import List, Optional, Sequence

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


def state_fingerprint(modules: Sequence[object]) -> str:
    """Digest of every parameter and buffer a UDF/model owns.

    Catches in-place weight mutation (training between statements) that
    object identity cannot see. Modules without parameters hash to a
    constant: their outputs depend on inputs alone.
    """
    h = hashlib.blake2b(digest_size=16)
    count = 0
    for module in modules:
        named = getattr(module, "named_parameters", None)
        if named is None:
            continue
        for name, param in module.named_parameters():
            h.update(name.encode())
            h.update(np.ascontiguousarray(param.data).tobytes())
            count += 1
        for name, buf in module.named_buffers():
            if buf is not None:
                h.update(name.encode())
                h.update(np.ascontiguousarray(buf.data).tobytes())
                count += 1
    return h.hexdigest() if count else "stateless"


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
        self.inserts = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def activate(self):
        """Make this cache visible to the expression evaluator and encoder
        memos for the duration of one query run (this thread only)."""
        token = _ACTIVE.set(self)
        # Weight fingerprints are memoised per activation (per statement):
        # cheap enough to recompute between statements, which is exactly the
        # granularity at which a training loop can mutate weights. Under
        # concurrent serving, the memo is cleared when the *first* of the
        # overlapping activations begins — in-place weight mutation while
        # statements are in flight is outside the cache's contract (models
        # being trained must be in train() mode, which bypasses it).
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
        if _ACTIVE.get() is not self:
            return state_fingerprint([model])
        token = identity_token(model)
        with self._lock:
            fp = self._model_fps.get(token)
        if fp is None:
            fp = state_fingerprint([model])
            with self._lock:
                self._model_fps[token] = fp
        return fp

    def udf_state_fp(self, udf) -> str:
        """Per-activation memo of a UDF's combined module fingerprint (the
        warm path must not re-hash model weights on every call site)."""
        if _ACTIVE.get() is not self:
            return state_fingerprint(udf.modules)
        token = ("udf", identity_token(udf))
        with self._lock:
            fp = self._model_fps.get(token)
        if fp is None:
            fp = state_fingerprint(udf.modules)
            with self._lock:
                self._model_fps[token] = fp
        return fp

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
                "evictions": self.evictions, "size": len(self._entries),
                "bytes": self.current_bytes, "max_bytes": self.max_bytes,
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
    def encoded_get(self, model_token: int, model_fp: str, tag: CacheTag,
                    device: str) -> Optional[Tensor]:
        """Exact hit, or a row gather from the full-column entry.
        ``device`` is the input tensor's device: parameterless encoders
        follow it, so entries are per-device (like UDF-output keys)."""
        key = ("enc", model_token, model_fp, device, tag.base, tag.rows_fp)
        full_value = None
        with self._lock:
            entry = self._touch(key)
            if entry is not None:
                self.hits += 1
                return entry.value
            if tag.rows_fp is not None:
                full = self._touch(("enc", model_token, model_fp, device,
                                    tag.base, None))
                if full is not None and tag.rows is not None:
                    rows = tag.rows
                    if rows.size == 0 or int(rows.max()) < full.value.shape[0]:
                        self.gather_hits += 1
                        full_value = full.value
            if full_value is None:
                self.misses += 1
        # The gather happens outside the lock: entry tensors are immutable,
        # so a captured reference stays valid, and other workers' lookups
        # must not serialize behind this worker's copy.
        if full_value is not None:
            return ops.getitem(full_value, tag.rows)
        return None

    def encoded_put(self, model_token: int, model_fp: str, tag: CacheTag,
                    device: str, value: Tensor) -> None:
        key = ("enc", model_token, model_fp, device, tag.base, tag.rows_fp)
        self.put(key, value, value.data.nbytes)


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
        token = identity_token(model)
        fp = cache.model_state_fp(model)
        device = str(images.device)
        hit = cache.encoded_get(token, fp, tag, device)
        if hit is not None:
            return hit
        out = orig(images)
        cache.encoded_put(token, fp, tag, device, out.detach())
        return out

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
