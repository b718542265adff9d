"""String kernels over padded char-code matrices.

The dictionary of a :class:`DictionaryEncoding` *is* the paper's string
tensor representation: a ``(cardinality, max_len)`` uint32 matrix with one
zero-padded string per row. Every kernel here runs over that matrix — O(c)
in the dictionary, never O(n) in the rows — and maps results back through
the integer codes:

* ``LIKE`` is an NFA sweep over the matrix (one vectorized step per pattern
  token, ``logical_or.accumulate`` for ``%``),
* ``UPPER``/``LOWER`` transform the dictionary itself and re-sort it, so the
  per-row work is a single code remap gather,
* ``LENGTH`` is a pad-count per dictionary row plus a gather.

Results are memoized on the encoding object (dictionaries are immutable):
repeated batches — and every shard of a sharded scan — reuse them. The
memo writes are idempotent, so a racing first-touch from two shard helpers
is benign.
"""

from __future__ import annotations

import re
from typing import Tuple

import numpy as np

from repro.storage.encodings import DictionaryEncoding
from repro.storage.encodings.dictionary import _strings_to_codepoints
from repro.tcr.tensor import Tensor

_PREFIX_PATTERN = re.compile(r"[^%_]*%")


def like_matrix_mask(matrix: np.ndarray, pattern: str) -> np.ndarray:
    """Match SQL LIKE against every row of a padded char-code matrix.

    Simulates the pattern NFA over all rows at once: ``state[i, j]`` is True
    when the tokens consumed so far can match the first ``j`` characters of
    row ``i``. ``%`` closes over any suffix via a left-to-right or-scan;
    ``_`` and literals shift the frontier by one (valid) character. A row
    matches when its final state covers exactly its unpadded length.
    Padding zeros mark end-of-string (the dictionary codec rejects NUL
    at encode), and — unlike the old regex lowering of ``%``/``_`` to ``.*``/``.``
    without DOTALL — wildcards here match newlines, as SQL requires.
    """
    rows, width = matrix.shape
    valid = matrix != 0
    lengths = valid.sum(axis=1)
    state = np.zeros((rows, width + 1), dtype=bool)
    state[:, 0] = True
    for token in pattern:
        if token == "%":
            np.logical_or.accumulate(state, axis=1, out=state)
        elif token == "_":
            nxt = np.zeros_like(state)
            np.logical_and(state[:, :-1], valid, out=nxt[:, 1:])
            state = nxt
        else:
            nxt = np.zeros_like(state)
            np.logical_and(state[:, :-1], matrix == ord(token), out=nxt[:, 1:])
            state = nxt
    return state[np.arange(rows), lengths]


def like_mask(encoding: DictionaryEncoding, codes: np.ndarray,
              pattern: str) -> np.ndarray:
    """Row mask for ``column LIKE pattern`` over dictionary codes.

    Prefix patterns (``'abc%'``) stay a code-range check against the sorted
    dictionary; everything else runs the matrix NFA once per (dictionary,
    pattern) and gathers the per-distinct verdicts through the codes.
    """
    if _PREFIX_PATTERN.fullmatch(pattern):
        lo, hi = encoding.prefix_range(pattern[:-1])
        return (codes >= lo) & (codes < hi)
    memo = encoding.__dict__.setdefault("_like_memo", {})
    dict_mask = memo.get(pattern)
    if dict_mask is None:
        dict_mask = like_matrix_mask(encoding.dictionary.detach().data, pattern)
        memo[pattern] = dict_mask
    return dict_mask[codes]


def comparable_codes(left, right) -> Tuple[np.ndarray, np.ndarray]:
    """Integer codes of two dictionary-coded columns that compare (and
    join) like their strings, across both sides. One shared dictionary:
    the codes as they are. Two dictionaries: each is remapped onto the
    sorted union, O(cardinality), never decoding a row."""
    left_codes, right_codes = left.tensor.data, right.tensor.data
    if left.encoding == right.encoding:
        return left_codes, right_codes
    split = left.encoding.cardinality
    _, remap = np.unique(
        np.concatenate([left.encoding.sorted_strings,
                        right.encoding.sorted_strings]), return_inverse=True)
    remap = remap.reshape(-1)
    return remap[:split][left_codes], remap[split:][right_codes]


def case_transform(encoding: DictionaryEncoding,
                   upper: bool) -> Tuple[DictionaryEncoding, np.ndarray]:
    """``(new_encoding, remap)`` lowering UPPER/LOWER to a code gather.

    ``remap[codes]`` are valid codes of ``new_encoding`` whose decoded
    values equal ``UPPER(value)`` (resp. ``LOWER``). The dictionary itself
    is case-shifted — vectorized for all-ASCII dictionaries, per distinct
    string otherwise (Unicode case mapping can change lengths) — then
    restored to sorted-unique form so code-order comparisons keep working.
    """
    memo = encoding.__dict__.setdefault("_case_memo", {})
    hit = memo.get(upper)
    if hit is None:
        hit = _build_case_transform(encoding, upper)
        memo[upper] = hit
    return hit


def _build_case_transform(encoding, upper):
    matrix = encoding.dictionary.detach().data
    if matrix.size and int(matrix.max()) < 128:
        lo, hi = (97, 122) if upper else (65, 90)
        shift = np.where((matrix >= lo) & (matrix <= hi),
                         np.uint32(32), np.uint32(0))
        transformed = matrix - shift if upper else matrix + shift
    else:
        strings = [s.upper() if upper else s.lower() for s in encoding.strings]
        transformed = _strings_to_codepoints(strings)
    # Zero padding sorts below every code point, so lexicographic row order
    # equals string order and unique rows are exactly the distinct strings.
    uniques, inverse = np.unique(transformed, axis=0, return_inverse=True)
    new_encoding = DictionaryEncoding(
        Tensor(np.ascontiguousarray(uniques, dtype=np.uint32),
               device=encoding.dictionary.device))
    return new_encoding, inverse.reshape(-1).astype(np.int64)


def substr_value(text: str, start: int, length) -> str:
    """SQL SUBSTR semantics shared by the interpreter and the compiled
    kernel: 1-based start (non-positive clamps to the string head),
    optional length (non-positive yields the empty string)."""
    begin = start - 1 if start > 0 else 0
    if length is None:
        return text[begin:]
    if length <= 0:
        return ""
    return text[begin:begin + length]


def string_transform(encoding: DictionaryEncoding, key,
                     fn) -> Tuple[DictionaryEncoding, np.ndarray]:
    """``(new_encoding, remap)`` lowering a per-distinct string function
    (TRIM, SUBSTR with constant bounds, ...) to a code gather.

    Same shape as :func:`case_transform`: apply ``fn`` once per distinct
    string, restore sorted-unique form, and memoize on the (immutable)
    encoding under ``key`` so repeated batches and shard helpers reuse it.
    """
    memo = encoding.__dict__.setdefault("_transform_memo", {})
    hit = memo.get(key)
    if hit is None:
        strings = [fn(s) for s in encoding.strings]
        transformed = _strings_to_codepoints(strings)
        uniques, inverse = np.unique(transformed, axis=0, return_inverse=True)
        new_encoding = DictionaryEncoding(
            Tensor(np.ascontiguousarray(uniques, dtype=np.uint32),
                   device=encoding.dictionary.device))
        hit = (new_encoding, inverse.reshape(-1).astype(np.int64))
        memo[key] = hit
    return hit


def length_transform(encoding: DictionaryEncoding) -> np.ndarray:
    """Per-distinct string lengths (int64); index with codes for LENGTH."""
    lengths = encoding.__dict__.get("_length_memo")
    if lengths is None:
        matrix = encoding.dictionary.detach().data
        lengths = (matrix != 0).sum(axis=1).astype(np.int64)
        encoding.__dict__["_length_memo"] = lengths
    return lengths
