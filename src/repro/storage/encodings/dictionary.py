"""Order-preserving dictionary encoding for string columns.

Paper §2: strings use "order-preserving dictionary encoding ... where the
dictionary itself is a 2-dimensional plain tensor, storing one string-vector
per row". We store each distinct string as a row of unicode code points
(padded with zeros) in a ``uint32`` tensor; because the dictionary is built
from the *sorted* distinct strings, integer code comparisons agree with
lexicographic (code point) string comparisons, so range predicates, LIKE
prefixes and ORDER BY run directly on the codes without decoding. The
dictionary is the one stored form of strings; NUL is its padding, so
strings containing NUL are rejected at encode.
"""

from __future__ import annotations

import sys
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EncodingError
from repro.storage.encodings.base import EncodedTensor, Encoding
from repro.tcr.tensor import Tensor


def _strings_to_codepoints(strings: Sequence[str]) -> np.ndarray:
    """Pack strings into a (n, max_len) uint32 code-point matrix."""
    max_len = max((len(s) for s in strings), default=1) or 1
    out = np.zeros((len(strings), max_len), dtype=np.uint32)
    for i, s in enumerate(strings):
        for j, ch in enumerate(s):
            out[i, j] = ord(ch)
    return out


def _codepoints_to_strings(matrix: np.ndarray) -> np.ndarray:
    strings = []
    for row in matrix:
        chars = [chr(int(c)) for c in row if c != 0]
        strings.append("".join(chars))
    return np.asarray(strings, dtype=object)


class DictionaryEncoding(Encoding):
    """Sorted-dictionary string encoding; the carrier tensor holds int64 codes."""

    name = "dictionary"

    def __init__(self, dictionary: Tensor):
        if dictionary.ndim != 2:
            raise EncodingError("dictionary must be a 2-d code-point tensor")
        self.dictionary = dictionary
        self._strings = _codepoints_to_strings(dictionary.data)
        # Sorted fixed-width view for binary search (the object array above
        # is what decode gathers from); built once, dictionaries are immutable.
        self._sorted = self._strings.astype(str)

    @property
    def cardinality(self) -> int:
        return self.dictionary.shape[0]

    @property
    def strings(self) -> np.ndarray:
        return self._strings

    @property
    def sorted_strings(self) -> np.ndarray:
        """The dictionary as a fixed-width ``str`` array (binary-searchable)."""
        return self._sorted

    def validate(self, tensor: Tensor) -> None:
        if tensor.ndim != 1:
            raise EncodingError("dictionary-encoded column must be a 1-d code tensor")
        if tensor.dtype.kind not in "iu":
            raise EncodingError("dictionary codes must be integers")

    def decode(self, tensor: Tensor) -> np.ndarray:
        codes = tensor.detach().data
        if codes.size and (codes.min() < 0 or codes.max() >= self.cardinality):
            raise EncodingError("dictionary code out of range during decode")
        return self._strings[codes]

    def code_for(self, value: str) -> Optional[int]:
        """Exact-match lookup; None when the value is absent from the dictionary."""
        idx = int(np.searchsorted(self._sorted, value))
        if idx < self.cardinality and self._sorted[idx] == value:
            return idx
        return None

    def range_for(self, value: str, side: str = "left") -> int:
        """Binary-search boundary so inequality predicates run on codes."""
        return int(np.searchsorted(self._sorted, value, side=side))

    def prefix_range(self, prefix: str) -> Tuple[int, int]:
        """Code range [lo, hi) of strings starting with ``prefix`` (LIKE 'p%').

        Strings order by code point, so the strings starting with ``prefix``
        are those from ``prefix`` up to the first string past it: the prefix
        with its last code point incremented. Trailing U+10FFFF characters
        cannot be incremented and are dropped first; when nothing is left
        (or the prefix is empty) the range runs to the end of the dictionary.
        """
        lo = self.range_for(prefix, "left")
        stem = prefix.rstrip(chr(sys.maxunicode))
        if not stem:
            return lo, self.cardinality
        return lo, self.range_for(stem[:-1] + chr(ord(stem[-1]) + 1), "left")

    @staticmethod
    def encode(values: Iterable[str], device=None) -> EncodedTensor:
        values = ["" if v is None else str(v) for v in values]
        uniques = sorted(set(values))
        if any("\x00" in s for s in uniques):
            # NUL is the code matrix's padding: a stored NUL would decode
            # away and alias another string.
            raise EncodingError("strings must not contain NUL characters")
        if not uniques:
            uniques = [""]
        index = {s: i for i, s in enumerate(uniques)}
        codes = np.fromiter((index[v] for v in values), dtype=np.int64, count=len(values))
        dictionary = Tensor(_strings_to_codepoints(uniques), device=device)
        encoding = DictionaryEncoding(dictionary)
        return EncodedTensor(Tensor(codes, device=device), encoding)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DictionaryEncoding)
            and self._strings.shape == other._strings.shape
            and bool(np.all(self._strings == other._strings))
        )

    def __hash__(self) -> int:
        return hash((type(self), self.cardinality))

    def __repr__(self) -> str:
        return f"DictionaryEncoding(cardinality={self.cardinality})"
