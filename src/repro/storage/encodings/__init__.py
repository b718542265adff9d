"""Column encodings (paper §2, "Data Encoding").

One stored form per value kind: plain tensors for numbers (any rank), a
sorted dictionary for strings, and probability-encoded (PE) columns for
classifier outputs.
"""

from repro.storage.encodings.base import EncodedTensor, Encoding
from repro.storage.encodings.dictionary import DictionaryEncoding
from repro.storage.encodings.plain import PlainEncoding
from repro.storage.encodings.probability import PEEncoding, ProbabilityEncoding

__all__ = [
    "DictionaryEncoding",
    "EncodedTensor",
    "Encoding",
    "PEEncoding",
    "PlainEncoding",
    "ProbabilityEncoding",
]
