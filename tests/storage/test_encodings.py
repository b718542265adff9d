"""Encodings: plain, order-preserving dictionary, PE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tcr
from repro.errors import EncodingError
from repro.storage.encodings import (
    DictionaryEncoding,
    EncodedTensor,
    PEEncoding,
    PlainEncoding,
    ProbabilityEncoding,
)
from repro.tcr.tensor import Tensor

# Every code point but NUL (rejected at encode) and the surrogates.
text = st.text(alphabet=st.characters(min_codepoint=1,
                                      exclude_categories=("Cs",)),
               max_size=12)


class TestPlain:
    def test_roundtrip(self):
        enc = PlainEncoding.encode(np.array([1.5, 2.5], dtype=np.float32))
        np.testing.assert_array_equal(enc.decode(), [1.5, 2.5])

    def test_multidimensional(self):
        enc = PlainEncoding.encode(np.zeros((4, 3, 28, 28)))
        assert enc.num_rows == 4


class TestDictionary:
    def test_roundtrip(self):
        values = ["beta", "alpha", "beta", "gamma"]
        enc = DictionaryEncoding.encode(values)
        np.testing.assert_array_equal(enc.decode(), values)

    def test_dictionary_is_2d_codepoint_tensor(self):
        enc = DictionaryEncoding.encode(["ab", "c"])
        dictionary = enc.encoding.dictionary
        assert dictionary.ndim == 2
        assert dictionary.dtype == np.uint32

    def test_codes_are_order_preserving(self):
        enc = DictionaryEncoding.encode(["pear", "apple", "zebra", "mango"])
        codes = enc.tensor.data
        strings = enc.decode()
        for i in range(len(strings)):
            for j in range(len(strings)):
                assert (codes[i] < codes[j]) == (strings[i] < strings[j])

    def test_code_for_lookup(self):
        enc = DictionaryEncoding.encode(["b", "a", "c"]).encoding
        assert enc.code_for("a") == 0
        assert enc.code_for("zzz") is None

    def test_prefix_range(self):
        enc = DictionaryEncoding.encode(
            ["app", "apple", "apply", "banana", "ap", "app\U0001F600",
             "app\uffff", "app\uffffz", "apq"]).encoding
        lo, hi = enc.prefix_range("app")
        matching = [s for s in enc.strings if s.startswith("app")]
        assert sorted(enc.strings[lo:hi]) == sorted(matching)
        assert len(matching) == 6

    def test_prefix_range_at_the_top_code_point(self):
        top = chr(0x10FFFF)
        enc = DictionaryEncoding.encode(
            ["", "a", "a" + top, "a" + top + "b", "b", top, top + top]).encoding
        for prefix in ("", "a", "a" + top, top, top + top):
            lo, hi = enc.prefix_range(prefix)
            assert list(enc.strings[lo:hi]) == [
                s for s in enc.strings if s.startswith(prefix)], prefix

    def test_rejects_nul(self):
        """NUL is the code matrix's padding: stored, it would decode away
        and alias another string ('a\\x00b' would read back as 'ab')."""
        with pytest.raises(EncodingError):
            DictionaryEncoding.encode(["ab", "a\x00b"])

    def test_none_becomes_empty_string(self):
        enc = DictionaryEncoding.encode(["x", None])
        assert enc.decode()[1] == ""

    def test_validate_rejects_2d_codes(self):
        enc = DictionaryEncoding.encode(["a"]).encoding
        with pytest.raises(EncodingError):
            EncodedTensor(tcr.zeros(2, 2).long(), enc)

    def test_decode_rejects_out_of_range(self):
        enc = DictionaryEncoding.encode(["a", "b"]).encoding
        bad = Tensor(np.array([5], dtype=np.int64))
        with pytest.raises(EncodingError):
            enc.decode(bad)

    @given(st.lists(text, min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        enc = DictionaryEncoding.encode(values)
        got = enc.decode().tolist()
        assert got == [v for v in values]

    @given(st.lists(text, min_size=1, max_size=20), text)
    @settings(max_examples=50, deadline=None)
    def test_prefix_range_property(self, values, prefix):
        enc = DictionaryEncoding.encode(values).encoding
        for p in (prefix, *(v[:k] for v in values[:3] for k in (1, 2))):
            lo, hi = enc.prefix_range(p)
            assert list(enc.strings[lo:hi]) == [
                s for s in enc.strings if s.startswith(p)], p

    @given(st.lists(text, min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_order_preservation_property(self, values):
        enc = DictionaryEncoding.encode(values)
        codes = enc.tensor.data
        order_by_code = np.argsort(codes, kind="stable")
        order_by_string = np.argsort(np.asarray(values, dtype=object), kind="stable")
        got = [values[i] for i in order_by_code]
        want = [values[i] for i in order_by_string]
        assert got == want


class TestProbability:
    def test_encode_probabilities_pass_through(self):
        probs = np.array([[0.9, 0.1], [0.3, 0.7]], dtype=np.float32)
        enc = PEEncoding.encode(probs, domain=["no", "yes"])
        np.testing.assert_allclose(enc.tensor.data, probs)
        np.testing.assert_array_equal(enc.decode(), ["no", "yes"])

    def test_encode_logits_applies_softmax(self):
        logits = np.array([[10.0, 0.0]], dtype=np.float32)
        enc = PEEncoding.encode(logits)
        assert enc.tensor.data[0, 0] > 0.99
        np.testing.assert_allclose(enc.tensor.data.sum(axis=1), 1.0, rtol=1e-5)

    def test_explicit_logits_flag(self):
        probs = np.array([[0.5, 0.5]], dtype=np.float32)
        enc = PEEncoding.encode(probs, logits=True)
        np.testing.assert_allclose(enc.tensor.data, [[0.5, 0.5]])

    def test_default_domain_is_range(self):
        enc = PEEncoding.encode(np.eye(3, dtype=np.float32))
        np.testing.assert_array_equal(enc.encoding.domain, [0, 1, 2])

    def test_gradient_flows_through_encode(self):
        logits = tcr.tensor([[1.0, 2.0]], requires_grad=True)
        enc = PEEncoding.encode(logits)
        enc.tensor.sum().backward()
        assert logits.grad is not None

    def test_validate_shape_and_classes(self):
        enc = ProbabilityEncoding(num_classes=3)
        with pytest.raises(EncodingError):
            EncodedTensor(tcr.zeros(4), enc)
        with pytest.raises(EncodingError):
            EncodedTensor(tcr.zeros(4, 2), enc)

    def test_hard_codes(self):
        enc = PEEncoding.encode(np.array([[0.2, 0.8], [0.9, 0.1]],
                                         dtype=np.float32))
        assert enc.encoding.hard_codes(enc.tensor).tolist() == [1, 0]

    @given(st.lists(st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3),
                    min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_rows_always_normalised(self, raw):
        scores = np.asarray(raw, dtype=np.float32)
        enc = PEEncoding.encode(scores, logits=True)
        np.testing.assert_allclose(enc.tensor.data.sum(axis=1), 1.0, rtol=1e-4)
