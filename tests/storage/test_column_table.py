"""Columns and tables."""

import numpy as np
import pytest

from repro import tcr
from repro.errors import CatalogError, EncodingError, ShapeError
from repro.storage import types as dt
from repro.storage.column import Column
from repro.storage.encodings import DictionaryEncoding, PEEncoding
from repro.storage.frame import DataFrame
from repro.storage.table import Table


class TestColumn:
    def test_from_values_infers_encodings(self):
        assert isinstance(Column.from_values("s", ["a", "b"]).encoding,
                          DictionaryEncoding)
        assert Column.from_values("i", [1, 2]).data_type == dt.INT
        assert Column.from_values("f", [1.0]).data_type == dt.FLOAT
        assert Column.from_values("b", [True]).data_type == dt.BOOL

    def test_tensor_column_type(self):
        col = Column.from_values("img", np.zeros((5, 3, 8, 8)))
        assert col.data_type.kind == "tensor"
        assert col.data_type.row_shape == (3, 8, 8)

    def test_pe_column_type(self):
        enc = PEEncoding.encode(np.eye(4, dtype=np.float32))
        col = Column("p", enc)
        assert col.data_type.kind == "prob"
        assert col.data_type.num_classes == 4

    def test_take_preserves_dictionary(self):
        col = Column.from_values("s", ["x", "y", "z"])
        taken = col.take(np.array([2, 0]))
        np.testing.assert_array_equal(taken.decode(), ["z", "x"])

    def test_slice_rows_is_a_view_sharing_the_encoding(self):
        """The shard driver slices scan columns with ``slice_rows``: each
        slice is a view of the stored codes under the same dictionary."""
        col = Column.from_values("s", ["x", "y", "z", "x", "w"])
        sliced = col.slice_rows(1, 4)
        assert sliced.encoding is col.encoding
        assert np.shares_memory(sliced.tensor.data, col.tensor.data)
        assert sliced.decode().tolist() == ["y", "z", "x"]

    def test_registering_datetimes_raises_naming_the_dtype(self):
        """There is no date, duration or complex column type: such an array
        is refused at registration with the engine's ``EncodingError`` (a
        ``TdpError``), its dtype in the message."""
        for values, dtype in [
                (np.array(["2024-01-02", "1999-12-31T23:59"],
                          dtype="datetime64[m]"), r"datetime64\[m\]"),
                (np.array([1, 90], dtype="timedelta64[s]"), r"timedelta64\[s\]"),
                (np.array([1 + 2j, 3j]), "complex128")]:
            with pytest.raises(EncodingError, match=dtype):
                Table.from_dict("d", {"d": values})

    def test_take_is_differentiable_for_float(self):
        t = tcr.tensor([1.0, 2.0, 3.0], requires_grad=True)
        col = Column.from_values("v", t)
        col.take(np.array([1, 1])).tensor.sum().backward()
        assert t.grad.tolist() == [0.0, 2.0, 0.0]

    def test_rename(self):
        col = Column.from_values("a", [1.0, 2.0])
        renamed = col.rename("b")
        assert renamed.name == "b" and renamed.encoded is col.encoded

    def test_device_move(self):
        col = Column.from_values("a", [1.0]).to("cuda")
        assert str(col.device) == "cuda:0"


class TestTable:
    def test_from_dict_and_schema(self):
        table = Table.from_dict("t", {"a": [1, 2], "s": ["x", "y"]})
        assert table.num_rows == 2
        assert table.schema["a"] == dt.INT
        assert table.schema["s"] == dt.STRING

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Table.from_dict("t", {"a": [1, 2], "b": [1]})

    def test_duplicate_names_allowed_positionally(self):
        cols = [Column.from_values("x", [1]), Column.from_values("x", [2])]
        table = Table("t", cols)
        assert table.num_columns == 2
        with pytest.raises(CatalogError):
            table.column("x")          # ambiguous by name
        assert table.columns[1].decode().tolist() == [2]

    def test_column_lookup_case_insensitive(self):
        table = Table.from_dict("t", {"Digit": [1]})
        assert table.column("digit").name == "Digit"
        with pytest.raises(CatalogError):
            table.column("nope")

    def test_take_select_head(self):
        table = Table.from_dict("t", {"a": [1, 2, 3], "b": [4.0, 5.0, 6.0]})
        taken = table.take(np.array([2, 0]))
        assert taken.column("a").decode().tolist() == [3, 1]
        assert table.select(["b"]).column_names == ["b"]
        assert table.slice_rows(0, 2).column("a").decode().tolist() == [1, 2]

    def test_from_tensor(self):
        table = Table.from_tensor("g", tcr.zeros(1, 8, 8))
        assert table.column_names == ["value"]
        assert table.num_rows == 1

    def test_to_frame_roundtrip(self):
        frame = DataFrame({"a": [1, 2], "s": ["p", "q"]})
        table = Table.from_frame("t", frame)
        out = table.to_frame()
        assert out["a"].tolist() == [1, 2]
        assert out["s"].tolist() == ["p", "q"]

    def test_device_move(self):
        table = Table.from_dict("t", {"a": [1.0]}).to("cuda")
        assert str(table.device) == "cuda:0"
