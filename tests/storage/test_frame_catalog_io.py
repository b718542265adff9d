"""DataFrame and catalog."""

import numpy as np
import pytest

from repro.errors import CatalogError, TdpError
from repro.storage.catalog import Catalog
from repro.storage.frame import DataFrame
from repro.storage.table import Table


class TestDataFrame:
    def test_basic_construction(self):
        f = DataFrame({"a": [1, 2], "b": ["x", "y"]})
        assert len(f) == 2
        assert f.columns == ["a", "b"]
        assert f["b"].dtype == object

    def test_length_mismatch_rejected(self):
        f = DataFrame({"a": [1, 2]})
        with pytest.raises(TdpError):
            f["b"] = [1]

    def test_unknown_column_keyerror(self):
        with pytest.raises(KeyError):
            DataFrame({"a": [1]})["zz"]

    def test_head(self):
        f = DataFrame({"a": [1, 2, 3], "b": [4, 5, 6]})
        assert len(f.head(2)) == 2
        assert f.head(2).columns == ["a", "b"]

    def test_equals_with_float_tolerance(self):
        a = DataFrame({"x": [1.0, 2.0]})
        b = DataFrame({"x": [1.0 + 1e-8, 2.0]})
        assert a.equals(b)
        assert not a.equals(DataFrame({"x": [1.0, 3.0]}))
        assert not a.equals(DataFrame({"y": [1.0, 2.0]}))

    def test_repr_does_not_crash_on_tensors(self):
        f = DataFrame({"img": np.zeros((3, 2, 2))})
        assert "tensor" in repr(f)


class TestCatalog:
    def test_register_get_drop(self):
        cat = Catalog()
        table = Table.from_dict("t", {"a": [1]})
        cat.register("T1", table)
        assert "t1" in cat
        assert cat.get("t1") is table
        cat.drop("T1")
        assert "t1" not in cat

    def test_replace_semantics(self):
        cat = Catalog()
        cat.register("t", Table.from_dict("t", {"a": [1]}))
        cat.register("t", Table.from_dict("t", {"a": [2]}))     # replace ok
        assert cat.get("t").column("a").decode().tolist() == [2]
        with pytest.raises(CatalogError):
            cat.register("t", Table.from_dict("t", {"a": [3]}), replace=False)

    def test_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().get("missing")
        with pytest.raises(CatalogError):
            Catalog().drop("missing")
