"""Quickstart: ingest, compile, execute (paper Examples 2.1-2.3).

Run:  python examples/quickstart.py
"""

import numpy as np

import repro as tdp
from repro.storage.frame import DataFrame


def main() -> None:
    # --- Example 2.1: ingesting data --------------------------------------
    # A small table of digits with a size tag; in the paper this is a Pandas
    # dataframe stored on GPU. Here "cuda" only tags where the tensors live:
    # they are numpy buffers, and the engine runs the same whole-column code
    # on every device.
    rng = np.random.default_rng(0)
    data = DataFrame({
        "Digits": rng.integers(0, 10, size=1000),
        "Sizes": rng.choice(["small", "large"], size=1000),
    })
    tdp.sql.register_df(data, "numbers", device="cuda")
    print("registered tables:", tdp.sql.tables())

    # --- Example 2.2: query compilation ------------------------------------
    statement = ("SELECT Digits, Sizes, COUNT(*) FROM numbers "
                 "GROUP BY Digits, Sizes")
    compiled_query = tdp.sql.spark.query(statement, device="cuda")
    print("\nThe compiled query is a model over the tensor runtime:")
    print(compiled_query.explain())

    # --- Example 2.3: query execution --------------------------------------
    result = compiled_query.run(toPandas=True)
    print("\nresult (first rows):")
    print(result.head(8))

    # Encodings at work: the string column is order-preserving dictionary
    # encoded, so this range predicate runs on integer codes.
    filtered = tdp.sql.spark.query(
        "SELECT COUNT(*) FROM numbers WHERE Sizes >= 'small'", device="cuda"
    ).run()
    print("\nrows with Sizes >= 'small':", filtered.scalar())

    # Arithmetic projections compile to differentiable tensor programs too.
    arith = tdp.sql.spark.query(
        "SELECT Digits, Digits * 2 + 1 AS odd FROM numbers LIMIT 5"
    ).run(toPandas=True)
    print("\narithmetic projection:")
    print(arith)


if __name__ == "__main__":
    main()
