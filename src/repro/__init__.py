"""Reproduction of "The Tensor Data Platform" (CIDR 2023).

The package exposes a default session mirroring the paper's ``tdp`` object:

>>> import repro as tdp
>>> tdp.sql.register_df(frame, "numbers", device="cuda")
>>> q = tdp.sql.spark.query("SELECT Digits, COUNT(*) FROM numbers GROUP BY Digits")
>>> q.run(toPandas=True)

Sub-packages:
  * :mod:`repro.tcr` - tensor runtime (autograd, nn, optim; PyTorch stand-in)
  * :mod:`repro.sql` - SQL parser/binder/optimizer (Spark/Substrait stand-in)
  * :mod:`repro.storage` - columnar tensor storage and encodings
  * :mod:`repro.core` - the TDP engine: compilation, operators, trainable queries
  * :mod:`repro.ml` - model zoo (CNN parsers, ResNet, TinyCLIP, OCR)
  * :mod:`repro.datasets` - synthetic datasets for every experiment
  * :mod:`repro.baselines` - MiniDuck engine and pure-DL baselines
"""

from repro import tcr
from repro.core.config import constants
from repro.core.session import Session
from repro.storage.encodings import PEEncoding
from repro.storage.frame import DataFrame

__version__ = "0.1.0"

# Default session: `import repro as tdp; tdp.sql...` works like the paper.
_default_session = Session()
sql = _default_session.sql
spark = _default_session.spark
catalog = _default_session.catalog
functions = _default_session.functions
tdp_udf = _default_session.udf
# The paper's earlier listings also spell the decorator `tqp_udf` (Listing 7).
tqp_udf = tdp_udf


def default_session() -> Session:
    return _default_session


def reset_session() -> None:
    """Clear the default session's catalog and function registry."""
    _default_session.reset()


__all__ = [
    "DataFrame", "PEEncoding", "Session", "catalog", "constants",
    "default_session", "functions", "reset_session", "spark", "sql", "tcr",
    "tdp_udf", "tqp_udf",
]
