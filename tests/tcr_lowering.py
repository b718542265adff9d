"""The namespace law, test side: an exact plan lowered over tcr ops.

The compiler lowers an exact plan over numpy on detached data, and a
trainable plan over tcr ops (``repro.core.kernels.compiler.TCR``), so that
autograd can record the graph. Both namespaces must give the same bits.
``query_over_tcr`` checks this on exact plans: while the statement
compiles, it swaps the compiler's ``NUMPY`` for ``TCR``. The namespace is
not part of the plan-cache key, so the statement compiles with
``plan_cache`` off. It neither reads a numpy plan from the cache nor leaves
a tcr plan there.

``QUERIES`` holds the two ways to compile, for a test that runs one
statement under both::

    @pytest.mark.parametrize("query", QUERIES)
    def test_x(query):
        query(session, "SELECT ...").run()

``LOWERINGS`` holds the two as contexts, for code that compiles through
``Compiler`` itself or when it runs (compile with ``plan_cache`` off
inside them).
"""

import contextlib

from repro.core import compiler
from repro.core.kernels.compiler import TCR


@contextlib.contextmanager
def tcr_lowering():
    """Every exact plan compiled inside lowers over tcr ops. EXPLAIN
    ANALYZE compiles its statement when it runs, so run it inside too."""
    saved, compiler.NUMPY = compiler.NUMPY, TCR
    try:
        yield
    finally:
        compiler.NUMPY = saved


def query_over_tcr(session, statement, extra_config=None, **kwargs):
    """``session.sql.query`` with the exact plan lowered over tcr ops."""
    with tcr_lowering():
        return session.sql.query(
            statement, extra_config=dict(extra_config or {}, plan_cache=False),
            **kwargs)


def query_over_numpy(session, statement, extra_config=None, **kwargs):
    """``session.sql.query`` as it is: exact plans lower over numpy."""
    return session.sql.query(statement, extra_config=extra_config, **kwargs)


QUERIES = (query_over_numpy, query_over_tcr)
LOWERINGS = (contextlib.nullcontext, tcr_lowering)
