"""Ablation A3 — optimizer rules (predicate ordering + pruning).

The Fig 3-left effect rests on the engine evaluating cheap metadata
predicates before neural UDF predicates and never dragging image columns
through operators that don't need them. This bench disables those rules and
measures the regression.
"""

import numpy as np
import pytest

from repro.apps.multimodal import setup_multimodal
from repro.bench.harness import print_table, scaled, time_call
from repro.core.session import Session
from repro.datasets.attachments import make_attachments


@pytest.fixture(scope="module")
def selective_session(clip_model):
    dataset = make_attachments(scaled(150), scaled(75), scaled(75),
                               rng=np.random.default_rng(5))
    session = Session()
    setup_multimodal(session, dataset, clip_model)
    return session, dataset


# The metadata predicate keeps ~10% of rows; written UDF-first so only the
# optimizer's cost reordering can save the work.
SELECTIVE_SQL = (
    'SELECT COUNT(*) FROM Attachments '
    'WHERE image_text_similarity("receipt", images) > 0.8 '
    'AND attachment_id < {cutoff}'
)


class TestPredicateReordering:
    def test_reordering_prunes_udf_work(self, benchmark, selective_session):
        session, dataset = selective_session
        cutoff = len(dataset) // 10
        sql = SELECTIVE_SQL.format(cutoff=cutoff)

        # Both legs run uncached so each repeat pays its UDF work: on a warm
        # tensor cache the UDF-first plan serves the whole column from the
        # cache while the reordered plan gathers the survivors' images.
        optimized = session.spark.query(
            sql, extra_config={"tensor_cache": False})
        unoptimized = session.spark.query(
            sql, extra_config={"disable_rules": ("pushdown",),
                               "tensor_cache": False})

        assert optimized.run().scalar() == unoptimized.run().scalar()

        optimized_s = time_call(optimized.run, repeat=3)
        unoptimized_s = time_call(unoptimized.run, repeat=3)
        print_table(
            "A3: UDF predicate with 10%-selective metadata filter",
            ["plan", "seconds"],
            [["cost-reordered (cheap filter first)", optimized_s],
             ["as written (UDF first)", unoptimized_s]],
        )
        # The UDF should now only see ~10% of the images.
        assert optimized_s < unoptimized_s
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_optimized_query(self, benchmark, selective_session):
        session, dataset = selective_session
        q = session.spark.query(SELECTIVE_SQL.format(cutoff=len(dataset) // 10))
        benchmark.pedantic(q.run, rounds=3, iterations=1, warmup_rounds=1)


class TestProjectionPruning:
    def test_pruning_avoids_carrying_images(self, benchmark, selective_session):
        session, dataset = selective_session
        # COUNT over a metadata filter: with pruning the image column is
        # never gathered; without it every surviving image row is copied.
        sql = (f"SELECT COUNT(*) FROM Attachments "
               f"WHERE attachment_id < {len(dataset) // 2}")
        pruned = session.spark.query(sql)
        unpruned = session.spark.query(
            sql, extra_config={"disable_rules": ("prune",)})
        assert pruned.run().scalar() == unpruned.run().scalar()
        pruned_s = time_call(pruned.run, repeat=5)
        unpruned_s = time_call(unpruned.run, repeat=5)
        print_table(
            "A3: projection pruning around a 4-d image column",
            ["plan", "seconds"],
            [["pruned (images dropped at scan)", pruned_s],
             ["unpruned (images gathered through filter)", unpruned_s]],
        )
        assert pruned_s < unpruned_s
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
