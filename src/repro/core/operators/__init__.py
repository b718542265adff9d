"""Physical operators (each one an ``nn.Module`` — paper §2)."""

from repro.core.operators.aggregate import GroupedAggregateExec, key_ids
from repro.core.operators.base import Operator, Relation
from repro.core.operators.index_scan import (
    CreateIndexExec,
    DropIndexExec,
    IndexScanExec,
    ShowIndexesExec,
)
from repro.core.operators.join import JoinExec, direct_join_indices
from repro.core.operators.pipeline import PipelineExec
from repro.core.operators.project import TVFExec
from repro.core.operators.scan import ScanExec
from repro.core.operators.sharded import ShardedScanExec
from repro.core.operators.soft_aggregate import SoftAggregateExec
from repro.core.operators.sort import DistinctExec, LimitExec, SortExec, TopKExec

__all__ = [
    "CreateIndexExec", "DistinctExec", "DropIndexExec", "GroupedAggregateExec",
    "IndexScanExec", "JoinExec", "LimitExec", "Operator", "PipelineExec",
    "Relation", "ScanExec", "ShardedScanExec", "ShowIndexesExec",
    "SoftAggregateExec", "SortExec", "TVFExec", "TopKExec",
    "direct_join_indices", "key_ids",
]
