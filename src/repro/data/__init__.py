"""``repro.data`` — dataset containers, synthetic datasets and non-IID partitioners.

The paper evaluates on MNIST, Fashion-MNIST and CIFAR-100 downloaded from
the internet; this environment has no network access, so
:mod:`repro.data.synthetic` generates seeded class-structured image
datasets that stand in for them.  :mod:`repro.data.partition` implements
all five partitioning schemes from the paper: Pareto (PA), Clustered-Equal
(CE), Clustered-Non-Equal (CN) and FedAvg's Equal / Non-equal shard
splits, plus an IID control.
"""

from repro.data.dataset import ArrayDataset, RowView
from repro.data.shm import (
    SharedArrayDataset,
    SharedMemoryPool,
    share_dataset,
)
from repro.data.partition import (
    clustered_equal_partition,
    clustered_nonequal_partition,
    iid_partition,
    pareto_partition,
    partition_matrix,
    partition_summary,
    shards_equal_partition,
    shards_nonequal_partition,
    validate_partition,
)
from repro.data.synthetic import (
    SyntheticImageSpec,
    cifar100_like,
    fashion_like,
    make_synthetic_dataset,
    mnist_like,
)

__all__ = [
    "ArrayDataset",
    "RowView",
    "SharedArrayDataset",
    "SharedMemoryPool",
    "share_dataset",
    "SyntheticImageSpec",
    "make_synthetic_dataset",
    "mnist_like",
    "fashion_like",
    "cifar100_like",
    "iid_partition",
    "pareto_partition",
    "clustered_equal_partition",
    "clustered_nonequal_partition",
    "shards_equal_partition",
    "shards_nonequal_partition",
    "partition_matrix",
    "partition_summary",
    "validate_partition",
]
