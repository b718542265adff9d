"""Synthetic datasets backing every experiment in the paper's evaluation."""

from repro.datasets import fonts
from repro.datasets.adult import make_adult, train_test_split
from repro.datasets.attachments import make_attachments
from repro.datasets.bags import laplace_counts, make_bags
from repro.datasets.digits import LARGE, SMALL, make_digits, render_digit
from repro.datasets.documents import make_documents
from repro.datasets.iris import FEATURES as IRIS_FEATURES
from repro.datasets.iris import make_iris
from repro.datasets.mnist_grid import group_index, make_grids, tiles_of

__all__ = [
    "IRIS_FEATURES", "LARGE", "SMALL", "fonts", "group_index",
    "laplace_counts", "make_adult", "make_attachments", "make_bags",
    "make_digits", "make_documents", "make_grids", "make_iris",
    "render_digit", "tiles_of", "train_test_split",
]
