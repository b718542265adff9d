"""Gradient-descent optimisers (paper Listing 5 uses Adam)."""

from repro.tcr.optim.sgd import SGD
from repro.tcr.optim.adam import Adam, AdamW

__all__ = ["Adam", "AdamW", "SGD"]
