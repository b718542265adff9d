"""Gradient-descent optimisers (paper Listing 5 uses Adam)."""

from repro.tcr.optim.adam import Adam

__all__ = ["Adam"]
