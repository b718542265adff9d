"""Functional interface (torch.nn.functional analogue)."""

from repro.tcr.tensor import Tensor


def normalize(x: Tensor, dim: int = -1, eps: float = 1e-8) -> Tensor:
    """L2-normalise along ``dim`` (used for embedding similarity)."""
    norm = (x * x).sum(dim=dim, keepdim=True).sqrt()
    return x / (norm + eps)


__all__ = ["normalize"]
