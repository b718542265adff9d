"""Functional interface (torch.nn.functional analogue)."""

from repro.tcr.tensor import Tensor


def normalize(x: Tensor, dim: int = -1, eps: float = 1e-8) -> Tensor:
    """L2-normalise along ``dim`` (used for embedding similarity)."""
    norm = (x * x).sum(dim=dim, keepdim=True).sqrt()
    return x / (norm + eps)


def cosine_similarity(a: Tensor, b: Tensor, dim: int = -1) -> Tensor:
    return (normalize(a, dim) * normalize(b, dim)).sum(dim=dim)


__all__ = ["cosine_similarity", "normalize"]
