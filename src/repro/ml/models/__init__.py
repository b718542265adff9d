"""Model zoo used by the paper's use cases."""
