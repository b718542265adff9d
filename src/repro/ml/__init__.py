"""``repro.ml`` — model zoo and training loops."""
