"""Per-round golden harness: run a workload case and diff every round."""
