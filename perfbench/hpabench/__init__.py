"""The repository's benchmark: workloads, timing statistics and spans."""
