"""Benchmark of proofsearch: seeded workloads, a stand-in guidance model,
spans around the program's layers and independent output checks."""
