"""Stateful, backtracking, LLM-guided depth-first proof search over
tactic-based proof environments, with failure memory, a symbolic progress
check, BM25 retrieval, a staged ensemble strategy, and an offline
benchmark harness built around a toy prover."""
