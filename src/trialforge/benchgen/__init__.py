"""Benchmark generation: eight tasks, recency splits, deterministic output."""
