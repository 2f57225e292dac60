"""Benchmark support: workload builders for the paper's Figs 7 and 8."""
