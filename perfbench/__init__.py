"""Benchmark of the afsr package: see README.md in this directory."""
