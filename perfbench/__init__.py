"""Benchmark for srleak; see README.md in this directory."""
