"""Benchmark of the repro stack; entry point ``perfbench/run.py``."""
