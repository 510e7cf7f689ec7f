"""End-to-end and per-layer benchmark; ``python3 perfbench/run.py --help``."""
