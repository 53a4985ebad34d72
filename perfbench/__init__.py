"""The repository's seeded, layer-traced benchmark; run ``perfbench/run.py``."""
