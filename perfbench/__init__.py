"""Benchmark of the dfm-upscale CLI; see run.py."""
