"""Serve-path benchmark: three closed-loop workloads timed end to end
and, in a separate traced run, per layer.  See ``perfbench/README.md``."""
