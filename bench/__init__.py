"""End-to-end and per-layer benchmark of the ``repro-ear`` user paths.

See ``bench/README.md``; run it with ``python -m bench run``.
"""
