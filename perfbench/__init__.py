"""The repository benchmark: three closed-loop workloads over the public
``repro`` API, their end-to-end metrics, a traced per-layer breakdown
and a deterministic count table.  Run it with ``python3 perfbench/run.py``
(see ``perfbench/README.md``)."""
