"""Command-line tooling around the FlexOS core.

- ``python -m repro.tools.inspect LIB [LIB...]`` — print each selected
  library's metadata, the conflict graph, the automatic compartment
  layout, and the enumerated SH deployments.
- ``python -m repro.tools.infer LIB [LIB...]`` — run a profiling
  workload, print trace-inferred metadata and a declared-vs-observed
  validation report (paper §5).
- ``python -m repro.tools.report [--config cfg.json] --workload redis``
  — build an image, drive a workload, and report gate crossings,
  per-compartment time, and memory usage of that one run.
- ``python -m repro.tools.profile {capture,recommend,diff}`` — capture
  a measured workload profile and feed it back into the explorer.

Campaigns have their own CLI, ``python -m repro.resilience.campaign``.
"""
