"""Command-line tools mirroring the deployment workflow of Fig. 10.

* ``python -m repro.tools.tracegen`` — step 1, profile collection: generate
  (or re-generate) a workload's branch trace to a file;
* ``python -m repro.tools.profile`` — steps 2-3, temperature calculation
  and hint injection: OPT-profile a trace file and emit a hint JSON;
* ``python -m repro.tools.simulate`` — step 4, the hardware side: replay a
  trace file under any replacement policy (optionally with hints and the
  IPC timing model) and report results.

Operational tools around the pipeline:

* ``python -m repro.tools.report`` — render an engine run manifest
  (slowest spans, cache effectiveness, per-policy event rates);
* ``python -m repro.tools.bench_kernel`` — benchmark the shared replay
  kernel and check the telemetry overhead budget.

Every entrypoint takes ``-v``/``-q`` to adjust diagnostic verbosity;
primary results go to stdout, diagnostics to stderr.
"""
