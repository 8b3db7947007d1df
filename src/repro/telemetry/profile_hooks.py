"""Opt-in deep profiling for engine workers.

The runtime config's ``profile`` switch (``REPRO_PROFILE``) selects a
profiler wrapped around each worker's whole job batch
(:func:`~repro.harness.engine.run_job_batch`):

* ``cprofile`` — a :mod:`cProfile` session per worker, dumped as
  ``cprofile-<pid>-<ms>.prof`` (inspect with ``python -m pstats`` or
  snakeviz);
* ``tracemalloc`` — peak/current heap per worker, written as
  ``tracemalloc-<pid>-<ms>.json`` and recorded as registry gauges.

Output lands in ``profile_dir`` (``REPRO_PROFILE_DIR``) if set, else
``<cache root>/profiles``, else the working directory.  Off (the
default) costs nothing — the context manager is a no-op.
"""

from __future__ import annotations

import json
import logging
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Union

from repro import runtime
from repro.telemetry.metrics import get_registry

__all__ = ["worker_profile"]

log = logging.getLogger(__name__)


@contextmanager
def worker_profile(fallback_dir: Union[str, Path, None] = None):
    """Profile the enclosed block according to the runtime config's
    ``profile`` switch; a no-op when it is off."""
    config = runtime.current()
    mode = config.profile
    if mode is None:
        yield
        return
    if config.profile_dir is not None:
        out_dir = config.profile_dir
    elif fallback_dir is not None:
        out_dir = Path(fallback_dir).expanduser() / "profiles"
    else:
        out_dir = Path(".")
    stamp = f"{os.getpid()}-{int(time.time() * 1000)}"
    if mode == "cprofile":
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"cprofile-{stamp}.prof"
            profiler.dump_stats(str(path))
            log.info("cProfile stats written to %s", path)
    else:  # tracemalloc, the only other mode the config accepts
        import tracemalloc
        tracemalloc.start()
        try:
            yield
        finally:
            current, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            registry = get_registry()
            registry.gauge("profile/tracemalloc_peak_bytes", peak)
            registry.gauge("profile/tracemalloc_current_bytes", current)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"tracemalloc-{stamp}.json"
            path.write_text(json.dumps(
                {"pid": os.getpid(), "peak_bytes": peak,
                 "current_bytes": current}) + "\n")
            log.info("tracemalloc peak %.1f MB (written to %s)",
                     peak / 1e6, path)
