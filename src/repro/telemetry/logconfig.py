"""Structured logging for the repro CLIs.

Two channels, both under the ``repro`` logger namespace:

* **results** — the program's product (tables, JSON records, summary
  lines) goes through the ``repro.out`` logger to **stdout** with a
  message-only format, via :func:`emit`;
* **diagnostics** — progress, timings, warnings go through per-module
  loggers (``logging.getLogger(__name__)``) to **stderr** with a
  ``LEVEL name: message`` format.

Every CLI entrypoint calls :func:`add_logging_args` on its parser and
:func:`setup_cli_logging` on the parsed args, which maps
``-v/--verbose`` and ``-q/--quiet`` counts onto levels:

====================  ============  =======
verbosity             diagnostics   results
====================  ============  =======
``-v`` (and more)     DEBUG         INFO
default               INFO          INFO
``-q``                WARNING       INFO
``-qq`` (and more)    ERROR         WARNING
====================  ============  =======

:func:`setup_logging` is idempotent and rebinds handlers to the *current*
``sys.stdout``/``sys.stderr`` each call, so output capture (pytest's
``capsys``, ``contextlib.redirect_stdout``) works naturally.
"""

from __future__ import annotations

import logging
import sys

from repro import runtime

__all__ = ["add_logging_args", "emit", "setup_cli_logging",
           "setup_logging", "OUTPUT_LOGGER"]

#: Logger name for primary program output (stdout, message-only).
OUTPUT_LOGGER = "repro.out"

_MARKER = "_repro_cli_handler"


def emit(message: str = "") -> None:
    """Write one line of primary program output (the ``repro.out``
    channel)."""
    logging.getLogger(OUTPUT_LOGGER).info("%s", message)


def add_logging_args(parser) -> None:
    """Attach ``-v/--verbose`` and ``-q/--quiet`` to an ArgumentParser."""
    group = parser.add_argument_group("logging")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="more diagnostics (repeatable)")
    group.add_argument("-q", "--quiet", action="count", default=0,
                       help="fewer diagnostics; -qq also silences results")


def setup_cli_logging(args) -> None:
    """Configure logging from parsed CLI args (see module docstring) and
    re-parse the runtime config from this command's environment (see
    :mod:`repro.runtime`).  A malformed ``REPRO_*`` value exits 2 with a
    one-line message, like an argparse error."""
    setup_logging(verbosity=int(getattr(args, "verbose", 0))
                  - int(getattr(args, "quiet", 0)))
    try:
        runtime.load()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _replace_handler(logger: logging.Logger,
                     handler: logging.Handler) -> None:
    for existing in list(logger.handlers):
        if getattr(existing, _MARKER, False):
            logger.removeHandler(existing)
    setattr(handler, _MARKER, True)
    logger.addHandler(handler)


def setup_logging(verbosity: int = 0,
                  stream=None, err_stream=None) -> None:
    """(Re)configure the ``repro`` logging tree.

    ``verbosity`` is ``#verbose - #quiet``; ``stream``/``err_stream``
    default to the current ``sys.stdout``/``sys.stderr``.
    """
    diag = logging.StreamHandler(err_stream
                                 if err_stream is not None else sys.stderr)
    diag.setFormatter(logging.Formatter("%(levelname)s %(name)s: "
                                        "%(message)s"))
    root = logging.getLogger("repro")
    _replace_handler(root, diag)
    if verbosity > 0:
        root.setLevel(logging.DEBUG)
    elif verbosity == 0:
        root.setLevel(logging.INFO)
    elif verbosity == -1:
        root.setLevel(logging.WARNING)
    else:
        root.setLevel(logging.ERROR)

    out_handler = logging.StreamHandler(stream
                                        if stream is not None
                                        else sys.stdout)
    out_handler.setFormatter(logging.Formatter("%(message)s"))
    out = logging.getLogger(OUTPUT_LOGGER)
    _replace_handler(out, out_handler)
    out.propagate = False  # results must not duplicate onto stderr
    out.setLevel(logging.WARNING if verbosity <= -2 else logging.INFO)
