"""Start ``repro serve`` for the benchmark.

``python -m perf.serve_boot [--trace] serve --store S --port 0`` runs
the real CLI (``repro.cli.main``).  Two things differ from
``python -m repro serve``:

* SIGINT is turned back into ``KeyboardInterrupt`` — the CLI's clean
  shutdown — even when the benchmark was started with SIGINT ignored
  (as a background job is), which a child would otherwise inherit;
* with ``--trace`` the tracer is installed first, and the spans it
  records are read back through ``GET /metrics``.
"""

from __future__ import annotations

import signal
import sys

from .tracer import install

if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.default_int_handler)
    argv = sys.argv[1:]
    if argv[:1] == ["--trace"]:
        install()
        argv = argv[1:]
    from repro.cli.main import main

    raise SystemExit(main(argv))
