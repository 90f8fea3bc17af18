"""End-to-end benchmark of the paths users run.

Four workloads — a fast-mode sweep campaign, a replay-mode sweep
campaign, a mixed query stream against ``repro serve`` and active Pareto
search — each measured from outside the program in a fresh subprocess,
with a traced variant that attributes time to the pipeline's layers.
See ``perf/README.md``; run ``python -m perf run --help``.

This package only drives ``src/repro``; it never changes it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

#: The checkout root (the directory holding ``perf/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program under test lives.
SRC = ROOT / "src"
#: Scratch space for journals, stores and child results; every run
#: creates and removes its own subdirectory here, inside the checkout.
WORK = ROOT / ".perf_work"

#: Fixed code version for served and stored results, so store keys and
#: ``served`` blocks do not depend on whether the checkout is a git
#: repository.
CODE_VERSION = "perf"


def child_env() -> Dict[str, str]:
    """Environment for every subprocess: ``src`` and this checkout
    first on the import path, and a fixed code version."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_CODE_VERSION"] = CODE_VERSION
    return env
