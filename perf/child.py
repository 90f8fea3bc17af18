"""Entry point of the fresh subprocess that runs one workload.

``python -m perf.child measure WORKLOAD --seed S --rounds N --work DIR
--golden FILE --result FILE [--smoke] [--trace]`` runs the workload and
writes its :class:`~perf.workloads.Measurement` as JSON to ``--result``.
``python -m perf.child setup WORKLOAD [--smoke]`` is the set-up that a
cold spawn times.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

from . import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python -m perf.child")
    p.add_argument("action", choices=("measure", "setup"))
    p.add_argument("workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--work", type=Path)
    p.add_argument("--golden", type=Path)
    p.add_argument("--result", type=Path)
    args = p.parse_args(argv)
    if args.action == "setup":
        workloads.set_up(args.workload, args.smoke)
        return 0
    plan = workloads.Plan(args.workload, args.seed, args.rounds, args.smoke)
    golden = json.loads(args.golden.read_text())["smoke" if args.smoke
                                                 else "full"]
    m = workloads.measure(plan, args.work, golden, args.trace)
    args.result.write_text(json.dumps(dataclasses.asdict(m)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
