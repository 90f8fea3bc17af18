#!/usr/bin/env python
"""CI memory check: full-space replay stays under a fixed peak RSS.

Runs replay-mode ``BatchEvaluator.evaluate_frame`` over the 864-point
Table I space for every bundled app at 64 and 256 ranks, twice, in this
one process.  Each call replays 864 configurations on the array tape,
whose cached workspace holds one column block, so the peak RSS stays
under ``RSS_BOUND_MB`` however many configurations a call has (caching
a full 864-column workspace per tape peaked at about 317 MB).  The
SHA-256 of every result row's canonical bytes, in call order, must
equal ``DIGEST``, recorded before the driver ran in column blocks.

Exits non-zero on any violation.

Run from the repo root:  PYTHONPATH=src python scripts/check_replay_memory.py
"""

import hashlib
import resource
import sys
import time

from repro.apps import APP_NAMES, get_app
from repro.config import full_design_space
from repro.core import Musa
from repro.core.batch import BatchEvaluator

RANKS = (64, 256)
PASSES = 2
RSS_BOUND_MB = 150.0
DIGEST = ("2199c88114d2c6829ec837413dd01f5f"
          "74421e2ce75420b929bcd6f2720ab40a")


def main() -> int:
    nodes = full_design_space().configs()
    evaluators = {app: BatchEvaluator(Musa(get_app(app)))
                  for app in APP_NAMES}
    t0 = time.perf_counter()
    digests = []
    for _ in range(PASSES):
        h = hashlib.sha256()
        for app in APP_NAMES:
            for ranks in RANKS:
                frame = evaluators[app].evaluate_frame(nodes, n_ranks=ranks,
                                                       mode="replay")
                for line in frame.canonical_lines():
                    h.update(line.encode("utf-8"))
                    h.update(b"\n")
        digests.append(h.hexdigest())
    wall_s = time.perf_counter() - t0
    # Linux reports ru_maxrss in KiB.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"replay memory: {len(APP_NAMES)} apps x ranks {RANKS} x "
          f"{len(nodes)} configs x {PASSES} passes in {wall_s:.1f} s, "
          f"peak RSS {rss_mb:.1f} MB (bound {RSS_BOUND_MB:.0f} MB), "
          f"digest {digests[0]}")
    ok = True
    if len(set(digests)) != 1:
        print(f"FAIL: passes disagree: {digests}")
        ok = False
    if digests[0] != DIGEST:
        print(f"FAIL: digest {digests[0]} != recorded {DIGEST}")
        ok = False
    if rss_mb > RSS_BOUND_MB:
        print(f"FAIL: peak RSS {rss_mb:.1f} MB > {RSS_BOUND_MB:.0f} MB")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
