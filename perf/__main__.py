"""``python -m perf run ...`` measures; ``python -m perf golden``
recomputes ``perf/golden.json`` (only after a deliberate model change)."""

from __future__ import annotations

import json
import sys


def _golden(argv) -> int:
    from . import SRC
    from .run import GOLDEN
    from .workloads import golden_values

    if argv:
        print("usage: python -m perf golden", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    data = {"full": golden_values(smoke=False),
            "smoke": golden_values(smoke=True)}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv) -> int:
    if not argv or argv[0] not in ("run", "golden"):
        print("usage: python -m perf {run|golden} [options]", file=sys.stderr)
        return 2
    if argv[0] == "golden":
        return _golden(argv[1:])
    from .run import main as run_main
    return run_main(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
