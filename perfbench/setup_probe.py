"""Time the set-up every weylgas command pays before its first step.

    python3 perfbench/setup_probe.py <src dir> '<run config JSON>'

Measures, in this fresh interpreter, ``import weylgas``, ``parse_config`` of
the given config, and building its root system, model and starting point.
Prints one JSON object with ``setup_s``.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    src, doc = Path(sys.argv[1]).resolve(), json.loads(sys.argv[2])
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import weylgas

    cfg = weylgas.parse_config(doc)
    R = cfg.root_system()
    cfg.model()
    cfg.x0_array(R)
    setup_s = time.perf_counter() - t0
    if not Path(weylgas.__file__).resolve().is_relative_to(src):
        print(f"weylgas was imported from {weylgas.__file__}", file=sys.stderr)
        return 2
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
