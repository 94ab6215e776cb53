"""One-off size sweep: `validate` and `classify_market` against market size.

Generates one arbitrage-free market per size (branching 4, dim 2, so depth
4, 5 and 6 give 256, 1024 and 4096 trajectories) and times each call once.
The 4096 point takes about a minute and a half, which is why it is not
part of the `large-audit` workload.

    python3 perfbench/sweep.py
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    os.environ.pop("NOARB_THREADS", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from noarb import classify_market, validate
    from noarb.generators import GeneratorParams, generate_market

    for depth in (4, 5, 6):
        ts = generate_market(GeneratorParams(depth, 4, 2, 1))
        t0 = time.perf_counter()
        validate(ts)
        t1 = time.perf_counter()
        cls = classify_market(ts)
        t2 = time.perf_counter()
        print(json.dumps({"trajectories": len(ts.trajectories),
                          "nodes": len(cls.nodes),
                          "validate_s": round(t1 - t0, 3),
                          "classify_market_s": round(t2 - t1, 3)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
