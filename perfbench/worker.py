"""One measuring process for one workload (started by ``run.py``).

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S [--trace]
                                [--setup-only] [--selfcheck]
    python3 perfbench/worker.py paper-batch --regen-expected

Sets the workload up, prints the ready marker (``run.py`` times set-up
from process start to that line), measures, checks the outputs and
prints one result line.  ``--setup-only`` stops after the marker (for
dense-sharded and serve-rw, after one cold unit of work, whose time it
prints).
"""

from __future__ import annotations

import argparse
import importlib
import sys

from common import COLD, announce_ready, emit_result

MODULES = {
    "paper-batch": "paper_batch",
    "dense-sharded": "dense_sharded",
    "serve-rw": "serve_rw",
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args()
    module = importlib.import_module(MODULES[args.workload])
    if args.regen_expected:
        return module.regenerate()
    state = module.State(args.seed)
    announce_ready()
    if args.setup_only:
        if hasattr(module, "cold_sample"):
            print(COLD + repr(module.cold_sample(state)), flush=True)
        if hasattr(module, "teardown"):
            module.teardown(state)
        return 0
    emit_result(module.measure(state, args.seconds, args.trace, args.selfcheck))
    return 0


if __name__ == "__main__":
    sys.exit(main())
