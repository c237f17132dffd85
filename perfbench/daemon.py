"""Start the mining daemon, optionally with the layer wrappers installed.

    python3 perfbench/daemon.py --report R.json --tenant-config T.json [--trace]

Runs ``python -m repro.serve`` in this process (ephemeral port,
``--max-concurrent 2``, ``--admission warn``); its first stdout line
names the address.  When the daemon shuts down (``POST /shutdown``)
this writes R.json: the process's peak RSS, its import time and, with
``--trace``, the per-layer rollup (spans go beside it, as JSON lines).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import peak_rss_mb


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--tenant-config", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    from repro.serve.__main__ import main as serve_main
    import_s = time.perf_counter() - started

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
    code = serve_main([
        "--port", "0", "--max-concurrent", "2", "--admission", "warn",
        "--tenant-config", args.tenant_config,
    ])
    report = {"peak_rss_mb": peak_rss_mb(), "import_s": import_s}
    if tracer is not None:
        tracer.enabled = False
        report["rollup"] = tracer.rollup()
        tracer.dump(args.report.replace(".json", "-spans.jsonl"))
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
