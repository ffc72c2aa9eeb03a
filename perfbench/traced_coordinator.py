"""The coordinator daemon of ``repro serve``, with its registry and
balancer calls timed, for the traced ``ctrl-serve`` run.

Run by ``perfbench/run.py``; prints the same "coordinator serving on"
line as ``repro serve`` and, on SIGTERM, writes the per-layer medians
to ``--stats`` and the spans next to it.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import Tracer, import_repro, median_us  # noqa: E402

REGISTRY_CALLS = ("heartbeat", "sweep", "loads")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--services", nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--stats", type=Path, required=True)
    args = parser.parse_args()
    import_repro()
    from repro.ctrl import coordinator as coordinator_module

    tracer = Tracer()
    make_balancer = coordinator_module.make_balancer

    def traced_make_balancer(*a, **kw):
        balancer = make_balancer(*a, **kw)
        tracer.wrap(balancer, "assign", "cluster.balancer_assign")
        return balancer

    # The coordinator rebuilds its balancer on membership changes through
    # this module-level name, so every instance it builds is timed.
    coordinator_module.make_balancer = traced_make_balancer
    coordinator = coordinator_module.Coordinator(args.services, seed=args.seed)
    for call in REGISTRY_CALLS:
        tracer.wrap(coordinator.registry, call, f"ctrl.registry.{call}")
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    try:
        coordinator.start_sweeper()
        print(f"coordinator serving on {coordinator.address}", flush=True)
        stop.wait()
    finally:
        coordinator.close()
        names = [f"ctrl.registry.{c}" for c in REGISTRY_CALLS] + ["cluster.balancer_assign"]
        stats = {f"{name}_us": median_us(tracer.durations(name)) for name in names}
        stats.update({f"{name}_calls": len(tracer.durations(name)) for name in names})
        tracer.write(args.stats.with_suffix(".spans.jsonl"))
        args.stats.write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
