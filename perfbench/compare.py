"""Compare two versions of the program from the benchmark's records.

    python3 perfbench/compare.py BASE CHANGE [--records .perfbench/records.jsonl]

``BASE`` and ``CHANGE`` are git SHAs or source digests (a prefix is
enough), as printed on each run's ``host:`` line. Only untraced records
made with the same benchmark code and ``--seconds`` on the same host
fingerprint (CPU model, affinity CPU count, numpy, BLAS build and
threads, Python) are compared with each other. For each
workload and end-to-end metric it prints both sides' median and
quartiles and says whether the change is worse than the metric's bound
in BENCHMARK.json, better by more than the base's own spread, or
neither.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import RECORDS_PATH, ROOT, host_key, load_records  # noqa: E402


def _matches(record, version: str) -> bool:
    prov = record["provenance"]
    return any(str(v).startswith(version) for v in (prov.get("git_sha"), prov["source_digest"]) if v)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--records", type=Path, default=RECORDS_PATH)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    # (host, benchmark code, seconds, workload, metric) -> side -> values
    table = defaultdict(lambda: {"base": [], "change": []})
    for record in load_records(args.records):
        if record.get("trace") or not record.get("correct"):
            continue
        side = ("base" if _matches(record, args.base)
                else "change" if _matches(record, args.change) else None)
        if side is None:
            continue
        host = host_key(record["provenance"])
        bench = (record["provenance"].get("bench_digest"), record.get("seconds"))
        for name, value in record["metrics"].items():
            if name in metrics:
                table[(host, bench, record["workload"], name)][side].append(float(value))
    if not table:
        print("no untraced records for either version")
        return 1
    compared = 0
    for (host, _, workload, name), sides in sorted(table.items(), key=lambda kv: kv[0][2:]):
        base, change = sides["base"], sides["change"]
        if not base or not change:
            continue  # never compare across hosts or benchmark versions
        compared += 1
        spec_m = metrics[name]
        b1, bm, b3 = _quartiles(base)
        c1, cm, c3 = _quartiles(change)
        worse = (cm - bm) / bm if spec_m["better"] == "lower" else (bm - cm) / bm
        if worse > spec_m["bound"]:
            verdict = f"WORSE by {worse:.1%} (bound {spec_m['bound']:.0%})"
        elif -worse * bm > (b3 - b1):
            verdict = f"better by {-worse:.1%}, beyond the base's spread"
        else:
            verdict = "within noise"
        print(f"{workload:15s} {name:16s} base {bm:10.4f} [{b1:.4f}, {b3:.4f}] n={len(base):<3d} "
              f"change {cm:10.4f} [{c1:.4f}, {c3:.4f}] n={len(change):<3d} {verdict}   "
              f"host={host[0]}/{host[1]}cpu/blas{host[4]}")
    if not compared:
        print("no records of both versions share a host, benchmark code and --seconds")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
