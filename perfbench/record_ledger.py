"""Write perfbench/ledger.json, the reference the benchmark checks runs against.

    python3 perfbench/record_ledger.py

It replays every workload traced, at seeds 0 and 1, and stores the modelled
ledger of each distributed transform: the bench-fft CSV columns
(total_cycles, transfer_cycles, compute_cycles, flops, status) plus ramp
cycles, elements moved, element hops, local and sliding levels and the
transfer budget.  It refuses to write when a spectrum check fails or the two
seeds disagree.  Run it only on the commit whose modelled behaviour is the
reference; a change that keeps the modelled behaviour must not re-record.
"""

import csv
import io
import json
import sys
import time

import run

FIELDS = ("n", "k", "element_bits", "total_cycles", "transfer_cycles", "compute_cycles",
          "flops", "ramp_cycles", "elements_moved", "element_hops", "levels_local",
          "levels_sliding", "budget_elements_moved")


def record(args: list[str], seed: int) -> list[dict]:
    child, trace = run.traced_run(args, seed, time.monotonic() + run.BUDGET_S)
    if trace is None or trace["exit_code"] != 0:
        sys.exit(f"{args}: traced run failed (exit code {child.code})")
    status = {}
    if args[0] == "bench-fft":
        status = {(int(row["total_elements"]), int(row["pe_count"])): row["status"]
                  for row in csv.DictReader(io.StringIO(trace["stdout"]))}
    entries = []
    for got in trace["runs"]:
        if not got["spectrum_equal"] or not got["rel_err"] < run.MAX_REL_ERR:
            sys.exit(f"{args}: spectrum check failed at n={got['n']} k={got['k']}")
        entry = {field: got[field] for field in FIELDS}
        entry["status"] = status.get((got["n"], 1 << got["k"]), "ok")
        entries.append(entry)
    return entries


def main() -> None:
    workloads = {}
    for name, args in run.WORKLOADS.items():
        entries = record(args, 0)
        if record(args, 1) != entries:
            sys.exit(f"{name}: modelled ledger differs between seeds 0 and 1")
        workloads[name] = entries
        print(f"{name}: {len(entries)} transforms recorded")
    with open(run.LEDGER, "w", encoding="utf-8") as fh:
        json.dump({"workloads": workloads}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
