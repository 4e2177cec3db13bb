"""Fast self-test of the benchmark harness (a few seconds):

    python3 perfbench/selftest.py

Runs the harness in both modes on ``slidefft bench-fft --n 64`` (k = 0..6)
and checks the exact modelled numbers, that the gate catches a one-cycle
change and a failed model or oracle check, and the result schema against
BENCHMARK.json.  Exits 1 on the first failed check.
"""

import json
import sys
import time

import run

SMOKE = ["bench-fft", "--n", "64"]
FIELDS = ("k", "total_cycles", "transfer_cycles", "compute_cycles", "flops", "ramp_cycles",
          "elements_moved", "element_hops", "levels_local", "levels_sliding",
          "budget_elements_moved")
# Modelled ledger of bench-fft --n 64 under cs2-calibrated, one row per k.
ROWS = [
    (0, 5760, 0, 5760, 1920, 0, 0, 0, 6, 0, 0),
    (1, 3514, 148, 5760, 1920, 6, 64, 64, 5, 1, 64),
    (2, 2082, 150, 5760, 1920, 12, 128, 192, 4, 2, 128),
    (3, 1220, 122, 5760, 1920, 18, 192, 448, 3, 3, 192),
    (4, 726, 102, 5760, 1920, 24, 256, 960, 2, 4, 256),
    (5, 462, 102, 5760, 1920, 30, 320, 1984, 1, 5, 320),
    (6, 366, 150, 5760, 1920, 36, 384, 4032, 0, 6, 384),
]
# Wrapped calls the seed engine makes for these seven transforms.
CALLS = {"wave.slide_fft_calls": 7, "mesh.slide_phase_calls": 42,
         "mesh.record_compute_calls": 42, "mesh.pe_access_calls": 2099}


def expected() -> list[dict]:
    return [dict(zip(FIELDS, row), n=64, element_bits=64, status="ok") for row in ROWS]


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")


def check_schema(result: dict, units: dict) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] is True and result["failed"] == 0, f"run failed: {result}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    check(set(result["metrics"]) == set(units), f"metric names {sorted(result['metrics'])}")
    for name, metric in result["metrics"].items():
        check(metric == {"value": metric["value"], "unit": units[name]}, f"{name} unit")
        check(isinstance(metric["value"], (int, float)), f"{name} value")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS), "workload names")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "end-to-end metrics differ from BENCHMARK.json")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "per-layer metrics differ from BENCHMARK.json")
    ledger = run.load_ledger()
    check(set(ledger) == set(run.WORKLOADS), "ledger.json covers every workload")
    check([e["total_cycles"] for e in ledger["fft-wide"]] == [10038, 17374, 33326]
          and [e["total_cycles"] for e in ledger["fft-deep"]] == [1806062],
          "stored ledger")

    plan = {"smoke": (SMOKE, expected())}
    e2e = run.run_workloads(plan, seed=0, seconds=0.5, modes=(0,), prefixed=False)
    check_schema(e2e, run.END_TO_END)
    check(all(m["value"] > 0 for m in e2e["metrics"].values()), "end-to-end metric is 0")

    layers = run.run_workloads(plan, seed=1, seconds=0.5, modes=(1,), prefixed=False)
    check_schema(layers, run.PER_LAYER)
    got = {name: metric["value"] for name, metric in layers["metrics"].items()}
    for field, (name, _) in run.MODELLED.items():
        want = sum(row[FIELDS.index(field)] for row in ROWS)
        check(got[name] == want, f"{name} = {got[name]}, expected {want}")
    for name, want in CALLS.items():
        check(got[name] == want, f"{name} = {got[name]}, expected {want}")
    check(got["mesh.moved_vs_budget"] == 1.0, "moved_vs_budget")

    # The gate must catch a one-cycle change, in the CSV and in the traced ledger.
    wrong = expected()
    wrong[3]["total_cycles"] += 1
    deadline = time.monotonic() + run.BUDGET_S
    plain = run.run_child(run.cli_command(SMOKE, 0), deadline)
    check(run.cli_output_error(SMOKE, expected(), plain.code, plain.stdout) is None, "CSV gate")
    check(run.cli_output_error(SMOKE, wrong, plain.code, plain.stdout) is not None,
          "CSV gate missed a one-cycle change")
    _, trace = run.traced_run(SMOKE, 0, deadline)
    check(not run.trace_errors(SMOKE, expected(), trace), "trace gate")
    check(any("total_cycles" in e for e in run.trace_errors(SMOKE, wrong, trace)),
          "trace gate missed a one-cycle change")
    bad = json.loads(json.dumps(trace))
    bad["runs"][0]["predicted_flops"] += 1
    bad["oracle_rel_err"] = 1e-6
    errors = run.trace_errors(SMOKE, expected(), bad)
    check(any("predict_efficiency" in e for e in errors), "model check missed a FLOP")
    check(any("dft_oracle" in e for e in errors), "oracle check missed an error")
    check(run.cli_output_error(["verify"], [], 0, "PASS a\nFAIL b\n") is not None,
          "verify gate missed a FAIL line")
    check(run.cli_output_error(["verify"], [], 1, "PASS a\n") is not None,
          "verify gate missed an exit code")
    print("selftest passed")


if __name__ == "__main__":
    main()
