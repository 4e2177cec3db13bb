"""slidefft benchmark: host cost of the CLI runs users make, with the modelled
ledger of every run checked exactly against the stored reference.

    python3 perfbench/run.py --workload verify-4096 --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45

Run it from anywhere inside a source checkout: the package is imported from
the checkout's ``src`` directory, never from an installed copy.

``--trace 0``: a closed loop with one client.  Fresh-process CLI runs, one
after the other, for ``--seconds``; reports the end-to-end metrics.
``--trace 1``: one untraced CLI run and one traced in-process replay
(``perfbench/traced.py``); reports the per-layer metrics.
``--workload all`` runs every workload in both modes.

Every run is checked: exit code 0, every ``verify`` line ``PASS``, the CSV's
modelled columns equal to ``perfbench/ledger.json``, and in the traced run
the full ledger of every transform and its spectrum.  A run failing any check
counts in ``failed``.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGER = HERE / "ledger.json"

# One invocation must end within 180 s; keep a margin for start and exit.
BUDGET_S = 170.0
SETUP_PROBES = 7

# BENCHMARK.json lists fft-deep and verify-4096.  fft-wide is run by hand
# only: it is almost all interpreter time, which on a shared host drifts by
# more than the largest bound a listed workload may have (see README.md).
WORKLOADS = {
    "fft-wide": ["bench-fft", "--n", "16384", "--k", "12..14"],
    "fft-deep": ["bench-fft", "--n", "1048576", "--k", "8", "--element-bits", "32"],
    "verify-4096": ["verify", "--n", "4096"],
}

END_TO_END = {"host_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Layer name -> wrapped calls to count besides their time.
COUNTED = ("wave.slide_fft", "mesh.slide_phase", "mesh.pe_access", "mesh.record_compute")
# Ledger field of one transform -> per-layer metric summing it over the workload.
MODELLED = {
    "total_cycles": ("mesh.wall_clock_cycles", "cycles"),
    "compute_cycles": ("mesh.compute_cycles", "cycles"),
    "transfer_cycles": ("mesh.transfer_cycles", "cycles"),
    "ramp_cycles": ("mesh.ramp_cycles", "cycles"),
    "flops": ("mesh.flops", "flop"),
    "elements_moved": ("mesh.elements_moved", "elements"),
    "element_hops": ("mesh.element_hops", "element-hops"),
    "budget_elements_moved": ("mesh.budget_elements_moved", "elements"),
    "levels_local": ("wave.levels_local", "levels"),
    "levels_sliding": ("wave.levels_sliding", "levels"),
}
PER_LAYER = {
    "serial.build_permutation_s": "s",
    "serial.build_permutation_peak_mb": "MiB",
    "serial.twiddle_table_s": "s",
    "serial.fft_serial_s": "s",
    "serial.dft_oracle_s": "s",
    "wave.distribute_s": "s",
    "wave.slide_fft_s": "s",
    "wave.slide_fft_self_s": "s",
    "wave.slide_fft_calls": "count",
    "wave.gather_s": "s",
    "mesh.slide_phase_s": "s",
    "mesh.slide_phase_calls": "count",
    "mesh.pe_access_s": "s",
    "mesh.pe_access_calls": "count",
    "mesh.record_compute_s": "s",
    "mesh.record_compute_calls": "count",
    **dict(MODELLED.values()),
    "mesh.moved_vs_budget": "ratio",
    "model.predict_efficiency_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}

# CSV columns of bench-fft checked against the ledger, read by header name.
CSV_GATE = ("total_cycles", "transfer_cycles", "compute_cycles", "flops", "status")
# The distributed transform must match fft_serial bit for bit and numpy.fft
# (an oracle independent of the package) to this relative error.
MAX_REL_ERR = 1e-9

CLI_MAIN = "import sys; from slidefft.cli import entry; sys.argv[0] = 'slidefft'; entry()"


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    stdout: str


def run_child(argv: list[str], deadline: float, stderr=subprocess.DEVNULL) -> ChildRun:
    """Run one child to completion and read its own rusage from wait4.

    The child is killed at ``deadline`` (a time.monotonic value); it is
    always reaped before this returns.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=stderr)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                    rss_mib=usage.ru_maxrss / 1024, code=proc.returncode,
                    stdout=out.decode("utf-8", "replace"))


def cli_command(args: list[str], seed: int) -> list[str]:
    return [sys.executable, "-c", CLI_MAIN, *args, "--seed", str(seed)]


def cli_output_error(args: list[str], expected: list[dict], code: int, stdout: str) -> str | None:
    """Why one CLI run's output is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    if args[0] == "verify":
        lines = stdout.splitlines()
        bad = [line for line in lines if not line.startswith("PASS ")]
        if not lines or bad:
            return f"verify: {bad[0] if bad else 'no output'}"
        return None
    try:
        got = {(int(row["total_elements"]), int(row["pe_count"])): row
               for row in csv.DictReader(io.StringIO(stdout))}
        want = {(entry["n"], 1 << entry["k"]): entry for entry in expected}
        if set(got) != set(want):
            return f"CSV rows (n, pes) {sorted(got)}, expected {sorted(want)}"
        for key, entry in want.items():
            for column in CSV_GATE:
                if got[key][column] != str(entry[column]):
                    return (f"n={key[0]} pes={key[1]}: {column} {got[key][column]}, "
                            f"expected {entry[column]}")
    except (KeyError, ValueError, TypeError) as exc:
        return f"unreadable CSV: {exc!r}"
    return None


def trace_errors(args: list[str], expected: list[dict], trace: dict) -> list[str]:
    """Checks of the traced run: CLI output, exact ledgers, spectra."""
    errors = []
    error = cli_output_error(args, expected, trace["exit_code"], trace["stdout"])
    if error:
        errors.append(error)
    runs = trace["runs"]
    if len(runs) != len(expected):
        errors.append(f"{len(runs)} transforms, expected {len(expected)}")
    for got, want in zip(runs, expected):
        where = f"n={got['n']} k={got['k']}"
        for field, value in want.items():
            if field in got and got[field] != value:
                errors.append(f"{where}: {field} {got[field]}, expected {value}")
        if not got["spectrum_equal"]:
            errors.append(f"{where}: spectrum differs from fft_serial")
        if not got["rel_err"] < MAX_REL_ERR:
            errors.append(f"{where}: relative error {got['rel_err']:.3g} against numpy.fft")
        if got["predicted_flops"] != got["flops"]:
            errors.append(f"{where}: predict_efficiency gives {got['predicted_flops']} flops, "
                          f"the ledger books {got['flops']}")
    if not trace["oracle_rel_err"] < MAX_REL_ERR:
        errors.append(f"fft_serial: relative error {trace['oracle_rel_err']:.3g} "
                      "against dft_oracle")
    return errors


def warm_up(deadline: float) -> None:
    """Import the package once, untimed, so bytecode caches exist before
    anything is measured (an installed package ships them)."""
    run_child([sys.executable, "-c", "import slidefft.cli"], deadline)


def measure_end_to_end(args: list[str], expected: list[dict], seed: int,
                       seconds: float) -> dict:
    """Fresh-process CLI runs back to back for ``seconds``, each after one
    set-up probe, so that the probes sample the same stretch of host time as
    the runs; then more probes until there are ``SETUP_PROBES``."""
    deadline = time.monotonic() + BUDGET_S
    warm_up(deadline)
    plans = json.dumps([[entry["n"], entry["k"], entry["element_bits"]] for entry in expected])
    attempted, failed, errors = 0, 0, []
    setup, runs = [], []

    def probe() -> None:
        nonlocal attempted, failed
        child = run_child([sys.executable, str(HERE / "setup_probe.py"), plans], deadline,
                          stderr=None)
        attempted += 1
        setup.append(child.wall_s)
        if child.code != 0:
            failed += 1
            errors.append(f"set-up probe: exit code {child.code}")

    start = time.perf_counter()
    while True:
        probe()
        run = run_child(cli_command(args, seed), deadline)
        attempted += 1
        runs.append(run)
        error = cli_output_error(args, expected, run.code, run.stdout)
        if error:
            failed += 1
            errors.append(error)
        # The last run may end after the window; none may end after the deadline.
        if (time.perf_counter() - start >= seconds
                or time.monotonic() + run.wall_s > deadline):
            break
    while len(setup) < SETUP_PROBES:
        probe()
    metrics = {
        "host_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.rss_mib for r in runs),
    }
    notes = [f"host_s of each run: {' '.join(f'{r.wall_s:.3f}' for r in runs)}",
             f"setup_s of each probe: {' '.join(f'{t:.3f}' for t in setup)}"]
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "samples": len(runs), "metrics": metrics, "notes": notes}


def layer_metrics(trace: dict, host_s: float, traced_wall_s: float) -> dict:
    """Per-layer metrics from one traced run and the untraced run's host time."""
    spans = trace["spans"]
    metrics = {}
    for layer, (calls, total, nested) in spans.items():
        # The traced run's checks call every layer; one that is still never
        # called (its wrap target is gone) has no time to report, not 0 s.
        if calls:
            metrics[f"{layer}_s"] = total
        if layer in COUNTED:
            metrics[f"{layer}_calls"] = calls
    if "wave.slide_fft" in spans:
        _, total, nested = spans["wave.slide_fft"]
        metrics["wave.slide_fft_self_s"] = total - nested
    if "serial.build_permutation" in spans:
        metrics["serial.build_permutation_peak_mb"] = trace["build_permutation_peak_bytes"] / 2**20
    runs = trace["runs"]
    for field, (name, _) in MODELLED.items():
        if all(field in run for run in runs):
            metrics[name] = sum(run[field] for run in runs)
    if metrics.get("mesh.budget_elements_moved"):
        metrics["mesh.moved_vs_budget"] = (metrics["mesh.elements_moved"]
                                           / metrics["mesh.budget_elements_moved"])
    metrics["cli.self_s"] = trace["main_s"] - trace["top_level_s"]
    metrics["trace.overhead"] = (traced_wall_s - trace["check_s"]) / host_s
    return metrics


def traced_run(args: list[str], seed: int, deadline: float) -> tuple[ChildRun, dict | None]:
    child = run_child([sys.executable, str(HERE / "traced.py"), *args, "--seed", str(seed)],
                      deadline, stderr=None)
    if child.code != 0 or not child.stdout.strip():
        return child, None
    return child, json.loads(child.stdout.splitlines()[-1])


def measure_layers(args: list[str], expected: list[dict], seed: int) -> dict:
    """One untraced CLI run for reference, then one traced replay."""
    deadline = time.monotonic() + BUDGET_S
    warm_up(deadline)
    errors = []
    plain = run_child(cli_command(args, seed), deadline)
    error = cli_output_error(args, expected, plain.code, plain.stdout)
    if error:
        errors.append(error)
    child, trace = traced_run(args, seed, deadline)
    if trace is None:
        traced_errors = [f"exit code {child.code}"]
        metrics = {}
    else:
        traced_errors = trace_errors(args, expected, trace)
        metrics = layer_metrics(trace, plain.wall_s, child.wall_s)
        if trace["absent"]:
            print(f"absent layers (no wrap target left): {', '.join(trace['absent'])}")
        idle = [layer for layer, (calls, _, _) in trace["spans"].items() if not calls]
        if idle:
            print(f"layers not called by this workload: {', '.join(idle)}")
    errors.extend(f"traced run: {e}" for e in traced_errors)
    return {"attempted": 2, "failed": bool(error) + bool(traced_errors), "errors": errors,
            "samples": 1, "metrics": metrics}


def load_ledger() -> dict:
    with open(LEDGER, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def report(title: str, result: dict, units: dict) -> dict:
    """Print one result as a table; return its metrics with units."""
    print(f"# {title}: {result['samples']} run(s) measured, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for error in result["errors"]:
        print(f"FAILED {error}")
    for note in result.get("notes", ()):
        print(note)
    out = {}
    for name, unit in units.items():
        if name in result["metrics"]:
            value = result["metrics"][name]
            out[name] = {"value": value, "unit": unit}
            print(f"{name:34s} {value!r:>24} {unit}")
    print(f"{'failed_runs':34s} {result['failed']:>24} count")
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workloads(plan: dict, seed: int, seconds: float, modes, prefixed: bool) -> dict:
    """Measure each workload of ``plan`` (name -> (CLI args, expected
    ledger)) in each mode; return the result object the last line prints."""
    attempted, failed, metrics = 0, 0, {}
    for name, (args, expected) in plan.items():
        for mode in modes:
            if mode == 0:
                result = measure_end_to_end(args, expected, seed, seconds)
            else:
                result = measure_layers(args, expected, seed)
            shown = report(f"{name} trace={mode}", result, PER_LAYER if mode else END_TO_END)
            prefix = f"{name}/" if prefixed else ""
            metrics.update({prefix + key: value for key, value in shown.items()})
            attempted += result["attempted"]
            failed += result["failed"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "slidefft" / "cli.py").is_file():
        print(f"error: no slidefft sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ledger = load_ledger()
    every = args.workload == "all"
    names = list(WORKLOADS) if every else [args.workload]
    plan = {name: (WORKLOADS[name], ledger[name]) for name in names}
    modes = (0, 1) if every else (args.trace,)
    print(json.dumps(run_workloads(plan, args.seed, args.seconds, modes, prefixed=every)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
