"""Command-line behavior: CSV contract, exit codes, determinism."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slidefft.cli as cli
import slidefft.serial as serial
import slidefft.wave as wave
from slidefft.cli import (CSV_HEADER, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, MAX_ELEMENTS,
                          bench_fft_records, bench_slide_records, main, random_batch)
from slidefft.mesh import CapacityExceeded, Mesh, MeshConfig
from slidefft.model import CostModel, predict_efficiency


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_csv_header_is_stable():
    assert CSV_HEADER == ("pe_count,elements_per_pe,total_elements,total_cycles,"
                         "cycles_per_element,transfer_cycles,compute_cycles,"
                         "flops,eta_measured,eta_predicted,status")


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "64")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)


def test_verify_rejects_non_power_size(capsys):
    assert run(capsys, "verify", "--n", "12")[0] == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE


def test_bench_slide_csv_shape(capsys):
    code, out, _ = run(capsys, "bench-slide", "--pes", "8",
                       "--elements", "1..5", "--csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "8" and first[1] == "1" and first[-1] == "ok"


def test_bench_slide_is_deterministic(capsys):
    args = ("bench-slide", "--pes", "8,16", "--elements", "1..20", "--csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_bench_slide_converges_toward_per_element_cost(capsys):
    _, out, _ = run(capsys, "bench-slide", "--pes", "8",
                    "--elements", "500", "--csv")
    row = out.strip().splitlines()[1].split(",")
    assert row[4] == "1.306000"


def test_bench_slide_capacity_exit(capsys):
    # 20000 32-bit elements is 80000 bytes, over any PE's 48 KiB
    code, out, _ = run(capsys, "bench-slide", "--pes", "8",
                       "--elements", "20000", "--csv")
    assert code == EXIT_INFEASIBLE
    assert "capacity_exceeded" in out


def test_bench_fft_csv_and_summary(capsys):
    code, out, err = run(capsys, "bench-fft", "--n", "256", "--k", "0..3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert "bench-fft" in err
    # constant prediction column: 5*3*8 / (2.3 + 5*3*8) = 120/122.3, at the
    # mesh's own 2.3 cycles per 64-bit element
    predicted = {line.split(",")[9] for line in lines[1:]}
    assert predicted == {"0.981194"}


def test_bench_fft_csv_flag_silences_summary(capsys):
    _, _, err = run(capsys, "bench-fft", "--n", "64", "--k", "1", "--csv")
    assert err == ""


def test_bench_fft_is_deterministic(capsys):
    args = ("bench-fft", "--n", "128", "--k", "0..7", "--seed", "9", "--csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_bench_fft_infeasible_rows_marked(capsys):
    # 2^13 doubles at k=0 need 192 KiB; k=2 fits
    code, out, _ = run(capsys, "bench-fft", "--n", "8192", "--k", "0..2", "--csv")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[-1] for r in rows] == ["infeasible", "infeasible", "ok"]


def test_bench_fft_all_infeasible_exit(capsys):
    code, _, _ = run(capsys, "bench-fft", "--n", "8192", "--k", "0,1", "--csv")
    assert code == EXIT_INFEASIBLE


def test_bench_fft_names_the_minimal_feasible_k(capsys):
    code, _, err = run(capsys, "bench-fft", "--n", "8192", "--k", "0..2")
    assert code == EXIT_OK
    assert "minimal feasible k: 2" in err.splitlines()


def test_bench_fft_notes_when_no_k_fits():
    records, notes, ledgers = bench_fft_records(4, [0, 1, 2], 64,
                                                MeshConfig(local_memory_bytes=16))
    assert [r.status for r in records] == ["infeasible"] * 3
    assert notes == ["no feasible k for this size and memory"]
    assert ledgers == []


# The mesh's cycles per element per hop, from its fields: element_bits / 32
# packets of 1 cycle, plus 3/10 cycles of overhead under cs2-calibrated.
MESH_A = {("cs2-calibrated", 32): Fraction(13, 10), ("cs2-calibrated", 64): Fraction(23, 10),
          ("pure-packet", 32): Fraction(1), ("pure-packet", 64): Fraction(2)}


@pytest.mark.parametrize("preset,element_bits", sorted(MESH_A))
@pytest.mark.parametrize("extra", [(), ("--doubled-transfer",), ("--b", "0.3")],
                         ids=["plain", "doubled", "b-0.3"])
def test_bench_fft_predicts_with_its_mesh_costs(capsys, preset, element_bits, extra):
    code, out, _ = run(capsys, "bench-fft", "--n", "256", "--k", "0..8", "--csv",
                       "--preset", preset, "--element-bits", str(element_bits), *extra)
    assert code == EXIT_OK
    b = Fraction(3, 10) if "--b" in extra else Fraction(3)
    model = CostModel(MESH_A[preset, element_bits], b, "--doubled-transfer" in extra)
    eta = f"{float(predict_efficiency(model, 256, 8).eta):.6f}"
    assert [line.split(",")[9] for line in out.strip().splitlines()[1:]] == [eta] * 9


def test_repeated_values_run_once(capsys, monkeypatch):
    ks = []

    def distribute(x, layout, mesh):
        ks.append(layout.k)
        return wave.distribute(x, layout, mesh)

    monkeypatch.setattr(cli, "distribute", distribute)
    repeated = run(capsys, "bench-fft", "--n", "16", "--k", "3,1,3,1", "--csv")
    assert ks == [1, 3]
    assert repeated == run(capsys, "bench-fft", "--n", "16", "--k", "1,3", "--csv")
    assert (run(capsys, "bench-slide", "--pes", "8,8", "--elements", "5,2,5", "--csv")
            == run(capsys, "bench-slide", "--pes", "8", "--elements", "2,5", "--csv"))


def test_bench_fft_refuses_a_bad_k_before_running_any(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a transform ran before every k was checked")

    monkeypatch.setattr(cli, "distribute", refuse)
    code, out, err = run(capsys, "bench-fft", "--n", "1024", "--k", "2,11")
    assert code == EXIT_USAGE
    assert out == "" and err == "error: k=11 outside 0..10 for n=1024\n"


def test_bench_fft_ledger_dump(capsys):
    _, _, err = run(capsys, "bench-fft", "--n", "64", "--k", "2",
                    "--dump-ledger")
    assert "# ledger k=2" in err
    assert "compute_cycles=" in err
    assert "elements_moved=128" in err
    assert "wall_clock_cycles=2082" in err


def test_predict_reference_point(capsys):
    code, out, _ = run(capsys, "predict", "--m", "17")
    assert code == EXIT_OK
    assert "eta            = 0.992218  (255/257)" in out
    assert "alpha          = 0.666667" in out
    assert "flops          = 11141120" in out
    assert "ok threshold" in out


def test_predict_from_size(capsys):
    _, by_m, _ = run(capsys, "predict", "--m", "10")
    _, by_n, _ = run(capsys, "predict", "--n", "1024")
    assert by_m == by_n


def test_predict_takes_every_m_whose_report_prints(capsys):
    """By default Python prints no integer of over 4300 digits, and the
    longest line of the report is the FLOP count 5 * m * 2**m."""
    m = cli.MAX_LEVELS
    assert 5 * m << m < 10 ** 4300 <= 5 * (m + 1) << (m + 1)
    code, out, _ = run(capsys, "predict", "--m", str(m))
    assert code == EXIT_OK and out.endswith(f"flops          = {5 * m << m}\n")
    for flag, value in (("--m", m + 1), ("--n", 1 << (m + 1))):
        code, out, err = run(capsys, "predict", flag, str(value))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: --m {m + 1} exceeds {m} levels\n")


def test_predict_refuses_a_report_it_cannot_print(capsys):
    """a, b and eta print as exact fractions, and Python prints no integer
    of over 4300 digits."""
    for flag, value in (("--a", "1e4300"), ("--b", "1e-4300")):
        assert run(capsys, "predict", "--m", "3", flag, value) == (
            EXIT_USAGE, "", "error: a, b or eta has over 4300 digits to print\n")
    assert run(capsys, "predict", "--m", "3", "--a", "1e300")[0] == EXIT_OK


def test_cost_defaults_are_the_librarys():
    parser, _ = cli._build_parser()
    fft, predict = parser.parse_args(["bench-fft"]), parser.parse_args(["predict"])
    assert fft.b == predict.b == MeshConfig().cycles_per_flop == CostModel().b
    assert predict.a == CostModel().a


def test_predict_needs_a_size(capsys):
    assert run(capsys, "predict")[0] == EXIT_USAGE


def test_predict_disagreeing_sizes(capsys):
    assert run(capsys, "predict", "--n", "64", "--m", "5")[0] == EXIT_USAGE


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bench-slide", "--pes", "8", "--elements", "1..3",
                       "--out", str(target), "--csv")
    assert code == EXIT_OK
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith(CSV_HEADER)
    assert text.endswith("\n")


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"pes": [8], "elements": [5, 6]}))
    code, out, _ = run(capsys, "bench-slide", "--config", str(config), "--csv")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 3


def test_flags_override_config(tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"m": 10}))
    _, out, _ = run(capsys, "predict", "--config", str(config), "--m", "17")
    assert "m = 17" in out


def test_missing_config_file(capsys):
    assert run(capsys, "predict", "--m", "4",
               "--config", "/nonexistent.json")[0] == EXIT_USAGE


def test_record_builder_reusable():
    records = bench_slide_records([8], [100], 32, MeshConfig())
    assert len(records) == 1
    assert records[0].total_cycles == 8 * 133


def test_single_pe_single_element_row():
    # per-element quotient degenerates to the whole phase: ramp + 1.3
    record = bench_slide_records([1], [1], 32, MeshConfig())[0]
    assert record.cycles_per_element == record.total_cycles
    assert float(record.cycles_per_element) == pytest.approx(3 + 1.3)


def test_first_row_is_costliest_per_element():
    records = bench_slide_records([8], list(range(1, 60)), 32, MeshConfig())
    costs = [r.cycles_per_element for r in records]
    assert costs[0] == max(costs)
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_rows_sorted_regardless_of_flag_order(capsys):
    _, shuffled, _ = run(capsys, "bench-slide", "--pes", "32,8,16",
                         "--elements", "3,1,2", "--csv")
    _, ordered, _ = run(capsys, "bench-slide", "--pes", "8,16,32",
                        "--elements", "1..3", "--csv")
    assert shuffled == ordered


def test_bench_fft_single_pe_efficiency_is_one(capsys):
    _, out, _ = run(capsys, "bench-fft", "--n", "256", "--k", "0", "--csv")
    row = out.strip().splitlines()[1].split(",")
    assert row[8] == "1.000000"


@pytest.mark.parametrize("command,settings", [
    ("bench-slide", {"pes": "8,16"}),
    ("bench-fft", {"n": "1024"}),
    ("bench-fft", {"doubled-transfer": 1}),
])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command, settings):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps(settings))
    code, out, err = run(capsys, command, "--config", str(config), "--csv")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: config key")


def test_config_switch_matches_flag(tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"doubled-transfer": True}))
    _, from_config, _ = run(capsys, "predict", "--m", "10", "--config", str(config))
    _, from_flag, _ = run(capsys, "predict", "--m", "10", "--doubled-transfer")
    assert "(doubled transfer)" in from_flag
    assert from_config == from_flag


@pytest.mark.parametrize("text,message", [
    ("a..3", "bad range 'a..3'"), ("4..2", "empty range '4..2'"),
    ("1,x", "bad integer 'x'"), (",", "no values in ','"),
])
def test_bad_integer_list_is_named(capsys, text, message):
    code, out, err = run(capsys, "bench-slide", "--pes", text)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith(f"error: argument --pes: {message}\n")


def test_config_b_matches_flag_b(tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"b": 0.3}))
    _, from_config, _ = run(capsys, "predict", "--m", "10", "--config", str(config))
    _, from_flag, _ = run(capsys, "predict", "--m", "10", "--b", "0.3")
    assert "b = 3/10" in from_flag
    assert from_config == from_flag
    fft = ("bench-fft", "--n", "64", "--k", "3", "--csv")
    assert run(capsys, *fft, "--config", str(config))[1] == run(capsys, *fft, "--b", "0.3")[1]


TOO_LARGE = "exceeds 1.79769e+308, the largest float"


@pytest.mark.parametrize("argv,message", [
    (("verify", "--n", "1"), "verify needs n >= 2, got 1"),
    (("bench-slide", "--elements", "0"), "PE and element counts must be at least 1"),
    (("predict", "--m", "3", "--a", "1e400"), f"alpha {TOO_LARGE}"),
    (("predict", "--m", "3", "--b", "1e-400"), f"alpha {TOO_LARGE}"),
    (("bench-fft", "--n", "4", "--k", "0..2", "--b", "1e-400"),
     f"the deviation at k=0 {TOO_LARGE}"),
    (("bench-fft", "--n", "4", "--k", "0..2", "--b", "1e400"), f"a cycle count {TOO_LARGE}"),
    (("bench-fft", "--n", "4", "--k", "0", "--b", "1e4299", "--csv"),
     "total_cycles has over 4300 digits to print"),
], ids=[f"argv{i}" for i in range(7)])
def test_degenerate_sizes_are_usage_errors(capsys, argv, message):
    """One line in the CLI's own words: a value past the float range, or an
    integer too long for Python to print, is named, not reported as
    Python's OverflowError or ValueError."""
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")


def test_capacity_error_is_one_line_and_exit_3(capsys, monkeypatch):
    """No command lets a CapacityExceeded escape today; main's handler
    still ends one in an exit code and one line, not a traceback."""
    def run_verify(max_n, seed):
        raise CapacityExceeded("PE (0, 0) cannot hold 3 blocks")

    monkeypatch.setattr(cli, "run_verify", run_verify)
    assert run(capsys, "verify", "--n", "4") == (
        EXIT_INFEASIBLE, "", "capacity error: PE (0, 0) cannot hold 3 blocks\n")


def test_rel_error_of_a_zero_reference_is_the_absolute_error():
    zeros = np.zeros(4, complex)
    assert cli._rel_error(zeros, zeros) == 0.0
    assert cli._rel_error(zeros + 0.5j, zeros) == 0.5


@pytest.mark.parametrize("command", [("bench-fft", "--n", "4", "--k", "0..2"),
                                     ("predict", "--m", "3")])
def test_b_must_be_positive_before_anything_is_built(capsys, monkeypatch, command):
    def built(*args, **kwargs):
        raise AssertionError("built before --b was checked")

    # Every config and cost model, however it is built, runs __post_init__.
    monkeypatch.setattr(cli.MeshConfig, "__post_init__", built)
    monkeypatch.setattr(cli.CostModel, "__post_init__", built)
    errors = []
    for b in ("0", "-1"):
        code, out, err = run(capsys, *command, "--b", b)
        assert code == EXIT_USAGE and out == ""
        errors += [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"slidefft {command[0]}: error: argument --b: "
                      "cycles per FLOP must be positive"] * 2


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "4", "--preset", "pure-packet"),
    ("verify", "--n", "4", "--csv"),
    ("predict", "--m", "3", "--seed", "1"),
    ("predict", "--m", "3", "--preset", "pure-packet"),
    ("predict", "--m", "3", "--csv"),
    ("bench-slide", "--seed", "1"),
    ("bench-fft", "--n", "64", "--k", "3", "--a", "2"),
])
def test_flags_a_command_never_reads_are_rejected(capsys, argv):
    assert run(capsys, *argv)[0] == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("predict", "--m", "3", "--a", "1e999999999"),
    ("predict", "--m", "3", "--b", "-1e999999999"),
    ("bench-fft", "--n", "4", "--k", "0", "--b", "1e-999999999"),
    ("predict", "--m", "10000000000"),
    ("bench-fft", "--n", "4", "--k", "0..10000000000"),
])
def test_huge_values_are_rejected_before_they_are_built(capsys, argv):
    """10**999999999, 1 << 10**10 and a list of 10**10 integers would each
    take gigabytes to build."""
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("bench-slide", "--pes", "1000000000", "--elements", "1"),
    ("bench-slide", "--pes", "4096", "--elements", "1..1025"),
    ("bench-fft", "--n", str(1 << 30), "--k", "30"),
    ("bench-fft", "--n", str(2 * MAX_ELEMENTS), "--k", "8"),
    ("verify", "--n", str(1 << 30)),
    ("verify", "--n", str(1 << 19)),
])
def test_oversized_runs_are_refused_before_anything_is_allocated(capsys, argv):
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert peak < 1 << 20
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


def test_largest_sizes_are_accepted():
    parser, _ = cli._build_parser()
    assert parser.parse_args(["bench-fft", "--n", str(MAX_ELEMENTS)]).n == MAX_ELEMENTS
    assert parser.parse_args(["verify", "--n", str(1 << 18)]).n == 1 << 18
    assert len(bench_slide_records([1024], [4096], 32, MeshConfig())) == 1


def test_oversized_config_value_is_refused(tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"n": 1 << 30}))
    code, _, err = run(capsys, "bench-fft", "--config", str(config))
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and err.startswith("error: config key 'n'")


@pytest.mark.parametrize("seed,count,n", [(0, 1, 1), (7, 10, 64), (2**63, 3, 1 << 16)])
def test_random_batch_is_the_documented_formula(seed, count, n):
    batch = random_batch(seed, count, n)
    assert batch.shape == (count, n) and batch.dtype == np.complex128
    for i, row in enumerate(batch):
        rng = np.random.default_rng(seed + i)
        assert row.tobytes() == (rng.random(n) + 1j * rng.random(n)).tobytes()


# What perfbench/traced.py wraps, by layer, where callers look it up.  A
# layer whose wrap target is gone, or is never called, reports no per-layer
# metric, and a benchmark result without one is refused.
TRACED = [("wave.distribute", cli, "distribute"), ("wave.slide_fft", cli, "slide_fft"),
          ("serial.twiddle_table", wave, "twiddle_table"),
          ("serial.twiddle_table", serial, "twiddle_table"),
          ("wave.gather", wave, "gather"), ("mesh.slide_phase", Mesh, "slide_phase"),
          ("mesh.record_compute", Mesh, "record_compute"), ("mesh.pe_access", Mesh, "pe_store")]


@pytest.mark.parametrize("argv", [("bench-fft", "--n", "64", "--k", "3"),
                                  ("verify", "--n", "16")])
def test_benchmark_wrap_targets_exist_and_are_called(monkeypatch, capsys, argv):
    calls = dict.fromkeys([layer for layer, _, _ in TRACED], 0)

    def counted(layer, fn):
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    for layer, namespace, name in TRACED:
        assert name in namespace.__dict__, f"{layer}: {name} is gone"
        monkeypatch.setattr(namespace, name, counted(layer, namespace.__dict__[name]))
    assert run(capsys, *argv)[0] == EXIT_OK
    assert [layer for layer, count in calls.items() if not count] == []


def test_benchmark_probes_run_on_this_tree():
    """perfbench's set-up probe and traced replay, as the benchmark starts
    them: both exit 0, every layer finds a wrap target, and every transform
    reports its level split and budget with a bit-exact spectrum."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"

    def probe(script, *args):
        done = subprocess.run([sys.executable, str(perfbench / script), *args],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout

    probe("setup_probe.py", "[[64, 3, 64]]")
    traced = json.loads(probe("traced.py", "bench-fft", "--n", "64", "--k", "0..6",
                              "--seed", "0"))
    assert traced["exit_code"] == 0 and traced["absent"] == []
    runs = traced["runs"]
    assert [r["k"] for r in runs] == list(range(7))
    for r in runs:
        assert r["spectrum_equal"], r["k"]
        assert r["levels_local"] + r["levels_sliding"] == 6
        assert r["budget_elements_moved"] == r["elements_moved"] == 64 * r["k"]


def pinned_invocations():
    """Every bench-fft sweep of m = 1..10 with its ledgers, both presets and
    wire sizes; both bench-slide presets; the model at m = 1..39, with
    rational costs, and a refused m.  verify is left out: its error
    magnitudes depend on the BLAS build."""
    for m in range(1, 11):
        for preset in ("cs2-calibrated", "pure-packet"):
            for bits in ("32", "64"):
                yield ["bench-fft", "--n", str(1 << m), "--k", f"0..{m}", "--preset", preset,
                       "--element-bits", bits, "--dump-ledger"]
    yield ["bench-slide"]
    yield ["bench-slide", "--preset", "pure-packet", "--element-bits", "64"]
    yield ["bench-fft", "--n", "256", "--b", "0.7", "--doubled-transfer"]
    for m in range(1, 40):
        yield ["predict", "--m", str(m)]
    yield ["predict", "--m", "10", "--a", "1/3", "--b", "7/2", "--doubled-transfer"]
    yield ["predict", "--m", "0"]


# sha256 of the JSON list [argv, exit code, stdout, stderr] of each pinned
# invocation, then its arguments.
PINNED_DIGESTS = """
4d066e55808d60a4d416242df97e71ec32c0b825211f631a0725364c1e996487 bench-fft --n 2 --k 0..1 --preset cs2-calibrated --element-bits 32 --dump-ledger
3e7a5d8cda8a9f58485d6e6ab832d80a58cb24949c2638634bcabe24efcc2322 bench-fft --n 2 --k 0..1 --preset cs2-calibrated --element-bits 64 --dump-ledger
1098e3bd2a326ec8aaaed0be94cce7fe600e4852da1671979bd5e1d411316bc1 bench-fft --n 2 --k 0..1 --preset pure-packet --element-bits 32 --dump-ledger
78ad2c1c8942118e849788944bf3132744362d7c827f72f5935774695260cc93 bench-fft --n 2 --k 0..1 --preset pure-packet --element-bits 64 --dump-ledger
7e4be255a9876bfccc17a1137f6c42a5990e800cbcb6b3151fc5a6b8630d7dfb bench-fft --n 4 --k 0..2 --preset cs2-calibrated --element-bits 32 --dump-ledger
484da7e5c02c5f80046cdd4143de6965cd814bd590b3ce24c624176535ce4852 bench-fft --n 4 --k 0..2 --preset cs2-calibrated --element-bits 64 --dump-ledger
52b6703f9a949a4f57e8af728b4fc792d560d2e58589d5de34262926687fcc1f bench-fft --n 4 --k 0..2 --preset pure-packet --element-bits 32 --dump-ledger
9a4d3de5a4263662952ad419c790f23241c073a0b42fda5a9e42531239c4d9c2 bench-fft --n 4 --k 0..2 --preset pure-packet --element-bits 64 --dump-ledger
215bf079daa0d98fddf19e1c7def370cee5f373a3e2c4351f45b4729bb3a165b bench-fft --n 8 --k 0..3 --preset cs2-calibrated --element-bits 32 --dump-ledger
fbb623436111c9e82a419e60f90524fd49df3c9ae9f6e5d52ca57c56f16aa8fc bench-fft --n 8 --k 0..3 --preset cs2-calibrated --element-bits 64 --dump-ledger
2131258bd96519e3816d9b252865f6279ede6f03e0a308874e11d24ccbde0ea2 bench-fft --n 8 --k 0..3 --preset pure-packet --element-bits 32 --dump-ledger
8ec5bfe63dc896182a2e690e953609b14a3f4bd3aaca1a36b05995c907f57f05 bench-fft --n 8 --k 0..3 --preset pure-packet --element-bits 64 --dump-ledger
d5ec643e648719d1ac9df2c14763ed3861c73faf91cbf5526902ca7fdb49f671 bench-fft --n 16 --k 0..4 --preset cs2-calibrated --element-bits 32 --dump-ledger
b592f83ebb006974933f21c40870336d22e9eeb992cc978f8543439af2d38a33 bench-fft --n 16 --k 0..4 --preset cs2-calibrated --element-bits 64 --dump-ledger
86e2fea48234f7dafce46f19ccc962876ea8c2dfde0a1214d64dacf085322e71 bench-fft --n 16 --k 0..4 --preset pure-packet --element-bits 32 --dump-ledger
8d3318a68493526b97179dbe9f979d72369177017295601d84be34f3f3f128f8 bench-fft --n 16 --k 0..4 --preset pure-packet --element-bits 64 --dump-ledger
5d37dbae163a624b31dbc52284b70e4e6a4afb13d8c0f0b768ee4c0fa0b7bddd bench-fft --n 32 --k 0..5 --preset cs2-calibrated --element-bits 32 --dump-ledger
3f49dc586fe49e031341ffc793d2722b4a1d2efcf5730030233e936265da1dfc bench-fft --n 32 --k 0..5 --preset cs2-calibrated --element-bits 64 --dump-ledger
8c52d0e96653e0b48bd040a3b26f66258619df2f4676dde751b5500154bbe370 bench-fft --n 32 --k 0..5 --preset pure-packet --element-bits 32 --dump-ledger
3abe8912fb76c92fafe63fcbeb9e19bccdc1d39f0ac121df14391e3f681841b6 bench-fft --n 32 --k 0..5 --preset pure-packet --element-bits 64 --dump-ledger
2f367703baabe2cf3dcfc5018bbc4d2a1e1ebf8c074ff1198b90dec88c719a8d bench-fft --n 64 --k 0..6 --preset cs2-calibrated --element-bits 32 --dump-ledger
0d353b7c990971b153e39723a09b823cbab16d3005fd56a59a59e8ecfdd77bc2 bench-fft --n 64 --k 0..6 --preset cs2-calibrated --element-bits 64 --dump-ledger
6430e5da28f7373b6aa55a5fd50ddbe57d3d5d387c32e8e86731952583bd8455 bench-fft --n 64 --k 0..6 --preset pure-packet --element-bits 32 --dump-ledger
6ab0b50e3f03e4a7106866d454a35c8e9a0f2eed56c7681c9d9ce33be9aa093d bench-fft --n 64 --k 0..6 --preset pure-packet --element-bits 64 --dump-ledger
0cff1b10239dcf591cf3217c9c75ec5b92a92e8afaeba030675fb8792839f4d8 bench-fft --n 128 --k 0..7 --preset cs2-calibrated --element-bits 32 --dump-ledger
1db04214f3c56209e02386b6582d81c65003b5e6560f13ce12783eba83c7872e bench-fft --n 128 --k 0..7 --preset cs2-calibrated --element-bits 64 --dump-ledger
afad796de4bc452b0834cc6e1a20f30e24d041c9364020d8aa1fbe2ea23100c0 bench-fft --n 128 --k 0..7 --preset pure-packet --element-bits 32 --dump-ledger
a090146550c78779f8870e729a309e45603352253ec019dff08f47c3b5aca49c bench-fft --n 128 --k 0..7 --preset pure-packet --element-bits 64 --dump-ledger
055bd6d86e7faecbea3dd47b4b0fd521734a229fd6c03eed84c201d2a50cb3d3 bench-fft --n 256 --k 0..8 --preset cs2-calibrated --element-bits 32 --dump-ledger
83e6ceca16911e534b563114728f5d835ef6223fa5195225a9e01e3b039767ac bench-fft --n 256 --k 0..8 --preset cs2-calibrated --element-bits 64 --dump-ledger
0ca3b9cff4e044268b7bb7d0ca4b11072042115552d748c05ea6e687a256dd1e bench-fft --n 256 --k 0..8 --preset pure-packet --element-bits 32 --dump-ledger
e46934b91598042cca98fb4635c11c978b1d72540e453ee1005582ed80ec965f bench-fft --n 256 --k 0..8 --preset pure-packet --element-bits 64 --dump-ledger
a66d0ff46a0b01b3d0e8f19e7a876572a5f023913e827a8860539867c620760a bench-fft --n 512 --k 0..9 --preset cs2-calibrated --element-bits 32 --dump-ledger
3a97a221df6be5d6dbd2c50aab4312a62ac32febaeda86a2a8d77c1b2da5eaea bench-fft --n 512 --k 0..9 --preset cs2-calibrated --element-bits 64 --dump-ledger
4d2c57b50f340f02829111cd90a7ea210ff4fb76651d34e76d82d7e023092a78 bench-fft --n 512 --k 0..9 --preset pure-packet --element-bits 32 --dump-ledger
dd121a2164354f33601a8e0101cd8c8a411edbf11418ee695dbd4ce9d4a1f5c4 bench-fft --n 512 --k 0..9 --preset pure-packet --element-bits 64 --dump-ledger
de4a651d3ef4f73db9b8c7b6e4d470c397b2f0e03859bbbb8c526a4d5438836f bench-fft --n 1024 --k 0..10 --preset cs2-calibrated --element-bits 32 --dump-ledger
2f1dc444ea977feba85dccfb7a7514a339d52cd88a3c0dc353a23363299741fa bench-fft --n 1024 --k 0..10 --preset cs2-calibrated --element-bits 64 --dump-ledger
147bc20f5c985e024971a82bdbbbdfa5584f1467a9c8a9f25b8d159a1a4683b9 bench-fft --n 1024 --k 0..10 --preset pure-packet --element-bits 32 --dump-ledger
c0879f8b024e89233e5f60eab585e0c411708cdbd78602b38385dd71b3fa19ab bench-fft --n 1024 --k 0..10 --preset pure-packet --element-bits 64 --dump-ledger
e77e7c6e84c5c6ee1e1c41585799759be35a0a57a88662ec9e1b282b5bbe5164 bench-slide
47da782334ae886c70a0891267476dc13494b086f2595b8ad0085bc780380979 bench-slide --preset pure-packet --element-bits 64
d5a24e76df9cf8f6716c107bc87af11b18ee2555f262bdeb524a77f2456e3016 bench-fft --n 256 --b 0.7 --doubled-transfer
b4915c56b07c92fb74594e593c0c760bd45fca3e1eae4dfdd5aa08e2e0857cfa predict --m 1
d63d99ff721ecd371868db805d33d67d003bca781bd480064b955486c137d281 predict --m 2
0bdec5aef0642744185319fe4cce32b78de6165f5a6fc162b143bd30fe418de3 predict --m 3
9ca9f44d197d3b3a262da3a2ad16fe3bd7ebe6a48dee9aade7784ed6876623c0 predict --m 4
dcc13ab7e9b55e8f2c749e419264e4390c87f60ae24fd1546cad9b9721830132 predict --m 5
3cbcfdcbbb03ddd5108430d5f14bbdb4004eb9980098c449212ff6b206c86c31 predict --m 6
95ff07f4ad5aded98325790794d0c43ecfcfbf6a80b6a7cc05d10ab6ca50743c predict --m 7
67e3595a99b9eee8c9d4fe6bf3e8ba128bb34460329900b6a82fb6f87cf778d5 predict --m 8
9862eb61161ce7d7505a34a7456d94a319917f5d7276e71959e7ce5bcc86b9a4 predict --m 9
c9161509f31addea4c5575e2e76c2ba7f498fd2d2984eefbac0af59f0ccf4f4e predict --m 10
494eb6026651997c4d2a927a1be26aac8a9b683c191dc384e2e8c5396f0cc0d3 predict --m 11
9aa03c5679ef9dd5429337f4a0ea554c5c19200339bca82d14a147fcbe0fdf68 predict --m 12
7a2fae9a8c0ea76360277681e2e68696f255648caf35b02448344e7d76021251 predict --m 13
82363bccd15ac1fbd5576c47b85251e79987866f2ffb71a50e9ae24adee3380d predict --m 14
fd8a6ce4b0dc84eba98085345566e5915a05694be1c6926871a2f86c103d63a7 predict --m 15
519eb32230a177e7aac1dee6777e5cae18aef2d116877329d0ed9e45bc8920ae predict --m 16
2c1a7b65a5100cd8319d66dfee478482a95f6ba8ebb658599e6dd4b3a693d459 predict --m 17
45dee5ae86a0c8dedc83f07f41c284e0bbe46fa1cd1e63932fdd16e3a3ae23f4 predict --m 18
cfcd1e1608e268fa65386af60525b3caf889a709309d2dcc86e49dc0d99d8be3 predict --m 19
f9b089e96cd8aac01a66f5e15c1687192ef54fbf318411e8c14918704aa9ce17 predict --m 20
75b16d6d1cab8522fde3de57f2d57cd82fabee7f5e3ff34cc55624e363840328 predict --m 21
dd8904e7554c58732dec3598824d8476826757f5269843e2a99a3e94ed352112 predict --m 22
65948491711784d7ae8ea1eb67bd5b487da1d1f5129b898b635dfd7fe9866c48 predict --m 23
5b82893a85159450a0749a8580710cdc6ae6f8b73535a36a842f9f03a3e92e30 predict --m 24
01f7e0b6575f49bf31f9c1af0aacfc9ec9ed9da69352b55a5ce13814e0967ad6 predict --m 25
226ff62374a91d5a1809f3239df178d5245fddd6e8f88b91e05d17390c840fae predict --m 26
49b3f0f8570002ff6532d4c300ac9f12b2a4a52a5dca8496ed3c7f3d6d58dc33 predict --m 27
1b79f4670014ab3444660e39fa58da052b9661c937df145929968a971de66a1f predict --m 28
0529f071389195ce09228c657900032e3f60ce5858a8ad265e7d56d471802918 predict --m 29
ed0cf69ea99bf95fe68a965e7161ad1bae770e756fdb64d790d229d31656269d predict --m 30
9fbd1e1ad3111e898e7a8b16229d0fbab7cf69cc628582f71931f74e34ec304f predict --m 31
5bb1788c41289fb772a254c4b65387bef6d33cf36ff088f2db52c5f41da62bfa predict --m 32
57cf45d73f284f84d07c16c0f6de6296838c1cb58d0d927fb626e86d7a7240e8 predict --m 33
979d61d7871f83ff4eeeeb79cbc2e1fb81138aeaec630e0c0b0b2aeef3a2397b predict --m 34
4b489a60a4f00480ff6c3d325de7c12a4b9a5713c9628e1d30eb23bfd4e51803 predict --m 35
91b360d9293f170f9c964a9918c065a12a5a3ba1384b7dfdffb09fc9ebc2f88f predict --m 36
082f3b1c53cb883c06b06e08eba1c8154726446349c24541af9f303d6aca35d9 predict --m 37
dfdb5783d7c95671c410d0d73c2b13e22e761881e9252a5ffb3b71e999fc0f31 predict --m 38
92f0fb7b6655d4820e281edf038521b61d798ab120fa10baf76789c0266256f6 predict --m 39
532737de5211adadd5791f9e4167dbb64860be910efd5998ba8d9459df282ea1 predict --m 10 --a 1/3 --b 7/2 --doubled-transfer
4513135e984ca08538977117a0f2029c0dba63c32cc20953101f6e004f9244ce predict --m 0
"""


def test_outputs_match_pinned_digests():
    """Refactors keep every byte the CLI writes, and its exit codes."""
    pinned = dict(reversed(line.split(" ", 1)) for line in PINNED_DIGESTS.strip().splitlines())
    changed = []
    for argv in pinned_invocations():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        record = json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode()
        if hashlib.sha256(record).hexdigest() != pinned.pop(" ".join(argv)):
            changed.append(" ".join(argv))
    assert changed == [] and pinned == {}


# Each command's flags, with values it accepts (None marks a switch); --out
# is left out so that no example writes a file.  Sizes stay small: verify
# --n <= 16, bench-fft --n <= 64, bench-slide <= 4 PEs x 3 elements; the
# flags of REQUIRED are always given, so no default size runs.  AWKWARD
# values are the ones a flag's parser must reject or survive.
RATIONALS = ["1/3", "7/2", "1e300", "1e-300", "1e400", "1e-400", "1e999999999",
             "-1e999999999"]
FLAGS = {
    "verify": {"--n": ["2", "16"], "--seed": ["7"]},
    "bench-slide": {"--pes": ["1", "4", "2,4"], "--elements": ["1", "1..3"],
                    "--element-bits": ["32", "64"], "--preset": ["pure-packet"],
                    "--csv": None},
    "bench-fft": {"--n": ["4", "64"], "--k": ["0..6", "3"], "--element-bits": ["32", "64"],
                  "--seed": ["7"], "--preset": ["pure-packet"], "--b": RATIONALS,
                  "--doubled-transfer": None, "--dump-ledger": None, "--csv": None},
    "predict": {"--n": ["64"], "--m": ["3", "17", "10000000000"], "--a": RATIONALS,
                "--b": RATIONALS, "--doubled-transfer": None},
}
REQUIRED = {"verify": ["--n"], "bench-slide": ["--pes", "--elements"],
            "bench-fft": ["--n"], "predict": []}
AWKWARD = ["0", "-1", "1/0", "1e400", "1e-400", "nan", "4..2", "1,,2", "x"]
# Config values as JSON text: wrong types, huge and tiny numbers.
CONFIG_VALUES = ["0", "-1", "3", "0.3", "1e300", "1e-300", "1e400", "1e-400",
                 "1000000000000000000000000000000", '"8,16"', '"x"', "[1, 2]", "[]",
                 "true", "null", "{}"]


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    awkward = draw(st.sampled_from([None, *flags]))    # at most one flag gets an AWKWARD value
    argv = [command]
    for flag, values in flags.items():
        if flag in REQUIRED[command] or flag == awkward or draw(st.booleans()):
            argv.append(flag)
            if values is not None:
                argv.append(draw(st.sampled_from(AWKWARD if flag == awkward else values)))
    keys = sorted(flag[2:] for flag in flags) + ["unknown"]
    entries = st.tuples(st.sampled_from(keys), st.sampled_from(CONFIG_VALUES))
    config = draw(st.none()
                  | st.lists(entries, max_size=3).map(
                      lambda pairs: "{" + ", ".join(f'"{k}": {v}' for k, v in pairs) + "}")
                  | st.sampled_from(["[]", '"x"', "{"]))
    return argv, config


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_cli_fuzz_ends_in_an_exit_code(invocation):
    argv, config = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "settings.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config)
            argv = argv + ["--config", path]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_results_reproduce(capsys):
    """The results README.md shows come out of main: predict's report at
    m = 17, and bench-slide's exact cycles per element at the E it names."""
    text = README.read_text(encoding="utf-8")
    shown = re.search(r"```sh\n\$ slidefft predict --m 17\n(.*?)```", text, re.S).group(1)
    assert run(capsys, "predict", "--m", "17") == (EXIT_OK, shown, "")
    quoted = re.search(r"at `E = (\d+)` it is exactly\s+`(\d+/\d+) = ([\d.]+)`", text)
    elements, exact, decimal = quoted.groups()
    code, out, _ = run(capsys, "bench-slide", "--pes", "8", "--elements", elements, "--csv")
    row = dict(zip(CSV_HEADER.split(","), out.splitlines()[1].split(",")))
    assert code == EXIT_OK
    assert Fraction(row["total_cycles"]) / int(row["total_elements"]) == Fraction(exact)
    assert float(row["cycles_per_element"]) == float(decimal) == float(Fraction(exact))


@pytest.mark.parametrize("fault,n,what", [
    ("slide_fft", 4, "differs from serial transform"),
    ("flops_per_transform", 2, "booked 10 FLOPs"),
    ("transfer_budget", 2, "transfer budget mismatch"),
])
def test_verify_names_the_first_wave_run_at_fault(monkeypatch, fault, n, what):
    """The wave suite names the first run at fault and runs no wave after
    it, while the other suites still cover every size."""
    runs = []

    def distribute(x, layout, mesh):
        runs.append((layout.n, layout.k))
        return wave.distribute(x, layout, mesh)

    def slide_fft(mesh, layout):
        spectrum = wave.slide_fft(mesh, layout)
        return spectrum + (layout.n == 4)

    def flops_per_transform(n):
        return 0

    def transfer_budget(layout):
        return replace(wave.transfer_budget(layout), elements_moved=-1)

    monkeypatch.setattr(cli, "distribute", distribute)
    monkeypatch.setattr(cli, fault, locals()[fault])
    passed, lines = cli.run_verify(16, 0)
    assert not passed
    assert lines[3] == f"FAIL wave-vs-oracle (n={n} k=0: {what})"
    assert [line.split()[0] for line in lines] == ["PASS", "PASS", "PASS", "FAIL", "PASS"]
    assert runs[-1] == (n, 0)
    assert "sizes 2..16" in lines[0]
