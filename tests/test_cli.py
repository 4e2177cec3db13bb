"""Command-line behavior: CSV contract, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
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
from slidefft.mesh import Mesh, MeshConfig
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
])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command, settings):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps(settings))
    code, out, err = run(capsys, command, "--config", str(config), "--csv")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: config key")


def test_config_b_matches_flag_b(tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"b": 0.3}))
    _, from_config, _ = run(capsys, "predict", "--m", "10", "--config", str(config))
    _, from_flag, _ = run(capsys, "predict", "--m", "10", "--b", "0.3")
    assert "b = 3/10" in from_flag
    assert from_config == from_flag
    fft = ("bench-fft", "--n", "64", "--k", "3", "--csv")
    assert run(capsys, *fft, "--config", str(config))[1] == run(capsys, *fft, "--b", "0.3")[1]


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "1"),
    ("bench-slide", "--elements", "0"),
    ("predict", "--m", "3", "--a", "1e400"),
    ("predict", "--m", "3", "--b", "1e-400"),
    ("bench-fft", "--n", "4", "--k", "0..2", "--b", "1e-400"),
])
def test_degenerate_sizes_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and err.startswith("error:")


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
