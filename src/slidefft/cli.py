"""Benchmark and verification command line: verify, bench-slide, bench-fft, predict.

Benchmark subcommands emit CSV, one column per field of :class:`BenchRecord`
in declaration order (``CSV_HEADER``), to --out or standard output, plus a
short human-readable summary on standard error.  All randomness flows from
one 64-bit --seed through numpy's default PCG64 generator, inputs drawn
uniformly from the complex unit square [0,1) x [0,1); repeated runs with the
same arguments produce byte-identical CSV.

Exit statuses: 0 success, 1 verification failure, 2 usage error,
3 capacity infeasibility.

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless it is set
already, so numpy, loaded after it, runs BLAS on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

# Before numpy loads: the command's only BLAS calls, dft_oracle's two matrix
# products, are too small to gain from a second thread, and an idle OpenBLAS
# worker spins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .mesh import (CapacityExceeded, MeshConfig, PRESETS, SlideDescriptor, mesh_create,
                   preset_config)
from .model import CostModel, check_margin, flops_per_transform, predict_efficiency, reconcile
from .serial import bit_reverse_index, build_permutation, dft_oracle, fft_serial, log2_exact
from .wave import (distribute, measure_efficiency, min_feasible_k, plan_wave,
                   slide_fft, transfer_budget)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


# -------------------- argument parsing helpers --------------------


def parse_power_of_two(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1 or (value & (value - 1)) != 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a power of two")
    return value


def power_of_two_at_most(limit: int):
    """A flag parser taking powers of two up to ``limit``."""
    largest = 1 << (limit.bit_length() - 1)

    def parse(text: str) -> int:
        value = parse_power_of_two(text)
        if value > largest:
            raise argparse.ArgumentTypeError(f"{text!r} is larger than {largest}, "
                                             "the largest size this command takes")
        return value
    return parse


def parse_seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


# Checked before Fraction builds 10**exponent, predict builds 2**m or an
# integer list is built.  By default Python turns no integer of over 4300
# digits into text; MAX_LEVELS is the largest m whose FLOP count
# 5 * m * 2**m, the longest number predict prints, has no more.
MAX_EXPONENT = 4300
MAX_LEVELS = 14268
MAX_LIST_VALUES = 1 << 16
# The most elements one array of a run may hold, checked before it is
# built: a transform's points (verify: its batch of VERIFY_SEEDS
# transforms), or bench-slide's PEs times elements per PE.  2**22 complex
# values take 64 MiB.
MAX_ELEMENTS = 1 << 22
VERIFY_SEEDS = 10


def parse_rational(text: str) -> Fraction:
    _, e, exponent = text.lower().partition("e")
    try:
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise argparse.ArgumentTypeError(
                f"{text!r} has a decimal exponent beyond {MAX_EXPONENT} in magnitude")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def parse_cycles_per_flop(text: str) -> Fraction:
    """--b: the model divides by it, so it must be positive."""
    value = parse_rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("cycles per FLOP must be positive")
    return value


def parse_int_list(text: str) -> list[int]:
    """Comma list and/or inclusive ranges: '8,16,32', '1..500', '0..4,8'."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad range {part!r}") from None
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {part!r}")
        elif part:
            try:
                lo = hi = int(part)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad integer {part!r}") from None
        else:
            continue
        if len(out) + hi - lo + 1 > MAX_LIST_VALUES:
            raise argparse.ArgumentTypeError(f"{text!r} lists more than {MAX_LIST_VALUES} values")
        out.extend(range(lo, hi + 1))
    if not out:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return out


def random_batch(seed: int, count: int, n: int) -> np.ndarray:
    """(count, n) complex inputs, one PCG64 stream per consecutive seed: row
    i is ``rng.random(n) + 1j * rng.random(n)`` for
    ``rng = np.random.default_rng(seed + i)``.  Each row's real and then
    imaginary part is filled in place from one ``rng.random(n)``: beside
    the batch only that draw is built, never the formula's complex
    temporaries."""
    batch = np.empty((count, n), np.complex128)
    for row, s in zip(batch, range(seed, seed + count)):
        rng = np.random.default_rng(s)
        row.real = rng.random(n)
        row.imag = rng.random(n)
    return batch


# -------------------- records and CSV --------------------


def _decimal(value, name: str, spec: str = ".6f") -> str:
    """``value`` as a float in format ``spec``.  A value past the float range
    is a usage error that names it, not Python's OverflowError."""
    try:
        return format(float(value), spec)
    except OverflowError:
        raise ValueError(f"{name} exceeds {sys.float_info.max:g}, the largest float") from None


def _integer(value, name: str) -> str:
    """An exact number, an int or a Fraction, as str.  One whose numerator
    or denominator has over MAX_EXPONENT digits, which Python will not
    print, is a usage error that names it."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(f"{name} has over {MAX_EXPONENT} digits to print") from None


def _fmt_cycles(value, name: str) -> str:
    frac = Fraction(value)
    if frac.denominator == 1:
        return _integer(frac.numerator, name)
    return _decimal(frac, "a cycle count")


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row: the fields are the columns, formatted by ``fmt`` or
    ``_integer``, each called with the value and the column's name.  A row
    that ran nothing, or nothing of a kind, keeps the zero defaults."""

    pe_count: int
    elements_per_pe: int
    total_elements: int
    total_cycles: Fraction | int = field(default=0, metadata={"fmt": _fmt_cycles})
    cycles_per_element: Fraction | int = field(default=0, metadata={"fmt": _fmt_cycles})
    transfer_cycles: int = 0
    compute_cycles: int = 0
    flops: int = 0
    eta_measured: Fraction | float = field(default=0.0, metadata={"fmt": _decimal})
    eta_predicted: Fraction | float = field(default=0.0, metadata={"fmt": _decimal})
    status: str = "ok"


_COLUMNS = [(f.name, f.metadata.get("fmt", _integer)) for f in fields(BenchRecord)]
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def record_row(r: BenchRecord) -> str:
    return ",".join(fmt(getattr(r, name), name) for name, fmt in _COLUMNS)


def records_to_csv(records: list[BenchRecord]) -> str:
    return "\n".join([CSV_HEADER] + [record_row(r) for r in records]) + "\n"


# -------------------- bench-slide --------------------


def bench_slide_records(pe_counts: list[int], element_counts: list[int],
                        element_bits: int, config: MeshConfig) -> list[BenchRecord]:
    """One single-hop slide per (pe_count, elements_per_pe) pair, each on a
    one-row mesh of ``config``'s costs and pe_count + 1 columns.

    The wave's PEs shift one neighbor to the right in lockstep, so the phase
    wall clock is one PE's time and every PE is busy for all of it:
    total_cycles = pe_count * wall clock, kept as an exact rational so
    cycles/element decays smoothly toward the per-element transfer cost.
    A slide's cost depends on block sizes alone, so the blocks hold zeros.
    """
    if min(pe_counts) < 1 or min(element_counts) < 1:
        raise ValueError("PE and element counts must be at least 1")
    if max(pe_counts) * max(element_counts) > MAX_ELEMENTS:
        raise ValueError(f"{max(pe_counts)} PEs of {max(element_counts)} elements hold more "
                         f"than {MAX_ELEMENTS} elements")
    records = []
    for pes in sorted(set(pe_counts)):
        for count in sorted(set(element_counts)):
            shape = BenchRecord(pes, count, pes * count)
            mesh = mesh_create(replace(config, rows=1, cols=pes + 1))
            try:
                mesh.pe_store((0, 0), "block", np.zeros(shape.total_elements),
                              element_bits=element_bits, pes=pes)
            except CapacityExceeded:
                records.append(replace(shape, status="capacity_exceeded"))
                continue
            report = mesh.slide_phase([SlideDescriptor(
                row=0, col_start=0, col_stop=pes, name="block", displacement=(0, 1))])
            ledger = mesh.ledger_report()
            total = pes * report.exact_cycles
            records.append(replace(
                shape,
                total_cycles=total,
                cycles_per_element=total / shape.total_elements,
                transfer_cycles=ledger.transfer_cycles,
            ))
    return records


# -------------------- bench-fft --------------------


def bench_fft_records(n: int, k_values: list[int], element_bits: int,
                      config: MeshConfig, doubled_transfer: bool = False,
                      seed: int = 0) -> tuple[list[BenchRecord], list[str], list]:
    """One distributed transform per distinct wave length k, on a one-row
    mesh of ``config``'s costs and 2**k columns.

    total_cycles is the run's wall clock (compute and slide phases end to
    end); eta compares the ledger's compute share against the closed-form
    prediction, which does not depend on k.  The prediction takes the mesh's
    own costs: a is its cycles per element per hop, b its cycles per FLOP.
    Every feasible k draws the same input from ``seed``.
    """
    m = log2_exact(n)
    k_values = sorted(set(k_values))
    for k in k_values:      # every k, before the first mesh is built
        if not 0 <= k <= m:
            raise ValueError(f"k={k} outside 0..{m} for n={n}")
    model = CostModel(config.element_cost(element_bits), config.cycles_per_flop, doubled_transfer)
    predicted = predict_efficiency(model, n, m)
    infeasible = None    # the CapacityExceeded of an infeasible k, if any
    records, notes, ledgers = [], [], []
    for k in k_values:
        shape = BenchRecord(1 << k, n >> k, n, eta_predicted=predicted.eta)
        mesh = mesh_create(replace(config, rows=1, cols=1 << k))
        try:
            layout = plan_wave(n, k, element_bits, mesh)
        except CapacityExceeded as exc:
            infeasible = exc
            records.append(replace(shape, status="infeasible"))
            continue
        distribute(random_batch(seed, 1, n)[0], layout, mesh)
        slide_fft(mesh, layout)
        ledger = mesh.ledger_report()
        measured = measure_efficiency(ledger)
        budget = transfer_budget(layout)
        records.append(replace(
            shape,
            total_cycles=mesh.wall_clock_cycles,
            cycles_per_element=Fraction(mesh.wall_clock_cycles, n),
            transfer_cycles=ledger.transfer_cycles,
            compute_cycles=ledger.compute_cycles,
            flops=ledger.flops,
            eta_measured=measured.eta,
        ))
        ledgers.append((k, ledger, mesh.wall_clock_cycles))
        notes.append(
            f"k={k}: moved {ledger.elements_moved} elements "
            f"(budget {budget.elements_moved}), deviation "
            f"{_decimal(reconcile(predicted, measured), f'the deviation at k={k}', '.4f')}"
        )
    if infeasible is not None:
        kmin = infeasible.min_feasible_k
        notes.append(f"minimal feasible k: {kmin}" if kmin is not None
                     else "no feasible k for this size and memory")
    return records, notes, ledgers


# -------------------- verify --------------------


def _rel_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.max(np.abs(want))
    if scale == 0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want)) / scale)


def run_verify(max_n: int, seed: int) -> tuple[bool, list[str]]:
    """Run the verification suites: whether every suite passed, and one
    pass/fail line per suite."""
    if max_n < 2:
        raise ValueError(f"verify needs n >= 2, got {max_n}")
    sizes = [1 << m for m in range(1, log2_exact(max_n) + 1)]
    lines: list[str] = []

    def suite(name: str, passed: bool, detail: str) -> None:
        lines.append(f"{'PASS' if passed else 'FAIL'} {name} ({detail})")

    # One pass: each size's batch and serial spectrum feed the serial,
    # Parseval and wave suites, which keep running maxima and print after.
    # Every wave run must equal the serial spectrum bit for bit, so its
    # oracle error is the serial one; detail names the first run at fault.
    serial_worst = parseval_worst = 0.0
    detail = ""
    for m, n in enumerate(sizes, start=1):
        x = random_batch(seed, VERIFY_SEEDS, n)
        reference = fft_serial(x)
        serial_worst = max(serial_worst, _rel_error(reference, dft_oracle(x)))
        energy_t = np.sum(np.abs(x) ** 2, axis=-1)
        energy_f = np.sum(np.abs(reference) ** 2, axis=-1)
        parseval_worst = max(parseval_worst,
                             float(np.max(np.abs(energy_f - n * energy_t) / (n * energy_t))))
        for k in range(min_feasible_k(n, 64, MeshConfig.local_memory_bytes), m + 1):
            if detail:
                break
            mesh = mesh_create(preset_config("cs2-calibrated", rows=1, cols=1 << k))
            layout = plan_wave(n, k, 64, mesh)
            distribute(x, layout, mesh)
            exact = np.array_equal(slide_fft(mesh, layout), reference)
            ledger = mesh.ledger_report()
            if not exact:
                detail = f"n={n} k={k}: differs from serial transform"
            elif ledger.flops != flops_per_transform(n):
                detail = f"n={n} k={k}: booked {ledger.flops} FLOPs"
            elif ledger.elements_moved != transfer_budget(layout).elements_moved:
                detail = f"n={n} k={k}: transfer budget mismatch"
            del mesh        # its planes go before the next size's oracle runs

    suite("serial-vs-oracle", serial_worst < 1e-12,
          f"sizes 2..{sizes[-1]}, {VERIFY_SEEDS} seeds, max rel err {serial_worst:.2e}")
    suite("parseval", parseval_worst < 1e-9, f"max rel err {parseval_worst:.2e}")

    perm_ok = True
    for m in range(1, 11):
        table = build_permutation(m)
        expect = np.array([bit_reverse_index(i, m) for i in range(1 << m)])
        perm_ok &= bool(np.array_equal(table.final_row, expect))
        perm_ok &= bool(np.array_equal(table.final_row[table.final_row], np.arange(1 << m)))
    suite("permutation-vs-bit-reversal", perm_ok, "m = 1..10, involution included")

    suite("wave-vs-oracle", not detail and serial_worst < 1e-12,
          detail or f"all feasible k, bit-exact across k, max rel err {serial_worst:.2e}")

    impulse = np.zeros(8)
    impulse[0] = 1.0
    spectrum = fft_serial(impulse)
    flat = " ".join(f"{v.real:g}" for v in spectrum)
    suite("impulse-smoke", bool(np.array_equal(spectrum, np.ones(8, dtype=complex))),
          f"n=8 impulse spectrum: {flat}")

    return all(line.startswith("PASS") for line in lines), lines


# -------------------- predict --------------------


def run_predict(cost_model: CostModel, m: int) -> list[str]:
    """The lines of the closed-form report on a 2**m-point transform.  a, b
    and eta print as exact fractions through ``_integer``, decimals through
    ``_decimal``; each raises ValueError naming a value it cannot print."""
    n = 1 << m
    report = predict_efficiency(cost_model, n, m)
    margin = check_margin(cost_model, m)
    costs = f"a = {_integer(cost_model.a, 'a')}  b = {_integer(cost_model.b, 'b')}"
    eta = _integer(report.eta, "eta")
    return [costs + ("  (doubled transfer)" if cost_model.doubled_transfer else ""),
            f"m = {m}  n = {n}",
            f"alpha          = {_decimal(report.alpha, 'alpha')}",
            f"eta            = {_decimal(report.eta, 'eta')}  ({eta})",
            f"eta (1st ord)  = {_decimal(report.eta_first_order, 'eta (1st ord)')}",
            f"margin         = {_decimal(margin.margin, 'margin')}  "
            f"({'ok' if margin.passed else 'EXCEEDS'} threshold "
            f"{_decimal(margin.threshold, 'threshold', 'g')})",
            f"flops          = {report.flops}"]


# -------------------- wiring --------------------

# Flags that a config file cannot set.
_FLAG_ONLY = {"help", "config", "csv", "dump_ledger"}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers, by command name."""
    parser = argparse.ArgumentParser(
        prog="slidefft",
        description="Cycle-accounted FFT-on-a-mesh simulator and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that several commands take; each command names the ones it takes.
    shared = {
        "--seed": dict(type=parse_seed, default=0,
                       help="64-bit seed for all random inputs (default 0)"),
        "--out": dict(default=None, help="write CSV/report here instead of stdout"),
        "--preset": dict(choices=sorted(PRESETS), default="cs2-calibrated",
                         help="cost preset (default cs2-calibrated)"),
        "--csv": dict(action="store_true", help="suppress the human summary on stderr"),
        "--config": dict(default=None,
                         help="JSON file of defaults mirroring the flags; flags win"),
        "--b": dict(type=parse_cycles_per_flop, default=MeshConfig.cycles_per_flop,
                    help="cycles per FLOP, for the model and bench-fft's mesh "
                         "(default %(default)s)"),
        "--doubled-transfer": dict(action="store_true",
                                   help="charge the transfer term twice in the prediction"),
    }

    def command(name: str, summary: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    p = command("verify", "run the self-check suites", "--seed", "--out", "--config")
    p.add_argument("--n", type=power_of_two_at_most(MAX_ELEMENTS // VERIFY_SEEDS), default=1024,
                   help="largest transform size to check (default 1024)")

    p = command("bench-slide", "cost of single one-hop slides",
                "--out", "--preset", "--csv", "--config")
    p.add_argument("--pes", type=parse_int_list, default=[8, 16, 32],
                   help="comma list of PE counts (default 8,16,32)")
    p.add_argument("--elements", type=parse_int_list, default=list(range(1, 501)),
                   help="elements per PE, e.g. 1..500 (default)")
    p.add_argument("--element-bits", type=int, choices=(32, 64), default=32,
                   help="element size on the wire (default 32)")

    p = command("bench-fft", "distributed transform across wave lengths",
                "--seed", "--out", "--preset", "--csv", "--config", "--b", "--doubled-transfer")
    p.add_argument("--n", type=power_of_two_at_most(MAX_ELEMENTS), default=1024,
                   help="transform size (default 1024)")
    p.add_argument("--k", type=parse_int_list, default=None,
                   help="wave lengths log2(PEs), e.g. 0..10 (default all)")
    p.add_argument("--element-bits", type=int, choices=(32, 64), default=64,
                   help="datum size on the wire (default 64)")
    p.add_argument("--dump-ledger", action="store_true",
                   help="print each run's ledger as key=value lines on stderr")

    p = command("predict", "closed-form efficiency prediction", "--out", "--config",
                "--b", "--doubled-transfer")
    p.add_argument("--a", type=parse_rational, default=CostModel.a,
                   help="model transfer cycles per datum (default %(default)s)")
    p.add_argument("--n", type=parse_power_of_two, default=None,
                   help="transform size 2**m")
    p.add_argument("--m", type=int, default=None, help="number of levels log2(n)")

    return parser, sub.choices


def _config_value(action: argparse.Action, value):
    """Parse one config value with its flag's own type and choices.

    Switches take true or false and plain-text flags take strings.  Flags
    with a parser take a number, or a list of JSON integers (not bools) for
    list flags, read as the flag's text, so 0.3 means 3/10.
    """
    text = value
    if action.nargs == 0:
        fits = isinstance(value, bool)
    elif action.type is None:
        fits = isinstance(value, str)
    elif isinstance(value, list):
        fits = action.type is parse_int_list and all(type(v) is int for v in value)
        text = ",".join(map(str, value))
    else:
        fits, text = type(value) in (int, float), str(value)
    if not fits:
        raise ValueError(f"config key {action.dest!r} cannot take {json.dumps(value)}")
    try:
        parsed = action.type(text) if action.type else text
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise ValueError(f"config key {action.dest!r}: {exc}") from None
    if action.choices is not None and parsed not in action.choices:
        raise ValueError(f"config key {action.dest!r}: {parsed!r} is not one of "
                         f"{', '.join(map(str, action.choices))}")
    return parsed


def _config_defaults(path: str, command: argparse.ArgumentParser) -> dict:
    """The config file's values for the flags ``command`` knows; other keys
    are ignored."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    data = {k.replace("-", "_"): v for k, v in data.items()}
    return {action.dest: _config_value(action, data[action.dest])
            for action in command._actions
            if action.dest in data and action.dest not in _FLAG_ONLY}


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.config:
            # Config values become the subcommand's defaults, so flags win.
            command = commands[args.command]
            command.set_defaults(**_config_defaults(args.config, command))
            args = parser.parse_args(argv)

        if args.command == "verify":
            passed, lines = run_verify(args.n, args.seed)
            _emit(args, "\n".join(lines) + "\n")
            return EXIT_OK if passed else EXIT_VERIFY_FAILED

        if args.command == "predict":
            m, n = args.m, args.n
            if m is None and n is None:
                raise ValueError("predict needs --m or --n")
            if m is None:
                m = log2_exact(n)
            if m < 1:
                raise ValueError("need at least one level (m >= 1)")
            if m > MAX_LEVELS:
                raise ValueError(f"--m {m} exceeds {MAX_LEVELS} levels")
            if n is not None and n != (1 << m):
                raise ValueError(f"--n {n} and --m {m} disagree")
            lines = run_predict(CostModel(args.a, args.b, args.doubled_transfer), m)
            _emit(args, "\n".join(lines) + "\n")
            return EXIT_OK

        # bench-slide or bench-fft: argparse admits no other command.
        if args.command == "bench-slide":
            records = bench_slide_records(args.pes, args.elements, args.element_bits,
                                          preset_config(args.preset))
            summary = [f"bench-slide: {len(records)} rows, "
                       f"pe counts {args.pes}, element bits {args.element_bits}"]
        else:
            k_values = args.k if args.k is not None else list(range(args.n.bit_length()))
            config = preset_config(args.preset, cycles_per_flop=args.b)
            records, notes, ledgers = bench_fft_records(
                args.n, k_values, args.element_bits, config, args.doubled_transfer, args.seed)
            summary = [f"bench-fft: n={args.n}, k in {k_values}"] + notes
        # The CSV first: it holds every count of a ledger that --b can make
        # too long to print, and names it.
        text = records_to_csv(records)
        if args.csv:
            summary = []
        if args.command == "bench-fft" and args.dump_ledger:
            for k, ledger, wall in ledgers:
                summary += [f"# ledger k={k}", ledger.dump(), f"wall_clock_cycles={wall}"]
        _emit(args, text)
        if summary:
            print("\n".join(summary), file=sys.stderr)
        return EXIT_OK if any(r.status == "ok" for r in records) else EXIT_INFEASIBLE
    except CapacityExceeded as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
