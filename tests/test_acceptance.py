"""Acceptance gate: the eight headline checks, one visible line each.

Each test prints "[PASS] criterion N: ..." (or FAIL) straight to the
terminal, bypassing capture, then asserts.  Unit-level detail lives in the
sibling test modules; this file pins the numbers that define done.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from slidefft.cli import bench_slide_records, records_to_csv
from slidefft.mesh import CapacityExceeded, MeshConfig, SlideDescriptor, mesh_create, preset_config
from slidefft.model import CostModel, check_margin, predict_efficiency, reconcile
from slidefft.serial import bit_reverse_index, build_permutation, dft_oracle, fft_serial, ifft_serial
from slidefft.wave import distribute, measure_efficiency, min_feasible_k, plan_wave, slide_fft

SEED = 20260821
_shared = {}


def announce(capsys, number, passed, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def batch(seed, count, n):
    rows = []
    for s in range(seed, seed + count):
        rng = np.random.default_rng(s)
        rows.append(rng.random(n) + 1j * rng.random(n))
    return np.stack(rows)


def rel_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_criterion_1_permutation_ground_truth(capsys):
    ok = build_permutation(3).final_row.tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    for m in range(1, 11):
        expect = [bit_reverse_index(i, m) for i in range(1 << m)]
        ok = ok and build_permutation(m).final_row.tolist() == expect
    announce(capsys, 1, ok,
             "final permutation row [0,4,2,6,1,5,3,7]; bit-reversal oracle m <= 10")


def test_criterion_2_oracle_equivalence(capsys):
    started = time.perf_counter()
    inputs_per_size = 100
    worst = 0.0
    runs = 0
    flop_checks = []
    ok = True
    for m in range(1, 13):
        n = 1 << m
        x = batch(SEED, inputs_per_size, n)
        oracle = dft_oracle(x)
        serial = fft_serial(x)
        worst = max(worst, rel_error(serial, oracle))
        kmin = min_feasible_k(n, 64, 49152)
        reference = None
        for k in range(kmin, m + 1):
            mesh = mesh_create(MeshConfig(rows=1, cols=max(1 << k, 1)))
            layout = plan_wave(n, k, 64, mesh)
            distribute(x, layout, mesh)
            spectrum = slide_fft(mesh, layout)
            runs += 1
            worst = max(worst, rel_error(spectrum, oracle))
            if reference is None:
                reference = spectrum
            elif not np.array_equal(spectrum, reference):
                ok = False
            flop_checks.append((n, m, k, mesh.ledger_report().flops))
    elapsed = time.perf_counter() - started
    _shared["flop_checks"] = flop_checks
    ok = ok and worst < 1e-9 and elapsed < 60
    announce(capsys, 2, ok,
             f"serial + {runs} wave runs (all feasible k) vs the exact-index oracle, "
             f"n = 2..4096, {inputs_per_size} inputs each: max rel err "
             f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_flop_accounting(capsys):
    checks = _shared.get("flop_checks")
    assert checks, "criterion 2 must run first"
    bad = [(n, k, flops) for n, m, k, flops in checks if flops != 5 * n * m]
    counter_n = 1 << 6
    from slidefft.serial import FlopCounter
    counter = FlopCounter()
    fft_serial(batch(SEED, 1, counter_n)[0], counter)
    ok = not bad and counter.flops == 5 * counter_n * 6
    announce(capsys, 3, ok,
             f"booked FLOPs == 5 n log2 n on all {len(checks)} wave runs and serial"
             + (f"; first mismatch {bad[0]}" if bad else ""))


def test_criterion_4_slide_linear_scaling(capsys):
    element_counts = list(range(1, 501))
    by_pe = {}
    for pes in (8, 16, 32):
        records = bench_slide_records([pes], element_counts, 32, MeshConfig())
        by_pe[pes] = records
    # (i) affine fit, per PE count
    min_r2 = 1.0
    for pes, records in by_pe.items():
        e = np.array(element_counts, float)
        y = np.array([float(r.total_cycles) for r in records])
        slope, intercept = np.polyfit(e, y, 1)
        fit = slope * e + intercept
        ss_res = float(np.sum((y - fit) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        min_r2 = min(min_r2, 1 - ss_res / ss_tot)
    # (ii) asymptote
    tail = {pes: records[-1].cycles_per_element for pes, records in by_pe.items()}
    near_limit = all(abs(cpe - Fraction(13, 10)) / Fraction(13, 10) < Fraction(1, 100)
                     for cpe in tail.values())
    # (iii) pointwise agreement across PE counts, within one cycle per slide
    agree = True
    for i, count in enumerate(element_counts):
        cpes = [by_pe[pes][i].cycles_per_element for pes in (8, 16, 32)]
        agree = agree and max(cpes) - min(cpes) <= Fraction(1, count)
    ok = min_r2 > 0.9999 and near_limit and agree
    announce(capsys, 4, ok,
             f"affine R^2 >= {min_r2:.6f}; cycles/element at E=500 = "
             f"{float(tail[8]):.4f} (within 1% of 1.3); curves for 8/16/32 PEs "
             f"agree within rounding")


def test_criterion_5_efficiency_model(capsys):
    report = predict_efficiency(CostModel(a=2, b=3), 1 << 17, 17)
    margin = check_margin(CostModel(a=2, b=3), 17)
    ok = (report.eta == Fraction(255, 257)
          and margin.margin == Fraction(2, 255)
          and margin.margin < Fraction(1, 20)
          and margin.passed)
    announce(capsys, 5, ok,
             f"eta(a=2, b=3, m=17) = {report.eta} exactly; "
             f"margin {margin.margin} < 0.05")


def test_criterion_6_reconciliation(capsys):
    n, m = 1 << 10, 10
    model = CostModel(a=2, b=3)
    predicted = predict_efficiency(model, n, m)
    x = batch(SEED, 1, n)[0]
    worst = Fraction(0)
    for k in range(3, 11):
        mesh = mesh_create(MeshConfig(rows=1, cols=1 << k))
        layout = plan_wave(n, k, 64, mesh)
        distribute(x, layout, mesh)
        slide_fft(mesh, layout)
        deviation = reconcile(predicted, measure_efficiency(mesh.ledger_report()))
        worst = max(worst, deviation)
    calibrated_ok = worst < Fraction(1, 20)

    deviations = []
    for mm in (8, 10, 12):
        nn = 1 << mm
        xx = batch(SEED + 1, 1, nn)[0]
        mesh = mesh_create(preset_config("pure-packet", rows=1, cols=16))
        layout = plan_wave(nn, 4, 64, mesh)
        distribute(xx, layout, mesh)
        slide_fft(mesh, layout)
        deviations.append(reconcile(predict_efficiency(model, nn, mm),
                                    measure_efficiency(mesh.ledger_report())))
    shrinking = all(a > b for a, b in zip(deviations, deviations[1:]))
    ok = calibrated_ok and shrinking
    announce(capsys, 6, ok,
             f"defaults k=3..10 max deviation {float(worst):.4f} < 0.05; "
             f"pure-packet deviation shrinks with density: "
             + " > ".join(f"{float(d):.4f}" for d in deviations))


def test_criterion_7_throughput_scaling(capsys):
    n = 1 << 10
    x = batch(SEED, 1, n)[0]
    walls = []
    for k in range(0, 11):
        mesh = mesh_create(preset_config("pure-packet", rows=1,
                                         cols=max(1 << k, 1)))
        layout = plan_wave(n, k, 64, mesh)
        distribute(x, layout, mesh)
        slide_fft(mesh, layout)
        walls.append(mesh.wall_clock_cycles)
    ok = all(a > b for a, b in zip(walls, walls[1:]))
    announce(capsys, 7, ok,
             f"pure-packet wall clock strictly falls over k=0..10: "
             f"{walls[0]} -> {walls[-1]}")


def test_criterion_8_property_suites(capsys):
    checks = {}

    x = batch(SEED, 4, 256)
    X = fft_serial(x)
    energy_ratio = np.sum(np.abs(X) ** 2, axis=-1) / np.sum(np.abs(x) ** 2, axis=-1)
    checks["parseval"] = bool(np.max(np.abs(energy_ratio - 256) / 256) < 1e-12)

    y = batch(SEED + 7, 4, 256)
    checks["linearity"] = bool(np.max(np.abs(
        fft_serial(3 * x - 2j * y) - (3 * X - 2j * fft_serial(y)))) < 1e-9)

    checks["round-trip"] = bool(np.max(np.abs(ifft_serial(X) - x)) < 1e-12)

    mesh = mesh_create(MeshConfig(rows=1, cols=3))
    block = batch(SEED, 1, 32)[0]
    mesh.pe_store((0, 0), "w", block, element_bits=64)
    mesh.slide_phase([SlideDescriptor(row=0, col_start=0, col_stop=1, name="w",
                                      displacement=(0, 2))])
    checks["slide-conservation"] = bool(
        np.array_equal(mesh.pe_fetch((0, 2), "w"), block))

    try:
        over = mesh_create(MeshConfig(rows=1, cols=1))
        over.pe_store((0, 0), "big", bytes(49153))
        checks["capacity"] = False
    except CapacityExceeded:
        checks["capacity"] = True

    first = records_to_csv(bench_slide_records([8, 16], list(range(1, 50)),
                                               32, MeshConfig()))
    second = records_to_csv(bench_slide_records([8, 16], list(range(1, 50)),
                                                32, MeshConfig()))
    checks["csv-determinism"] = first == second

    def ledger_snapshot():
        mesh = mesh_create(MeshConfig(rows=1, cols=4))
        layout = plan_wave(64, 2, 64, mesh)
        distribute(batch(SEED, 1, 64)[0], layout, mesh)
        slide_fft(mesh, layout)
        return mesh.ledger_report(), mesh.wall_clock_cycles

    checks["ledger-determinism"] = ledger_snapshot() == ledger_snapshot()

    failed = [name for name, passed in checks.items() if not passed]
    announce(capsys, 8, not failed,
             "properties: " + ", ".join(checks) + (f"; FAILED {failed}" if failed else ""))
