"""Distributed transform: wave planning, sliding levels, efficiency accounting."""

import json
import math
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slidefft.wave as wave
from slidefft.mesh import (CapacityExceeded, CycleLedger, MeshConfig,
                           OffGridError, mesh_create, preset_config)
from slidefft.model import CostModel, flops_per_transform, predict_efficiency, reconcile
from slidefft.serial import build_permutation, dft_oracle, fft_serial
from slidefft.wave import (distribute, gather, level_plan, measure_efficiency,
                           min_feasible_k, plan_wave, slide_fft, transfer_budget)


def wave_mesh(k, **overrides):
    return mesh_create(MeshConfig(rows=1, cols=max(1 << k, 1), **overrides))


def run_wave(x, k, element_bits=64, mesh=None, midpoint=False, origin=(0, 0)):
    n = x.shape[-1]
    mesh = mesh or wave_mesh(k)
    layout = plan_wave(n, k, element_bits, mesh, origin=origin)
    distribute(x, layout, mesh)
    spectrum = slide_fft(mesh, layout, midpoint=midpoint)
    return spectrum, mesh


def complex_input(seed, n):
    rng = np.random.default_rng(seed)
    return rng.random(n) + 1j * rng.random(n)


class TestPlanning:
    def test_large_wave_fits_at_k8(self):
        mesh = wave_mesh(8)
        layout = plan_wave(1 << 17, 8, 64, mesh)
        assert layout.elements_per_pe == (1 << 17) >> 8

    def test_whole_problem_on_one_pe_rejected(self):
        """2^17 doubles need a megabyte of headroom; one PE has 48 KiB."""
        with pytest.raises(CapacityExceeded) as info:
            plan_wave(1 << 17, 0, 64, wave_mesh(0))
        assert info.value.min_feasible_k == 6

    def test_no_wave_length_fits(self):
        """3 * 1 * 8 B = 24 B at k = 2, the longest wave, is over 16 B."""
        with pytest.raises(CapacityExceeded, match="no wave length fits") as info:
            plan_wave(4, 2, 64, wave_mesh(2, local_memory_bytes=16))
        assert info.value.min_feasible_k is None

    def test_min_feasible_k(self):
        assert min_feasible_k(1 << 17, 64, 49152) == 6
        assert min_feasible_k(1 << 10, 64, 49152) == 0
        assert min_feasible_k(1 << 10, 64, 16) is None

    @pytest.mark.parametrize("element_bits", [12, 0, -8])
    def test_planning_refuses_what_storage_refuses(self, element_bits):
        mesh = wave_mesh(2)
        with pytest.raises(ValueError) as stored:
            mesh.pe_store((0, 0), "w", np.zeros(4), element_bits=element_bits)
        for plan in (lambda: plan_wave(64, 2, element_bits, mesh),
                     lambda: min_feasible_k(64, element_bits, 49152)):
            with pytest.raises(ValueError) as planned:
                plan()
            assert str(planned.value) == str(stored.value)
        assert [mesh.pe_names((0, c)) for c in range(4)] == [()] * 4

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 9), data=st.data(), element_bits=st.sampled_from([8, 16, 32, 64, 128]),
           blocks=st.sampled_from([2, 3]), slack=st.sampled_from([-1, 0, 1]),
           midpoint=st.booleans())
    def test_every_planned_wave_runs(self, m, data, element_bits, blocks, slack, midpoint):
        """Local memory near the edge of 2 or 3 blocks of some wave length:
        plan_wave takes exactly the k from min_feasible_k up, refusing the
        rest with that k, and every wave it plans stores, slides and merges
        without a capacity trip, to the serial spectrum."""
        n = 1 << m
        k, edge = data.draw(st.integers(0, m)), data.draw(st.integers(0, m))
        memory = blocks * (n >> edge) * element_bits // 8 + slack
        kmin = min_feasible_k(n, element_bits, memory)
        mesh = wave_mesh(k, local_memory_bytes=memory)
        if kmin is None or k < kmin:
            with pytest.raises(CapacityExceeded) as refused:
                plan_wave(n, k, element_bits, mesh)
            assert refused.value.min_feasible_k == kmin
            return
        x = complex_input(m, n)
        spectrum, _ = run_wave(x, k, element_bits, mesh=mesh, midpoint=midpoint)
        np.testing.assert_array_equal(spectrum, fft_serial(x))

    def test_wave_longer_than_mesh(self):
        with pytest.raises(OffGridError):
            plan_wave(64, 3, 64, wave_mesh(2))

    def test_origin_takes_the_meshs_grid_rule(self):
        """The wave's PEs are checked as the mesh checks any PE: a float
        coordinate is refused, and numpy integers plan as plain ints."""
        mesh = mesh_create(MeshConfig(rows=2, cols=4))
        with pytest.raises(TypeError):
            plan_wave(8, 1, 64, mesh, origin=(0.0, 0))
        with pytest.raises(OffGridError):
            plan_wave(8, 1, 64, mesh, origin=(0, 3))
        origin = plan_wave(8, 1, 64, mesh, origin=(np.int64(0), np.int64(1))).origin
        assert origin == (0, 1) and all(type(v) is int for v in origin)

    def test_k_is_a_count(self):
        """A float k is refused by name before anything is planned, and a
        numpy k plans as a plain int."""
        mesh = wave_mesh(2)
        with pytest.raises(TypeError) as refused:
            plan_wave(16, 2.0, 64, mesh)
        assert str(refused.value) == "k must be an integer, not 2.0"
        assert mesh.ledger_report() == CycleLedger() and mesh.pe_names((0, 0)) == ()
        layout = plan_wave(16, np.int64(2), 64, mesh)
        assert type(layout.k) is int and layout.pe_count == 4

    def test_wave_cannot_outnumber_elements(self):
        with pytest.raises(ValueError):
            plan_wave(8, 4, 64, wave_mesh(4))

    def test_level_split_matches_wave_length(self):
        mesh = wave_mesh(2)
        layout = plan_wave(16, 2, 64, mesh)
        levels = level_plan(layout)
        assert [lv.segment_pair for lv in levels] == [2, 4, 8, 16]
        assert [lv.local for lv in levels] == [True, True, False, False]
        assert sum(not lv.local for lv in levels) == layout.k


class TestDistribution:
    def test_single_pe_holds_permuted_input(self):
        x = complex_input(1, 8)
        mesh = wave_mesh(0)
        layout = plan_wave(8, 0, 64, mesh)
        distribute(x, layout, mesh)
        stored = mesh.pe_fetch((0, 0), layout.name)
        np.testing.assert_array_equal(stored, x[[0, 4, 2, 6, 1, 5, 3, 7]])

    def test_fully_spread_wave_one_element_each(self):
        x = complex_input(3, 8)
        mesh = wave_mesh(3)
        layout = plan_wave(8, 3, 64, mesh)
        distribute(x, layout, mesh)
        order = [0, 4, 2, 6, 1, 5, 3, 7]
        for j in range(8):
            np.testing.assert_array_equal(mesh.pe_fetch((0, j), layout.name),
                                          x[[order[j]]])

    def test_quarter_wave_shards(self):
        x = complex_input(2, 16)
        mesh = wave_mesh(2)
        layout = plan_wave(16, 2, 64, mesh)
        distribute(x, layout, mesh)
        np.testing.assert_array_equal(mesh.pe_fetch((0, 0), layout.name),
                                      x[[0, 8, 4, 12]])
        order = build_permutation(4).final_row
        np.testing.assert_array_equal(gather(layout, mesh), x[order])

    @pytest.mark.parametrize("x", [np.complex128(1), np.full(8, np.nan), np.ones(4)],
                             ids=["scalar", "nan", "short"])
    def test_bad_input_is_rejected_before_any_store(self, x):
        mesh = wave_mesh(1)
        layout = plan_wave(8, 1, 64, mesh)
        with pytest.raises(ValueError):
            distribute(x, layout, mesh)
        assert mesh.pe_names((0, 0)) == mesh.pe_names((0, 1)) == ()


class TestTransformAcrossWaveLengths:
    def test_maximal_spread_impulse(self):
        """One element per PE forces a slide at every level."""
        x = np.zeros(8, complex)
        x[0] = 1
        spectrum, mesh = run_wave(x, 3)
        np.testing.assert_array_equal(spectrum, np.ones(8, complex))
        assert mesh.ledger_report().elements_moved == 24

    @pytest.mark.parametrize("m,k", [(3, 0), (3, 1), (3, 3), (4, 2), (5, 2),
                                     (6, 4), (8, 3), (10, 5)])
    def test_matches_serial_and_oracle(self, m, k):
        x = complex_input(10 * m + k, 1 << m)
        spectrum, _ = run_wave(x, k)
        np.testing.assert_array_equal(spectrum, fft_serial(x))
        oracle = dft_oracle(x)
        assert np.max(np.abs(spectrum - oracle)) / np.max(np.abs(oracle)) < 1e-12

    def test_every_wave_length_bit_identical(self):
        x = complex_input(77, 256)
        spectra = [run_wave(x, k)[0] for k in range(0, 9)]
        for spectrum in spectra[1:]:
            np.testing.assert_array_equal(spectrum, spectra[0])

    def test_batched_lanes(self):
        rng = np.random.default_rng(5)
        x = rng.random((3, 64)) + 1j * rng.random((3, 64))
        spectrum, _ = run_wave(x, 3)
        np.testing.assert_array_equal(spectrum, fft_serial(x))

    @pytest.mark.parametrize("group", [1, 4, 32])
    def test_group_size_does_not_change_the_spectrum(self, monkeypatch, group):
        """Groups smaller than a block, a crossing or a level take every path
        of the in-place butterflies, each bit for bit the serial transform,
        for a batch, one transform and a batch of one.  At one element per
        PE and per group a butterfly multiplies single elements, and still
        rounds as the serial transform does."""
        monkeypatch.setattr(wave, "GROUP_ELEMENTS", group)
        rng = np.random.default_rng(group)
        for shape in [(2, 256), (256,), (1, 256)]:
            x = rng.random(shape) + 1j * rng.random(shape)
            reference = fft_serial(x)
            for k in range(9):
                for midpoint in (False, True):
                    spectrum, _ = run_wave(x, k, midpoint=midpoint)
                    assert spectrum.tobytes() == reference.tobytes(), (shape, k, midpoint)

    def test_local_levels_run_in_place(self):
        """On one PE every level is local and merges the stored block in
        place: slide_fft holds one U*O temporary, not a spare block, so it
        stays under 1.4x the batch's bytes (about 1.9x with a spare)."""
        rng = np.random.default_rng(27)
        x = rng.random((10, 4096)) + 1j * rng.random((10, 4096))
        mesh = wave_mesh(0, local_memory_bytes=1 << 30)
        layout = plan_wave(4096, 0, 64, mesh)
        distribute(x, layout, mesh)
        wave.twiddle_table(4096)
        tracemalloc.start()
        try:
            spectrum = slide_fft(mesh, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * x.nbytes
        assert spectrum.tobytes() == fft_serial(x).tobytes()

    @pytest.mark.parametrize("m,k", [(4, 2), (6, 3), (8, 5)])
    def test_midpoint_meeting_matches_overlay(self, m, k):
        x = complex_input(m + k, 1 << m)
        overlay, _ = run_wave(x, k)
        halfway, _ = run_wave(x, k, midpoint=True)
        np.testing.assert_array_equal(halfway, overlay)


# A (2, n) batch on a wave at origin (2, 5) of a 3x40 mesh:
# (batch, (rows, cols), origin).
OFFSET_BATCH = (2, (3, 40), (2, 5))

# (n, k, midpoint, wall, transfer, ramp, compute, moved, hops[, placement]),
# recorded from the per-PE engine under the default cost parameters with
# 64-bit elements; a placement of None is a 1-D input on a wave at (0, 0).
# n = 2**15 at k = 4 and n = 2**16 at k = 5 hold 2048 elements per PE, four
# PEs to a group of wave.GROUP_ELEMENTS = 2**13, so every level spans more
# than one group, and the last levels at k = 5 split crossings across groups.
PINNED = [
    (64, 0, False, 5760, 0, 0, 5760, 0, 0),
    (64, 1, False, 3514, 148, 6, 5760, 64, 64),
    (64, 2, False, 2082, 150, 12, 5760, 128, 192),
    (64, 3, False, 1220, 122, 18, 5760, 192, 448),
    (64, 4, False, 726, 102, 24, 5760, 256, 960),
    (64, 5, False, 462, 102, 30, 5760, 320, 1984),
    (64, 6, False, 366, 150, 36, 5760, 384, 4032),
    (1024, 10, False, 2446, 2086, 60, 153600, 10240, 1047552),
    (64, 3, True, 1214, 116, 18, 5760, 320, 448),
    (256, 4, True, 3208, 304, 24, 30720, 1792, 3840),
    (1024, 10, True, 1424, 1064, 60, 153600, 19456, 1047552),
    (32768, 4, False, 621414, 37710, 24, 7372800, 131072, 491520),
    (32768, 4, True, 621400, 37696, 24, 7372800, 229376, 491520),
    (65536, 5, False, 692312, 47162, 30, 15728640, 327680, 2031616, OFFSET_BATCH),
    (65536, 5, True, 692282, 47132, 30, 15728640, 589824, 2031616, OFFSET_BATCH),
]
PINNED = [row + (None,) * (10 - len(row)) for row in PINNED]


def closed_form_ledger(config, n, k, element_bits, midpoint):
    """The ledger counters and wall clock of a wave run, written out from
    ``config``'s fields alone, level by level: an oracle that calls no mesh
    or wave code.  With e = n / 2**k, every level books 5n FLOPs; a local
    level (N <= e) advances the wall clock by one PE's 5e FLOPs, and a
    sliding level of span s = N / (2e) and shift h slides out and back
    (each phase one ramp plus a_eff*e + fill*(max(h, s - h) - 1), rounded
    up) around one PE's 10e FLOPs."""
    e = n >> k
    a_eff = (Fraction(element_bits, config.packet_bits) * config.cycles_per_packet_per_hop
             + config.per_element_overhead_cycles)
    b, ramp = config.cycles_per_flop, config.ramp_cycles
    total = dict.fromkeys(("compute_cycles", "transfer_cycles", "ramp_cycles", "flops",
                           "element_hops", "elements_moved", "wall_clock_cycles"), 0)
    for N in (1 << j for j in range(1, n.bit_length())):
        total["flops"] += 5 * n
        total["compute_cycles"] += math.ceil(b * 5 * n)
        if N <= e:
            total["wall_clock_cycles"] += math.ceil(b * 5 * e)
            continue
        s = N // (2 * e)
        h = s // 2 if midpoint else 0
        t = math.ceil(a_eff * e + config.pipeline_fill_cycles_per_hop * (max(h, s - h) - 1))
        total["transfer_cycles"] += 2 * t
        total["ramp_cycles"] += 2 * ramp
        total["elements_moved"] += 2 * n if h else n
        total["element_hops"] += n * s
        total["wall_clock_cycles"] += 2 * (ramp + t) + math.ceil(b * 10 * e)
    return total


class TestAccounting:
    def test_single_pe_run_books_no_transfer(self):
        x = complex_input(3, 512)
        _, mesh = run_wave(x, 0)
        ledger = mesh.ledger_report()
        assert ledger.transfer_cycles == 0
        assert ledger.ramp_cycles == 0
        assert ledger.elements_moved == 0
        assert ledger.flops == flops_per_transform(512)
        assert measure_efficiency(ledger).eta == 1

    @pytest.mark.parametrize("m,k", [(5, 0), (5, 3), (8, 4), (10, 6)])
    def test_flops_independent_of_wave_length(self, m, k):
        _, mesh = run_wave(complex_input(m, 1 << m), k)
        assert mesh.ledger_report().flops == 5 * (1 << m) * m

    def test_transfer_budget_values(self):
        mesh = wave_mesh(0)
        assert transfer_budget(plan_wave(1 << 10, 0, 64, mesh)).elements_moved == 0
        mesh = wave_mesh(3)
        budget = transfer_budget(plan_wave(8, 3, 64, mesh))
        assert budget.elements_moved == 24
        mesh = wave_mesh(3)
        budget = transfer_budget(plan_wave(1 << 10, 3, 64, mesh))
        assert budget.elements_moved == 3 * (1 << 10)

    def test_transfer_budget_is_its_own_closed_form(self, monkeypatch):
        """k sliding levels of n/2 elements out and n/2 back, for every (m, k)
        up to m = 12, whatever split level_plan makes: the budget checks the
        split that slide_fft runs, so it must not read it."""
        layouts = [plan_wave(1 << m, k, 8, wave_mesh(k)) for m in range(13) for k in range(m + 1)]
        expected = [layout.k * layout.n for layout in layouts]

        def budgets():
            return [b.elements_moved for b in map(transfer_budget, layouts)]

        assert budgets() == expected
        monkeypatch.setattr(wave, "level_plan", lambda layout: [
            wave.LevelDescriptor(segment_pair=2, local=False)] * layout.m)
        assert budgets() == expected

    @pytest.mark.parametrize("m,k", [(4, 2), (7, 3), (9, 5), (10, 10)])
    def test_ledger_movement_matches_budget(self, m, k):
        _, mesh = run_wave(complex_input(m * k, 1 << m), k)
        mesh2 = wave_mesh(k)
        budget = transfer_budget(plan_wave(1 << m, k, 64, mesh2))
        assert mesh.ledger_report().elements_moved == budget.elements_moved

    # Case ids leave out the midpoint and placement columns, tagging only
    # midpoint and placed cases, so the first overlay cases keep the ids they
    # had before those columns existed.
    @pytest.mark.parametrize(
        "n,k,midpoint,wall,transfer,ramp,compute,moved,hops,placement", PINNED,
        ids=["-".join(map(str, row[:2] + row[3:9])) + ("-midpoint" if row[2] else "")
             + ("-batch-offset" if row[9] else "") for row in PINNED])
    def test_ledger_is_pinned(self, n, k, midpoint, wall, transfer, ramp, compute,
                              moved, hops, placement):
        if placement is None:
            x, mesh, origin = complex_input(n + k, n), None, (0, 0)
        else:
            batch, (rows, cols), origin = placement
            x = np.stack([complex_input(n + k + i, n) for i in range(batch)])
            mesh = mesh_create(MeshConfig(rows=rows, cols=cols))
        spectrum, mesh = run_wave(x, k, mesh=mesh, midpoint=midpoint, origin=origin)
        np.testing.assert_array_equal(spectrum, fft_serial(x))
        ledger = mesh.ledger_report()
        assert mesh.wall_clock_cycles == wall
        assert (ledger.transfer_cycles, ledger.ramp_cycles, ledger.compute_cycles,
                ledger.elements_moved, ledger.element_hops) == (
                    transfer, ramp, compute, moved, hops)

    @pytest.mark.parametrize("preset", ["cs2-calibrated", "pure-packet"])
    @pytest.mark.parametrize("element_bits", [32, 64])
    @pytest.mark.parametrize("midpoint", [False, True], ids=["overlay", "midpoint"])
    def test_ledger_matches_its_closed_form(self, preset, element_bits, midpoint):
        """Every counter and the wall clock of every (m, k) up to m = 11
        equal the closed form, so no modelled cycle moves unnoticed."""
        for m in range(1, 12):
            for k in range(m + 1):
                config = preset_config(preset, cols=1 << k, local_memory_bytes=1 << 30)
                _, mesh = run_wave(np.zeros(1 << m, complex), k, element_bits,
                                   mesh_create(config), midpoint)
                booked = asdict(mesh.ledger_report()) | {
                    "wall_clock_cycles": mesh.wall_clock_cycles}
                assert booked == closed_form_ledger(config, 1 << m, k, element_bits,
                                                    midpoint), (m, k)

    def test_benchmark_ledger_replays(self):
        """Every transform the benchmark's reference ledger stores, run on a
        default one-row mesh, books exactly the stored counts, so a modelled
        cycle that moves fails here before the benchmark refuses it."""
        path = Path(__file__).resolve().parent.parent / "perfbench" / "ledger.json"
        workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
        entries = [entry for workload in workloads.values() for entry in workload]
        assert len(entries) == 93
        for entry in entries:
            n, k, element_bits = entry["n"], entry["k"], entry["element_bits"]
            mesh = wave_mesh(k)
            layout = plan_wave(n, k, element_bits, mesh)
            distribute(np.zeros(n, complex), layout, mesh)
            slide_fft(mesh, layout)
            local = sum(level.local for level in level_plan(layout))
            got = asdict(mesh.ledger_report()) | {
                "n": n, "k": k, "element_bits": element_bits,
                "total_cycles": mesh.wall_clock_cycles, "levels_local": local,
                "levels_sliding": layout.m - local,
                "budget_elements_moved": transfer_budget(layout).elements_moved,
                "status": "ok"}
            assert got == entry, (n, k)

    def test_working_set_respects_buffer_headroom(self):
        """A wave sized to the 3-block budget runs without a capacity trip."""
        n, bits = 1 << 12, 64
        kmin = min_feasible_k(n, bits, 49152)
        assert kmin == 1  # 3 * 2048 * 8 = 49152 exactly
        x = complex_input(6, n)
        spectrum, _ = run_wave(x, kmin, element_bits=bits)
        np.testing.assert_array_equal(spectrum, fft_serial(x))

    def test_measured_efficiency_ratio(self):
        ledger = CycleLedger(compute_cycles=255, transfer_cycles=2,
                             ramp_cycles=0, flops=85, element_hops=1,
                             elements_moved=1)
        assert measure_efficiency(ledger).eta == Fraction(255, 257)

    def test_idle_ledger_has_no_efficiency(self):
        with pytest.raises(ValueError):
            measure_efficiency(CycleLedger())

    def test_free_transfer_matches_free_model_exactly(self):
        config = MeshConfig(rows=1, cols=8, cycles_per_packet_per_hop=0,
                            per_element_overhead_cycles=0, ramp_cycles=0,
                            pipeline_fill_cycles_per_hop=0)
        x = complex_input(12, 256)
        _, mesh = run_wave(x, 3, mesh=mesh_create(config))
        measured = measure_efficiency(mesh.ledger_report())
        predicted = predict_efficiency(CostModel(a=0), 256, 8)
        assert reconcile(predicted, measured) == 0
        assert measured.eta == 1


class TestCostTrends:
    def test_longer_waves_finish_sooner_without_overheads(self):
        x = complex_input(21, 1 << 10)
        walls = []
        for k in range(0, 11):
            _, mesh = run_wave(x, k, mesh=mesh_create(
                preset_config("pure-packet", rows=1, cols=max(1 << k, 1))))
            walls.append(mesh.wall_clock_cycles)
        assert all(a > b for a, b in zip(walls, walls[1:]))

    def test_calibrated_overheads_slow_the_clock(self):
        x = complex_input(22, 1 << 8)
        _, lean = run_wave(x, 4, mesh=mesh_create(
            preset_config("pure-packet", rows=1, cols=16)))
        _, full = run_wave(x, 4, mesh=mesh_create(
            preset_config("cs2-calibrated", rows=1, cols=16)))
        assert full.wall_clock_cycles > lean.wall_clock_cycles


def apply_phase(state, descs):
    """Move the tokens of ``state``, {(row, col, name): token}, by one phase
    of ``descs`` as plain translations: every comb is lifted, then every
    comb lands; a missing source or a landing on a held key fails."""
    lifted = []
    for d in descs:
        width = d.col_stop - d.col_start
        for col in (d.col_start + i * d.period + j for i in range(d.repeats) for j in range(width)):
            lifted.append(((d.row + d.displacement[0], col + d.displacement[1],
                            d.dest_name or d.name), state.pop((d.row, col, d.name))))
    for key, token in lifted:
        assert key not in state, key
        state[key] = token


class TestPlan:
    @pytest.mark.parametrize("n,k,midpoint,placement", [
        (256, 4, False, None), (256, 4, True, None), (256, 4, False, OFFSET_BATCH),
        (256, 4, True, OFFSET_BATCH), (256, 0, False, None), (256, 0, True, None)])
    def test_slide_fft_runs_the_plan(self, monkeypatch, n, k, midpoint, placement):
        """The phases one run hands the mesh are the plan's, in level order,
        and each PhaseReport moves what its descriptors say."""
        if placement is None:
            x, mesh, origin = complex_input(n + k, n), wave_mesh(k), (0, 0)
        else:
            batch, (rows, cols), origin = placement
            x = np.stack([complex_input(n + k + i, n) for i in range(batch)])
            mesh = mesh_create(MeshConfig(rows=rows, cols=cols))
        calls = []
        slide_phase = mesh.slide_phase

        def recorded(descs):
            calls.append((descs, slide_phase(descs)))
            return calls[-1][1]

        monkeypatch.setattr(mesh, "slide_phase", recorded)
        spectrum, _ = run_wave(x, k, mesh=mesh, midpoint=midpoint, origin=origin)
        np.testing.assert_array_equal(spectrum, fft_serial(x))
        layout = plan_wave(n, k, 64, mesh, origin=origin)
        plan = level_plan(layout, midpoint)
        assert [descs for descs, _ in calls] == [
            phase for lv in plan if not lv.local for phase in (lv.out, lv.back)]
        assert len(calls) == 2 * k
        e = layout.elements_per_pe
        for descs, report in calls:
            moved = [(d.hops, d.repeats * (d.col_stop - d.col_start) * e) for d in descs]
            assert report.elements == sum(elements for _, elements in moved)
            assert report.element_hops == sum(hops * elements for hops, elements in moved)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(0, 12), data=st.data(),
           origin=st.tuples(st.integers(0, 64), st.integers(0, 5000)), midpoint=st.booleans())
    def test_plan_slides_every_block_to_its_site_and_back(self, m, data, origin, midpoint):
        """From a layout built by hand, with no mesh: the last k levels slide,
        with spans 1, 2, ..., 2**(k-1), in phases of at most two combs none
        of which stands still; the outbound phase brings every crossing's E
        and O blocks to its meeting sites, in order, and the return phase
        puts every block back where it started."""
        k = data.draw(st.integers(0, m))
        n = 1 << m
        layout = wave.WaveLayout(n=n, m=m, k=k, origin=origin, elements_per_pe=n >> k,
                                 element_bits=64)
        plan = level_plan(layout, midpoint)
        assert [lv.segment_pair for lv in plan] == [2 << j for j in range(m)]
        assert [lv.local for lv in plan] == [True] * (m - k) + [False] * k
        assert all(lv == wave.LevelDescriptor(lv.segment_pair, True) for lv in plan[:m - k])
        sliding = plan[m - k:]
        assert [lv.sites.step // 2 for lv in sliding] == [1 << j for j in range(k)]
        row, col0 = origin
        home = {(row, col, layout.name): col for col in range(col0, col0 + layout.pe_count)}
        for lv in sliding:
            span = lv.sites.step // 2
            assert 1 <= len(lv.out) <= 2 and 1 <= len(lv.back) <= 2
            assert all(d.hops for d in lv.out + lv.back)
            state = dict(home)
            apply_phase(state, lv.out)
            bases = range(col0, col0 + layout.pe_count, 2 * span)
            assert len(lv.sites) == len(bases) and len(state) == layout.pe_count
            for base, site in zip(bases, lv.sites):
                for t in range(span):
                    assert state[(row, site + t, layout.name)] == base + t
                    assert state[(row, site + t, wave._INCOMING)] == base + span + t
            apply_phase(state, lv.back)
            assert state == home
