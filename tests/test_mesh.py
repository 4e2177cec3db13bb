"""Mesh storage, slide phases, and the cycle ledger."""

import copy
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slidefft.mesh import (CapacityExceeded, MeshConfig, MeshError, OffGridError,
                           SlideDescriptor, mesh_create, preset_config)


def one_row_mesh(cols, **overrides):
    return mesh_create(MeshConfig(rows=1, cols=cols, **overrides))


def every_pe(mesh):
    rows, cols = mesh.shape
    return [(r, c) for r in range(rows) for c in range(cols)]


def mesh_state(mesh):
    """Every stored block (by content), every PE's usage, ledger and wall clock."""
    stores = {pe: {name: (mesh.pe_fetch(pe, name).tobytes(), mesh.pe_fetch(pe, name).shape[-1],
                          mesh.pe_element_bits(pe, name))
                   for name in mesh.pe_names(pe)}
              for pe in every_pe(mesh) if mesh.pe_names(pe)}
    used = {pe: mesh.pe_used(pe) for pe in stores}
    return stores, used, mesh.ledger_report(), mesh.wall_clock_cycles


BATCHES = {"a": (), "b": (2,), "c": (), "u": ()}


@st.composite
def meshes_and_runs(draw):
    """A small grid with random blocks of "a", "b" (batch 2) and "u", and the
    arguments of a store of "a", "b" or "c" on a run of PEs; "u" only takes
    memory.  Runs often go bad: off the grid, onto a PE that holds the name
    or is full (often a PE past the first: a block is planted there), in
    the other batch shape, with elements that do not split into equal
    parts, or none.  A third of the unbatched ones are bytes."""
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 6))
    mesh = mesh_create(MeshConfig(rows=rows, cols=cols,
                                  local_memory_bytes=draw(st.sampled_from([16, 32, 64]))))
    serial = itertools.count()

    def put(pe, name, count, element_bits):
        first = 8 * next(serial)
        block = np.arange(first, first + 2 * count, dtype=float)
        try:
            mesh.pe_store(pe, name, block.reshape(BATCHES[name] + (-1,))[..., :count],
                          element_bits=element_bits)
        except (CapacityExceeded, ValueError):     # full, or already held
            pass

    for pe in every_pe(mesh):
        for name in "abu":
            if draw(st.sampled_from([True, False, False, False])):
                put(pe, name, draw(st.integers(1, 4)), draw(st.sampled_from([8, 32, 64])))
    if draw(st.sampled_from([True] * 3 + [False])):    # a run on the grid
        pes = draw(st.integers(1, min(4, cols)))
        pe = (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - pes)))
    else:
        pes = draw(st.integers(1, 4))
        pe = (draw(st.integers(-1, rows)), draw(st.integers(-1, cols)))
    name = draw(st.sampled_from("abc"))
    trouble = draw(st.sampled_from([None, None, name, "u"]))
    if trouble is not None and mesh.in_bounds(pe):
        last = (pe[0], min(pe[1] + pes, cols) - 1)     # the run's last PE on the grid
        free = mesh.config.local_memory_bytes - mesh.pe_used(last)
        put(last, trouble, free // 8 if trouble == "u" else 1, 64)
    count = draw(st.sampled_from([1] * 6 + [2, 3, 0]))
    elements = pes * count + draw(st.sampled_from([0] * 5 + [1]))
    batch = draw(st.sampled_from([(), (), (2,)]))
    data = np.arange(1000, 1000 + elements * math.prod(batch), dtype=float).reshape(batch + (-1,))
    if not batch and draw(st.sampled_from([False, False, True])):
        data = bytes(range(elements))
    return mesh, (pe, name, data, draw(st.sampled_from([8, 32, 64])), pes)


def one_pe_stores(mesh, pe, name, data, element_bits, pes):
    """``pe_store(pe, name, data, element_bits, pes)`` the slow way: elements
    that do not split into ``pes`` equal parts are refused, then each PE of
    the run takes its part in a one-PE store, in column order."""
    block = np.frombuffer(data, np.uint8) if isinstance(data, bytes) else data
    count, rest = divmod(block.shape[-1], pes)
    if rest:
        raise ValueError(f"{block.shape[-1]} elements do not split into {pes} equal blocks")
    for i in range(pes):
        mesh.pe_store((pe[0], pe[1] + i), name, block[..., i * count:(i + 1) * count],
                      element_bits=element_bits)


class TestStorage:
    def test_grid_shape(self):
        assert mesh_create(MeshConfig(rows=2, cols=3)).shape == (2, 3)
        assert mesh_create(MeshConfig()).shape == (1, 1)

    def test_store_fetch_bytes(self):
        mesh = one_row_mesh(1)
        mesh.pe_store((0, 0), "blob", b"\x01\x02\x03")
        assert mesh.pe_fetch((0, 0), "blob").tobytes() == b"\x01\x02\x03"
        assert mesh.pe_used((0, 0)) == 3

    def test_exact_capacity_fits(self):
        mesh = one_row_mesh(1)
        mesh.pe_store((0, 0), "fill", np.zeros(49152 // 4, np.float32),
                      element_bits=32)
        assert mesh.pe_used((0, 0)) == 49152

    def test_one_byte_over_raises(self):
        mesh = one_row_mesh(1)
        mesh.pe_store((0, 0), "fill", bytes(49152 - 1))
        with pytest.raises(CapacityExceeded):
            mesh.pe_store((0, 0), "extra", b"\x00\x00")

    def test_usage_accumulates_and_releases(self):
        mesh = one_row_mesh(1)
        mesh.pe_store((0, 0), "a", bytes(100))
        mesh.pe_store((0, 0), "b", np.zeros(25, np.float64), element_bits=64)
        assert mesh.pe_used((0, 0)) == 300
        mesh.pe_delete((0, 0), "a")
        assert mesh.pe_used((0, 0)) == 200

    def test_no_silent_overwrite(self):
        mesh = one_row_mesh(1)
        mesh.pe_store((0, 0), "x", b"\x01")
        with pytest.raises(ValueError):
            mesh.pe_store((0, 0), "x", b"\x02")

    def test_off_grid_store(self):
        with pytest.raises(OffGridError):
            one_row_mesh(2).pe_store((0, 5), "x", b"\x00")

    def test_custom_capacity_enforced(self):
        mesh = mesh_create(MeshConfig(rows=2, cols=4, local_memory_bytes=1024))
        mesh.pe_store((1, 2), "fits", bytes(1024))
        with pytest.raises(CapacityExceeded):
            mesh.pe_store((1, 3), "big", bytes(1025))

    @pytest.mark.parametrize("pe,data,element_bits,error,match", [
        ((0, 2), np.zeros(0), 12, OffGridError, r"PE \(0, 2\) outside"),
        ((0, 1), np.zeros(0), 12, ValueError, "multiple of 8 bits"),
        ((0, 1), np.zeros(0), 64, ValueError, "at least one element"),
        ((0, 0), np.zeros(9), 64, ValueError, "already holds"),
        ((0, 1), np.zeros(9), 64, CapacityExceeded, "storing 72 B of 'b' over 48 B used"),
        ((0, 1), np.zeros(1), 64, ValueError, r"batch shape \(2,\), not \(\)"),
        ((0, 1), np.zeros(2), 32, ValueError, r"batch shape \(2,\), not \(\)"),
        ((0, 1), np.zeros((2, 1)), 32, ValueError, "blocks of 'b' are 64-bit elements, not 32"),
    ])
    def test_one_pe_store_checks_in_order(self, pe, data, element_bits, error, match):
        """The grid, the element size, an empty block, a block already held,
        capacity, the plane's batch shape, then its element size, which "b"
        keeps while its block on PE (0, 0) lives: each check wins over the
        ones after it."""
        mesh = one_row_mesh(2, local_memory_bytes=64)
        mesh.pe_store((0, 0), "b", np.zeros((2, 1)), element_bits=64)
        mesh.pe_store((0, 1), "a", np.zeros(6), element_bits=64)
        before = mesh_state(mesh)
        with pytest.raises(error, match=match):
            mesh.pe_store(pe, "b", data, element_bits)
        assert mesh_state(mesh) == before

    @settings(max_examples=300, deadline=None)
    @given(meshes_and_runs())
    def test_run_store_equals_one_pe_stores(self, case):
        """A store on a run of PEs ends as its one-PE stores do, or raises the
        error they meet first and stores nothing."""
        mesh, (pe, name, data, element_bits, pes) = case
        twin, before = copy.deepcopy(mesh), mesh_state(mesh)

        def error(store):
            try:
                store()
            except (MeshError, ValueError) as error:
                return type(error), str(error)
            return None

        raised = error(lambda: mesh.pe_store(pe, name, data, element_bits, pes))
        assert raised == error(lambda: one_pe_stores(twin, pe, name, data, element_bits, pes))
        assert mesh_state(mesh) == (before if raised else mesh_state(twin))

    def test_run_of_no_pes_is_refused(self):
        with pytest.raises(ValueError, match="do not split into 0 equal blocks"):
            one_row_mesh(2).pe_store((0, 0), "x", b"\x00", pes=0)

    @pytest.mark.parametrize("leave", ["delete", "slide"])
    def test_a_name_outlives_its_blocks(self, leave):
        """Once its last block has left, by pe_delete or by a slide, a name is
        held nowhere, yet its plane stays: another batch shape or element
        size is refused and changes nothing, and the old ones are stored
        again."""
        mesh = one_row_mesh(2)
        mesh.pe_store((0, 0), "b", np.zeros((2, 3)), element_bits=64)
        if leave == "delete":
            mesh.pe_delete((0, 0), "b")
        else:
            mesh.slide_phase([SlideDescriptor(row=0, col_start=0, col_stop=1, name="b",
                                              displacement=(0, 1), element_bits=64,
                                              dest_name="moved")])
        assert all("b" not in mesh.pe_names(pe) for pe in every_pe(mesh))
        before = mesh_state(mesh)
        with pytest.raises(ValueError, match=r"batch shape \(2,\), not \(\)"):
            mesh.pe_store((0, 1), "b", np.zeros(3), element_bits=64)
        assert mesh_state(mesh) == before
        with pytest.raises(ValueError, match="blocks of 'b' are 64-bit elements, not 32"):
            mesh.pe_store((0, 1), "b", np.zeros((2, 3)), element_bits=32)
        assert mesh_state(mesh) == before
        mesh.pe_store((0, 1), "b", np.ones((2, 3)), element_bits=64)
        np.testing.assert_array_equal(mesh.pe_fetch((0, 1), "b"), np.ones((2, 3)))
        assert mesh.pe_names((0, 1)) == (("b",) if leave == "delete" else ("b", "moved"))


def span_mesh():
    """A 2x4 mesh whose PEs (1, 0..3) hold "w" as a (2, 3) block of their column
    number, and whose PEs (1, 0..2) hold "v" with 3, 3 and 4 elements."""
    mesh = mesh_create(MeshConfig(rows=2, cols=4))
    for col in range(4):
        mesh.pe_store((1, col), "w", np.full((2, 3), col, np.complex128), element_bits=64)
    for col, count in enumerate((3, 3, 4)):
        mesh.pe_store((1, col), "v", np.zeros(count), element_bits=64)
    return mesh


class TestSpanAccess:
    def test_fetch_stacks_blocks_on_axis_minus_two(self):
        mesh = span_mesh()
        blocks = mesh.span_fetch(1, range(1, 4), "w")
        assert blocks.shape == (2, 3, 3)
        for i, col in enumerate(range(1, 4)):
            np.testing.assert_array_equal(blocks[..., i, :], mesh.pe_fetch((1, col), "w"))

    def test_update_writes_each_block_back(self):
        mesh = span_mesh()
        cols = range(0, 4, 2)
        blocks = mesh.span_fetch(1, cols, "w") * 2 + 1
        mesh.comb_view(1, cols, 1, "w")[..., 0, :] = blocks
        for i, col in enumerate(cols):
            np.testing.assert_array_equal(mesh.pe_fetch((1, col), "w"), blocks[..., i, :])
        np.testing.assert_array_equal(mesh.pe_fetch((1, 1), "w"), np.full((2, 3), 1))
        assert mesh.pe_used((1, 0)) == (3 + 3) * 8    # "w" and "v": 3 elements each

    @pytest.mark.parametrize("starts,width", [
        (range(1, 2), 5), (range(0, 12, 4), 2), (range(1, 12, 3), 1), (range(2, 10, 5), 3),
    ])
    def test_comb_view_writes_land_on_exactly_the_comb(self, starts, width):
        mesh = mesh_create(MeshConfig(rows=3, cols=12))
        for r, c in itertools.product(range(3), range(12)):
            mesh.pe_store((r, c), "w", np.full((2, 4), 100 * r + c, np.complex128),
                          element_bits=64)
            mesh.pe_store((r, c), "v", np.full((2, 3), -c, np.float64), element_bits=64)
        stores, used, ledger, wall = mesh_state(mesh)
        view = mesh.comb_view(1, starts, width, "w")
        assert view.shape == (2, len(starts), width, 4)
        comb = {(1, s + j): (i, j) for i, s in enumerate(starts) for j in range(width)}
        for pe, (i, j) in comb.items():
            np.testing.assert_array_equal(view[..., i, j, :], mesh.pe_fetch(pe, "w"))
        view[...] = -1 - np.arange(view.size).reshape(view.shape)
        for pe, (i, j) in comb.items():
            stores[pe]["w"] = (view[..., i, j, :].tobytes(),) + stores[pe]["w"][1:]
        assert mesh_state(mesh) == (stores, used, ledger, wall)

    @staticmethod
    def write(view, blocks):
        view[...] = blocks

    @pytest.mark.parametrize("call,error,match", [
        (lambda mesh: mesh.span_fetch(1, range(4), "u"), KeyError, r"PE \(1, 0\) holds"),
        (lambda mesh: mesh.span_fetch(1, range(4), "v"), KeyError, r"PE \(1, 3\) holds"),
        (lambda mesh: mesh.span_fetch(0, range(2), "w"), KeyError, r"PE \(0, 0\) holds"),
        (lambda mesh: mesh.span_fetch(1, range(2, 5), "w"), OffGridError, None),
        (lambda mesh: mesh.span_fetch(2, range(2), "w"), OffGridError, None),
        (lambda mesh: mesh.span_fetch(1, range(0), "w"), ValueError, None),
        # Updates go through comb_view, the one writable accessor.
        (lambda mesh: mesh.comb_view(1, range(4), 1, "v"), KeyError, r"PE \(1, 3\) holds"),
        (lambda mesh: mesh.comb_view(1, range(-1, 1), 1, "w"), OffGridError, None),
        (lambda mesh: TestSpanAccess.write(mesh.comb_view(1, range(4), 1, "w"),
                                           np.zeros((2, 4, 1, 4))), ValueError, None),
        (lambda mesh: mesh.comb_view(1, range(3), 1, "v"), ValueError, None),
        (lambda mesh: TestSpanAccess.write(mesh.comb_view(1, range(4), 1, "w"),
                                           np.zeros((2, 3, 1, 3))), ValueError, None),
        (lambda mesh: mesh.comb_view(1, range(0, 4, 2), 2, "u"), KeyError, r"PE \(1, 0\) holds"),
        (lambda mesh: mesh.comb_view(0, range(0, 4, 2), 2, "w"), KeyError, r"PE \(0, 0\) holds"),
        (lambda mesh: mesh.comb_view(1, range(1, 2), 4, "w"), OffGridError, None),
        (lambda mesh: mesh.comb_view(2, range(0, 4, 2), 2, "w"), OffGridError, None),
        (lambda mesh: mesh.comb_view(1, range(0, 3, 2), 1, "v"), ValueError, None),
        (lambda mesh: mesh.comb_view(1, range(1), 3, "v"), ValueError, None),
        (lambda mesh: mesh.comb_view(1, range(0), 1, "w"), ValueError, None),
        (lambda mesh: mesh.comb_view(1, range(2), 0, "w"), ValueError, None),
        (lambda mesh: mesh.comb_view(1, range(0, 2), 2, "w"), ValueError, None),
        (lambda mesh: mesh.comb_view(1, [0, 2], 1, "w"), TypeError, None),
        # A coordinate must be an integer, not a number that truncates to one.
        (lambda mesh: mesh.pe_store((0.7, 0.9), "x", b"\x01"), TypeError, None),
        (lambda mesh: mesh.comb_view(1.9, range(0, 2), 1, "w"), TypeError, None),
        (lambda mesh: mesh.pe_used((1.5, 0)), TypeError, None),
        (lambda mesh: mesh.pe_names((1, 0.5)), TypeError, None),
    ], ids=["fetch-missing-name", "fetch-name-missing-on-one-pe", "fetch-empty-row",
            "fetch-off-grid-column", "fetch-off-grid-row", "fetch-no-columns",
            "update-name-missing-on-one-pe", "update-off-grid-column",
            "update-changes-every-count", "update-changes-last-count",
            "update-too-few-blocks", "comb-missing-name", "comb-empty-row",
            "comb-off-grid-width", "comb-off-grid-row", "comb-unequal-counts-across-spans",
            "comb-unequal-counts-within-a-span", "comb-no-spans", "comb-zero-width",
            "comb-overlapping-spans", "comb-columns-not-a-range", "store-fractional-pe",
            "comb-fractional-row", "used-fractional-pe", "names-fractional-pe"])
    def test_bad_call_raises_and_changes_nothing(self, call, error, match):
        mesh = span_mesh()
        before = mesh_state(mesh)
        with pytest.raises(error, match=match):
            call(mesh)
        assert mesh_state(mesh) == before

    def test_missing_block_is_named_by_its_first_pe(self):
        """The error names the first PE without the block, in column order:
        here the second column of a comb's second span, period 3 > width 2."""
        mesh = mesh_create(MeshConfig(rows=2, cols=10))
        for col in (0, 1, 2, 3, 4, 5, 7, 8):      # (1, 6) and (1, 9) hold no "w"
            mesh.pe_store((1, col), "w", np.zeros(3), element_bits=64)
        before = mesh_state(mesh)
        with pytest.raises(KeyError, match=r"PE \(1, 6\) holds no array named 'w'"):
            mesh.comb_view(1, range(2, 10, 3), 2, "w")
        assert mesh_state(mesh) == before


class TestSlide:
    def test_hundred_element_hop_costs(self):
        """cs2 defaults, 32-bit data: 3 ramp + ceil(1.3 * 100) transfer."""
        mesh = one_row_mesh(2)
        mesh.pe_store((0, 0), "w", np.arange(100, dtype=np.float32),
                      element_bits=32)
        mesh.slide_phase([SlideDescriptor(row=0, col_start=0, col_stop=1, name="w",
                                          displacement=(0, 1), element_bits=32)])
        ledger = mesh.ledger_report()
        assert ledger.ramp_cycles == 3
        assert ledger.transfer_cycles == 130
        assert mesh.wall_clock_cycles == 133

    def test_exact_phase_time_is_affine_in_elements(self):
        costs = {}
        for count in (1, 10, 100, 500):
            mesh = one_row_mesh(2)
            mesh.pe_store((0, 0), "w", np.zeros(count, np.float32),
                          element_bits=32)
            report = mesh.slide_phase([SlideDescriptor(
                row=0, col_start=0, col_stop=1, name="w",
                displacement=(0, 1), element_bits=32)])
            costs[count] = report.exact_cycles
        # ramp + 1.3 per element
        for count, cycles in costs.items():
            assert cycles == 3 + Fraction(13, 10) * count
        assert costs[500] / 500 == Fraction(1306, 1000)

    def test_zero_displacement_is_free_rename(self):
        mesh = one_row_mesh(1)
        data = np.arange(4, dtype=np.float64)
        mesh.pe_store((0, 0), "w", data, element_bits=64)
        report = mesh.slide_phase([SlideDescriptor(row=0, col_start=0, col_stop=1,
                                                   name="w", displacement=(0, 0),
                                                   dest_name="v", element_bits=64)])
        assert report.booked_cycles == 0
        assert mesh.wall_clock_cycles == 0
        np.testing.assert_array_equal(mesh.pe_fetch((0, 0), "v"), data)

    def test_data_conserved_bit_exact(self):
        mesh = one_row_mesh(4)
        blocks = []
        rng = np.random.default_rng(0)
        for col in range(3):
            block = rng.random(16) + 1j * rng.random(16)
            blocks.append(block)
            mesh.pe_store((0, col), "w", block, element_bits=128)
        mesh.slide_phase([SlideDescriptor(row=0, col_start=0, col_stop=3, name="w",
                                          displacement=(0, 1), element_bits=128)])
        for col, block in enumerate(blocks):
            np.testing.assert_array_equal(mesh.pe_fetch((0, col + 1), "w"), block)
        assert mesh.pe_names((0, 0)) == ()

    def test_vertical_and_diagonal_hops(self):
        """Displacement decomposes into |dr| + |dc| nearest-neighbor hops."""
        mesh = mesh_create(MeshConfig(rows=3, cols=3))
        data = np.arange(5, dtype=np.float32)
        mesh.pe_store((0, 0), "w", data, element_bits=32)
        report = mesh.slide_phase([SlideDescriptor(row=0, col_start=0, col_stop=1,
                                                   name="w", displacement=(2, 1),
                                                   element_bits=32)])
        np.testing.assert_array_equal(mesh.pe_fetch((2, 1), "w"), data)
        assert report.element_hops == 5 * 3

    def test_slide_off_grid_raises(self):
        mesh = one_row_mesh(2)
        mesh.pe_store((0, 1), "w", b"\x00")
        with pytest.raises(OffGridError):
            mesh.slide_phase([SlideDescriptor(row=0, col_start=1, col_stop=2, name="w",
                                              displacement=(0, 1), element_bits=8)])

    def test_destination_capacity_enforced(self):
        mesh = one_row_mesh(2)
        mesh.pe_store((0, 0), "w", bytes(40000))
        mesh.pe_store((0, 1), "resident", bytes(20000))
        with pytest.raises(CapacityExceeded):
            mesh.slide_phase([SlideDescriptor(row=0, col_start=0, col_stop=1, name="w",
                                              displacement=(0, 1), element_bits=8)])

    def test_phase_cost_is_max_not_sum(self):
        """Two same-phase slides cost what the slower one costs."""
        mesh = one_row_mesh(4)
        mesh.pe_store((0, 0), "small", np.zeros(10, np.float32), element_bits=32)
        mesh.pe_store((0, 2), "large", np.zeros(100, np.float32), element_bits=32)
        mesh.slide_phase([
            SlideDescriptor(row=0, col_start=0, col_stop=1, name="small",
                            displacement=(0, 1), element_bits=32),
            SlideDescriptor(row=0, col_start=2, col_stop=3, name="large",
                            displacement=(0, 1), element_bits=32),
        ])
        assert mesh.wall_clock_cycles == 133  # the 100-element mover dominates

    def test_each_group_is_costed_at_its_largest_block(self):
        """The phase costs each moving comb at its largest block: here the
        50-element block (32 bits, 1 hop), which sits at the second PE of its
        span and is followed by a smaller block of the same size and hops,
        while an earlier 3-hop block shares its element size."""
        mesh = one_row_mesh(12)
        mesh.pe_store((0, 0), "c", np.zeros(5, np.float32), element_bits=32)
        for col, count in ((4, 1), (5, 50)):
            mesh.pe_store((0, col), "a", np.zeros(count, np.float32), element_bits=32)
        mesh.pe_store((0, 8), "b", np.zeros(10, np.float32), element_bits=32)
        report = mesh.slide_phase([
            SlideDescriptor(row=0, col_start=0, col_stop=1, name="c",
                            displacement=(0, 3), element_bits=32),
            SlideDescriptor(row=0, col_start=4, col_stop=6, name="a",
                            displacement=(0, 1), element_bits=32, dest_name="moved"),
            SlideDescriptor(row=0, col_start=8, col_stop=9, name="b",
                            displacement=(0, 1), element_bits=32),
        ])
        assert report.exact_cycles == 3 + Fraction(13, 10) * 50

    def test_ramp_booked_once_per_phase(self):
        mesh = one_row_mesh(4)
        for col in (0, 2):
            mesh.pe_store((0, col), "w", np.zeros(10, np.float32), element_bits=32)
        mesh.slide_phase([
            SlideDescriptor(row=0, col_start=0, col_stop=1, name="w",
                            displacement=(0, 1), element_bits=32),
            SlideDescriptor(row=0, col_start=2, col_stop=3, name="w",
                            displacement=(0, 1), element_bits=32),
        ])
        assert mesh.ledger_report().ramp_cycles == 3

    def test_two_slides_landing_on_one_name_raise(self):
        """Two blocks slid onto PE (0, 1) as "x" would leave one of them lost."""
        mesh = one_row_mesh(3)
        for col in (0, 2):
            mesh.pe_store((0, col), "x", np.zeros(8, np.float32), element_bits=32)
        before = mesh_state(mesh)
        with pytest.raises(ValueError, match="two slides land"):
            mesh.slide_phase([
                SlideDescriptor(row=0, col_start=0, col_stop=1, name="x",
                                displacement=(0, 1), element_bits=32),
                SlideDescriptor(row=0, col_start=2, col_stop=3, name="x",
                                displacement=(0, -1), element_bits=32),
            ])
        assert mesh_state(mesh) == before

    def test_one_block_lifted_twice_raises(self):
        """Lifting PE (0, 1)'s "x" twice would copy it onto PEs 0 and 2."""
        mesh = one_row_mesh(3)
        mesh.pe_store((0, 1), "x", np.zeros(8, np.float32), element_bits=32)
        before = mesh_state(mesh)
        with pytest.raises(ValueError, match="lifted by two slides"):
            mesh.slide_phase([
                SlideDescriptor(row=0, col_start=1, col_stop=2, name="x",
                                displacement=(0, 1), element_bits=32),
                SlideDescriptor(row=0, col_start=1, col_stop=2, name="x",
                                displacement=(0, -1), element_bits=32),
            ])
        assert mesh_state(mesh) == before

    def test_comb_moves_every_span(self):
        """Spans (0, 1..2) and (0, 5..6) of "w" slide left by one into "v"."""
        mesh = one_row_mesh(8)
        for col in range(8):
            mesh.pe_store((0, col), "w", np.full(3, col, np.float32), element_bits=32)
        report = mesh.slide_phase([SlideDescriptor(
            row=0, col_start=1, col_stop=3, name="w", displacement=(0, -1),
            element_bits=32, dest_name="v", period=4, repeats=2)])
        assert report.elements == 12 and report.participants == 4
        for col in range(8):
            assert mesh.pe_names((0, col)) == {
                0: ("v", "w"), 1: ("v",), 2: (), 4: ("v", "w"), 5: ("v",), 6: ()}.get(col, ("w",))
        for col in (0, 1, 4, 5):
            np.testing.assert_array_equal(mesh.pe_fetch((0, col), "v"), np.full(3, col + 1))

    def test_source_plane_that_takes_landings_is_lifted_first(self):
        """The midpoint's first phase: "w" on PE 0 slides right onto PE 1,
        whose own "w" slides on to PE 2 as "in".  Landing the first before
        lifting the second would copy PE 0's block twice."""
        mesh = one_row_mesh(3)
        for col in range(2):
            mesh.pe_store((0, col), "w", np.full(4, col, np.float32), element_bits=32)
        mesh.slide_phase([
            SlideDescriptor(row=0, col_start=0, col_stop=1, name="w", displacement=(0, 1)),
            SlideDescriptor(row=0, col_start=1, col_stop=2, name="w", displacement=(0, 1),
                            dest_name="in"),
        ])
        np.testing.assert_array_equal(mesh.pe_fetch((0, 1), "w"), np.zeros(4))
        np.testing.assert_array_equal(mesh.pe_fetch((0, 2), "in"), np.ones(4))

    @pytest.mark.parametrize("period,repeats", [(2, 0), (2, -1), (1, 2), (0, 3)])
    def test_bad_comb_refused_before_anything_moves(self, period, repeats):
        """No spans, or spans of width 2 that overlap, are refused even after
        a descriptor that would move."""
        mesh = one_row_mesh(8)
        for col in range(8):
            mesh.pe_store((0, col), "w", np.zeros(2, np.float32), element_bits=32)
        before = mesh_state(mesh)
        with pytest.raises(ValueError, match="comb"):
            mesh.slide_phase([
                SlideDescriptor(row=0, col_start=0, col_stop=1, name="w", displacement=(0, 0),
                                dest_name="v"),
                SlideDescriptor(row=0, col_start=2, col_stop=4, name="w", displacement=(0, 0),
                                dest_name="u", period=period, repeats=repeats),
            ])
        assert mesh_state(mesh) == before

    @pytest.mark.parametrize("dest", ["b", "new"])
    def test_batch_shapes_that_differ_raise_and_change_nothing(self, dest):
        """A (2, 3) block of "a" cannot land beside 3-element blocks, whether
        on the existing name "b" or on a name that "b" also slides to."""
        mesh = one_row_mesh(4)
        mesh.pe_store((0, 0), "a", np.zeros((2, 3), np.float32), element_bits=32)
        mesh.pe_store((0, 2), "b", np.zeros(3, np.float32), element_bits=32)
        before = mesh_state(mesh)
        with pytest.raises(ValueError, match="batch shape"):
            mesh.slide_phase([
                SlideDescriptor(row=0, col_start=2, col_stop=3, name="b", displacement=(0, 1),
                                dest_name=dest),
                SlideDescriptor(row=0, col_start=0, col_stop=1, name="a", displacement=(0, 1),
                                dest_name=dest),
            ])
        assert mesh_state(mesh) == before

    @pytest.mark.parametrize("lands_on", ["held", "new"])
    def test_element_sizes_that_differ_raise_and_change_nothing(self, lands_on):
        """A name keeps one element size.  A 32-bit "b" renamed in place to
        "a", whose 8-bit block leaves in the same phase, is refused, as are
        32- and 64-bit blocks landing under one new name."""
        mesh = one_row_mesh(4)
        mesh.pe_store((0, 0), "b", np.zeros(3, np.float32), element_bits=32)
        if lands_on == "held":
            mesh.pe_store((0, 0), "a", np.zeros(2, np.uint8), element_bits=8)
            descs = [SlideDescriptor(row=0, col_start=0, col_stop=1, name="b",
                                     displacement=(0, 0), dest_name="a"),
                     SlideDescriptor(row=0, col_start=0, col_stop=1, name="a",
                                     displacement=(0, 1), element_bits=8)]
            match = "blocks of 'b' and 'a' differ in element size"
        else:
            mesh.pe_store((0, 2), "c", np.zeros(3), element_bits=64)
            descs = [SlideDescriptor(row=0, col_start=0, col_stop=1, name="b",
                                     displacement=(0, 1), dest_name="new"),
                     SlideDescriptor(row=0, col_start=2, col_stop=3, name="c",
                                     displacement=(0, 1), element_bits=64, dest_name="new")]
            match = "blocks of 'c' and 'new' differ in element size"
        before = mesh_state(mesh)
        with pytest.raises(ValueError, match=match):
            mesh.slide_phase(descs)
        assert mesh_state(mesh) == before

    def test_long_comb_is_refused_at_its_first_span_off_the_grid(self):
        """Spans past the grid's width are never expanded: a comb of 10**12
        spans on a 4-column row fails at span 4, as its unrolled list would."""
        mesh = one_row_mesh(4)
        for col in range(4):
            mesh.pe_store((0, col), "w", np.zeros(2, np.float32), element_bits=32)
        before = mesh_state(mesh)
        with pytest.raises(OffGridError, match=r"\(0, 4\.\.4\)"):
            mesh.slide_phase([SlideDescriptor(row=0, col_start=0, col_stop=1, name="w",
                                              displacement=(0, 0), dest_name="v",
                                              period=1, repeats=10**12)])
        assert mesh_state(mesh) == before


@st.composite
def meshes_and_phases(draw):
    """A small grid with random named blocks, and up to three random combs.

    Each name has its own element size, so one phase can mix sizes; block
    counts vary from PE to PE, so one descriptor can mix counts.  A comb has
    one to three spans, from zero to two columns apart.  Every
    element stored is distinct, so a dropped or duplicated block shows in the
    blocks' contents.  Half the phases are tidy: combs stay on the grid,
    sizes match, no two descriptors lift from one row under one name,
    and each lands under a fresh name, so most are accepted and their cost
    can be checked.  The rest draw two names, spans and displacements from
    small sets so that they often collide, overlap, fan out or leave the grid,
    and their spans may be empty.
    Half the tidy phases also begin with a feeder comb that lands, under
    the lifted name, on the PEs that a later comb lifts from; a feeder
    whose name has another element size is refused.
    """
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    sizes = (8, 32, 64)
    names = ("a", "b", "c")
    bits = {name: draw(st.sampled_from(sizes)) for name in names}
    mesh = mesh_create(MeshConfig(rows=rows, cols=cols,
                                  local_memory_bytes=draw(st.sampled_from([256, 48]))))
    serial = itertools.count()
    for pe in every_pe(mesh):
        for name in names:
            if draw(st.sampled_from([True] * 7 + [False])):
                first = 4 * next(serial)
                try:
                    mesh.pe_store(pe, name, np.arange(first, first + draw(st.integers(1, 4)),
                                                      dtype=float),
                                  element_bits=bits[name])
                except CapacityExceeded:
                    pass
    tidy = draw(st.booleans())

    @st.composite
    def descriptor(draw):
        row = draw(st.integers(0, rows - 1))
        start = draw(st.integers(0, cols - 1))
        stop = draw(st.integers(start + 1 if tidy else start, cols))
        period = draw(st.integers(max(stop - start, 1), stop - start + 2))
        name = draw(st.sampled_from(names if tidy else names[:2]))
        if tidy or draw(st.sampled_from([True] * 3 + [False])):
            repeats = draw(st.integers(1, min(3, (cols - stop) // period + 1)))
            last = stop + (repeats - 1) * period        # the last span's stop
            displacement = (draw(st.integers(-row, rows - 1 - row)),
                            draw(st.integers(-start, cols - last)))
        else:
            repeats = draw(st.integers(1, 3))
            displacement = (draw(st.integers(1 - rows, rows - 1)),
                            draw(st.integers(-cols, cols)))
        wrong = [size for size in sizes if size != bits[name]]
        return SlideDescriptor(
            row=row, col_start=start, col_stop=stop, name=name,
            displacement=displacement,
            element_bits=bits[name] if tidy else draw(st.sampled_from([bits[name]] * 4 + wrong)),
            dest_name=None if tidy else draw(st.sampled_from((None,) + names[:2])),
            period=period, repeats=repeats,
        )

    if not tidy:
        return mesh, draw(st.lists(descriptor(), min_size=1, max_size=3))
    descs = draw(st.lists(descriptor(), min_size=1, max_size=3,
                          unique_by=lambda desc: (desc.row, desc.name)))
    descs = [replace(desc, dest_name=f"to{i}") for i, desc in enumerate(descs)]
    if draw(st.booleans()):
        # A feeder comb first lands on the very blocks that a later comb
        # lifts, as the midpoint's first phase does.
        target = draw(st.sampled_from(descs))
        last = target.col_stop + (target.repeats - 1) * target.period
        d_row = draw(st.integers(target.row - rows + 1, target.row))
        d_col = draw(st.integers(last - cols, target.col_start))
        name = draw(st.sampled_from(names))
        descs.insert(0, replace(target, row=target.row - d_row, col_start=target.col_start - d_col,
                                col_stop=target.col_stop - d_col, name=name,
                                displacement=(d_row, d_col), element_bits=bits[name],
                                dest_name=target.name))
    return mesh, descs


def unrolled(descs):
    """Each comb as its spans in order, one single-span descriptor each."""
    return [replace(desc, col_start=desc.col_start + i * desc.period,
                    col_stop=desc.col_stop + i * desc.period, period=0, repeats=1)
            for desc in descs for i in range(desc.repeats)]


def per_pe_phase_time(mesh, descs):
    """The phase's wall clock the slow way: the per-PE time of every moving
    PE, from the stores before the phase and the cost formula written out,
    maximised.  None when a block the phase lifts is missing or off the grid."""
    config = mesh.config
    worst = Fraction(0)
    for desc in unrolled(descs):
        if not desc.hops:
            continue
        per_element = (Fraction(desc.element_bits, config.packet_bits)
                       * config.cycles_per_packet_per_hop + config.per_element_overhead_cycles)
        for col in range(desc.col_start, desc.col_stop):
            pe = (desc.row, col)
            if not mesh.in_bounds(pe) or desc.name not in mesh.pe_names(pe):
                return None
            count = mesh.pe_fetch(pe, desc.name).shape[-1]
            worst = max(worst, config.ramp_cycles + per_element * count
                        + config.pipeline_fill_cycles_per_hop * (desc.hops - 1))
    return worst


def per_pe_phase_outcome(mesh, descs):
    """The error a phase must raise, as (type, message), the slow way; None
    if it must be accepted.  Each comb is walked as its spans, in order, PE
    by PE: a span empty or off the grid, then for each of its PEs a missing
    block, a wrong element size, a block lifted twice or landed on twice.
    Then the moved bytes are summed and each PE over capacity is looked for
    in the order the moves touch PEs, then each destination that already
    holds the name and does not lose it in the phase.  Last, move by move, a
    block whose element size is not its destination name's: the size of a
    PE that held that name before the phase, else of the name's first
    landing."""
    def outcome(error):
        return type(error), str(error)

    config = mesh.config
    rows, cols = mesh.shape
    for desc in descs:
        width = desc.col_stop - desc.col_start
        if desc.repeats < 1 or (desc.repeats > 1 and desc.period < width):
            return outcome(ValueError(f"comb of {desc.repeats} spans of {width} PEs "
                                      f"{desc.period} apart: it needs at least one span and "
                                      f"no overlap"))
    lifted, landed, moves, moving = set(), set(), [], []
    for desc in unrolled(descs):
        d_row, d_col = desc.displacement
        start, stop, row = desc.col_start, desc.col_stop, desc.row
        if stop <= start:
            return outcome(ValueError("slide source span is empty"))
        if not (mesh.in_bounds((row, start)) and mesh.in_bounds((row, stop - 1))):
            return outcome(OffGridError(f"slide source PEs ({row}, {start}..{stop - 1}) "
                                        f"outside {rows}x{cols} grid"))
        if not (mesh.in_bounds((row + d_row, start + d_col))
                and mesh.in_bounds((row + d_row, stop - 1 + d_col))):
            return outcome(OffGridError(
                f"slide destination PEs ({row + d_row}, {start + d_col}..{stop - 1 + d_col}) "
                f"outside {rows}x{cols} grid"))
        name, dest = desc.name, desc.dest_name or desc.name
        for col in range(start, stop):
            src, dst = (row, col), (row + d_row, col + d_col)
            if name not in mesh.pe_names(src):
                return outcome(KeyError(f"PE {src} holds no array named {name!r}"))
            bits = mesh.pe_element_bits(src, name)
            if bits != desc.element_bits:
                return outcome(ValueError(f"{name!r} on PE {src} is stored as {bits}-bit "
                                          f"elements, descriptor says {desc.element_bits}"))
            if (src, name) in lifted:
                return outcome(ValueError(f"{name!r} on PE {src} is lifted by two slides"))
            if (dst, dest) in landed:
                return outcome(ValueError(f"two slides land on {dest!r} at PE {dst}"))
            lifted.add((src, name))
            landed.add((dst, dest))
            moves.append((dst, dest, name, bits))
            if desc.hops:       # zero-hop moves are renames
                moving.append((src, dst, mesh.pe_fetch(src, name).shape[-1] * bits // 8))
    used = {pe: mesh.pe_used(pe) for pe in every_pe(mesh)}
    for src, dst, size in moving:
        used[src] -= size
        used[dst] += size
    for src, dst, _ in moving:
        for pe in (src, dst):
            if used[pe] > config.local_memory_bytes:
                return outcome(CapacityExceeded(
                    f"PE {pe}: incoming slide data would exceed "
                    f"{config.local_memory_bytes} B of local memory"))
    for dst, dest, _, _ in moves:
        if dest in mesh.pe_names(dst) and (dst, dest) not in lifted:
            return outcome(ValueError(f"PE {dst} already holds an array named {dest!r}"))
    sizes = {}
    for _, dest, name, bits in moves:
        held = [mesh.pe_element_bits(pe, dest) for pe in every_pe(mesh)
                if dest in mesh.pe_names(pe)]
        if sizes.setdefault(dest, held[0] if held else bits) != bits:
            return outcome(ValueError(f"blocks of {name!r} and {dest!r} differ in element size"))
    return None


class TestSlideProperties:
    @settings(max_examples=300, deadline=None)
    @given(meshes_and_phases())
    def test_phase_conserves_or_changes_nothing(self, case):
        mesh, descs = case
        before = mesh_state(mesh)
        slow_time = per_pe_phase_time(mesh, descs)
        expected = per_pe_phase_outcome(mesh, descs)
        try:
            report = mesh.slide_phase(descs)
        except (MeshError, KeyError, ValueError) as error:
            assert (type(error), str(error)) == expected
            assert mesh_state(mesh) == before
            return
        assert expected is None
        def blocks(stores):
            return sorted(b for slot in stores.values() for b in slot.values())

        assert blocks(mesh_state(mesh)[0]) == blocks(before[0])
        for pe in every_pe(mesh):
            assert mesh.pe_used(pe) == sum(
                mesh.pe_fetch(pe, name).shape[-1] * mesh.pe_element_bits(pe, name) // 8
                for name in mesh.pe_names(pe))
        assert report.exact_cycles == slow_time
        assert report.booked_cycles == math.ceil(slow_time)
        assert mesh.wall_clock_cycles == before[3] + report.booked_cycles

    @settings(max_examples=300, deadline=None)
    @given(meshes_and_phases())
    def test_comb_equals_its_spans(self, case):
        """A comb and the list of its spans give the same report and final
        state, or raise the same error."""
        mesh, descs = case
        twin = copy.deepcopy(mesh)

        def outcome(mesh, descs):
            try:
                report = mesh.slide_phase(descs)
            except (MeshError, KeyError, ValueError) as error:
                return type(error), str(error), mesh_state(mesh)
            return report, mesh_state(mesh)

        assert outcome(mesh, descs) == outcome(twin, unrolled(descs))


class TestLedger:
    def test_fresh_mesh_ledger_is_zero(self):
        ledger = one_row_mesh(4).ledger_report()
        assert ledger.total_cycles == 0
        assert (ledger.compute_cycles, ledger.transfer_cycles, ledger.ramp_cycles,
                ledger.flops, ledger.element_hops, ledger.elements_moved) == (0,) * 6

    def test_dump_format(self):
        mesh = one_row_mesh(2)
        mesh.pe_store((0, 0), "w", np.zeros(10, np.float32), element_bits=32)
        mesh.slide_phase([SlideDescriptor(row=0, col_start=0, col_stop=1, name="w",
                                          displacement=(0, 1), element_bits=32)])
        mesh.record_compute(50, max_flops_per_pe=50)
        lines = mesh.ledger_report().dump().splitlines()
        keys = [line.split("=")[0] for line in lines]
        assert keys == ["compute_cycles", "transfer_cycles", "ramp_cycles",
                        "flops", "element_hops", "elements_moved"]
        values = {line.split("=")[0]: int(line.split("=")[1]) for line in lines}
        assert values["flops"] == 50
        assert values["ramp_cycles"] == 3
        assert values["element_hops"] == 10
        assert values["elements_moved"] == 10

    def test_identical_histories_identical_ledgers(self):
        def run():
            mesh = one_row_mesh(3)
            rng = np.random.default_rng(42)
            mesh.pe_store((0, 0), "w", rng.random(64).astype(np.float32),
                          element_bits=32)
            mesh.slide_phase([SlideDescriptor(row=0, col_start=0, col_stop=1, name="w",
                                              displacement=(0, 2), element_bits=32)])
            mesh.record_compute(640, max_flops_per_pe=320)
            return mesh.ledger_report(), mesh.wall_clock_cycles

        assert run() == run()

    @pytest.mark.parametrize("flops,per_pe", [(10, -5), (10, 50), (0, 1), (-1, 0)])
    def test_impossible_per_pe_path_is_refused(self, flops, per_pe):
        mesh = one_row_mesh(1)
        mesh.record_compute(20, max_flops_per_pe=10)
        before = mesh.ledger_report(), mesh.wall_clock_cycles
        with pytest.raises(ValueError):
            mesh.record_compute(flops, max_flops_per_pe=per_pe)
        assert (mesh.ledger_report(), mesh.wall_clock_cycles) == before

    def test_compute_volume_vs_critical_path(self):
        mesh = one_row_mesh(1, cycles_per_flop=Fraction(3))
        mesh.record_compute(100, max_flops_per_pe=25)
        ledger = mesh.ledger_report()
        assert ledger.compute_cycles == 300  # full volume in the ledger
        assert mesh.wall_clock_cycles == 75  # busiest PE on the clock

    def test_total_is_sum_of_parts(self):
        mesh = one_row_mesh(2)
        mesh.pe_store((0, 0), "w", np.zeros(7, np.float32), element_bits=32)
        mesh.slide_phase([SlideDescriptor(row=0, col_start=0, col_stop=1, name="w",
                                          displacement=(0, 1), element_bits=32)])
        mesh.record_compute(10, max_flops_per_pe=10)
        ledger = mesh.ledger_report()
        assert ledger.total_cycles == (ledger.compute_cycles
                                       + ledger.transfer_cycles
                                       + ledger.ramp_cycles)


class TestConfig:
    def test_preset_names(self):
        assert preset_config("cs2-calibrated").ramp_cycles == 3
        pure = preset_config("pure-packet")
        assert pure.ramp_cycles == 0
        assert pure.per_element_overhead_cycles == 0
        assert pure.pipeline_fill_cycles_per_hop == 0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config("warp-drive")

    def test_preset_overrides(self):
        config = preset_config("pure-packet", rows=1, cols=8)
        assert config.cols == 8

    def test_element_cost(self):
        config = MeshConfig()
        assert config.element_cost(32) == Fraction(13, 10)
        assert config.element_cost(64) == Fraction(23, 10)

    def test_float_cost_means_its_decimal_text(self):
        config = MeshConfig(per_element_overhead_cycles=0.3)
        assert config.per_element_overhead_cycles == Fraction(3, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshConfig(rows=0)
        with pytest.raises(ValueError):
            MeshConfig(packet_bits=0)
        with pytest.raises(ValueError):
            MeshConfig(ramp_cycles=-1)
        with pytest.raises(ValueError, match="local memory"):
            MeshConfig(local_memory_bytes=-1)
        with pytest.raises(ValueError, match="pipeline_fill_cycles_per_hop"):
            MeshConfig(pipeline_fill_cycles_per_hop=Fraction(-1, 2))
