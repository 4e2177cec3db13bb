"""Deterministic cycle accounting for a 2D grid of processing elements.

Each PE owns a fixed amount of local memory holding named blocks.  The one
communication primitive is the *slide*: a rigid translation of a span of
per-PE arrays by a common displacement, all participants moving in lockstep.
One descriptor names a *comb* of such spans, equally wide and a fixed period
apart, so a phase that moves every crossing of a wave needs one descriptor
per leg.  Costs are charged from a handful of integer/rational parameters,
so repeated runs with the same configuration produce bit-identical ledgers.

Cost model for one slide over d = |dx| + |dy| hops, per participating PE
holding E elements:

    time = ramp_cycles + a_eff * E + pipeline_fill_cycles_per_hop * (d - 1)

where a_eff = (element_bits / packet_bits) * cycles_per_packet_per_hop +
per_element_overhead_cycles.  PEs of one slide phase move synchronously, so
the phase's wall clock is the maximum over its participants; the ledger books
that wall clock (rounded up once per phase, never per element) as transfer
plus ramp.  The time never falls as E grows, so that maximum is evaluated
once per (element_bits, hops) group of the phase, at the group's largest E,
rather than once per PE.  Compute is booked separately as total FLOP volume
times cycles_per_flop, with the per-phase maximum over PEs advancing the
wall clock.

Each stored name is a data plane (*batch, rows, cols, width), a count plane
(0: no block) and an element-bits plane; one usage plane holds each PE's
bytes.  A name's planes go when its last block leaves.  Blocks go in as
arrays or raw bytes (uint8) and come out read-only: :meth:`Mesh.pe_fetch`
and :meth:`Mesh.span_fetch` (one name on a range of PEs in a row, blocks on
axis -2) return views that show later writes; :meth:`Mesh.span_update`
writes such a range back in one slice assignment, so host arithmetic is
batched across PEs.  A slide phase checks one entry per moved block, then
commits each comb as one copy from a strided view of the source plane into
the same view of the destination plane (through a temporary only when the
source plane also takes landings in that phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np


class MeshError(Exception):
    """Base class for grid and memory errors."""


class CapacityExceeded(MeshError):
    """A PE's local memory cannot hold the requested data.

    When raised by wave planning, ``min_feasible_k`` carries the smallest
    wave length that would fit (None if no wave length fits); the caller
    should retry with a longer wave.
    """

    def __init__(self, message: str, min_feasible_k: int | None = None):
        super().__init__(message)
        self.min_feasible_k = min_feasible_k


class OffGridError(MeshError):
    """A PE coordinate or slide destination falls outside the grid."""


def _as_fraction(value) -> Fraction:
    # Floats go through str() so 0.3 means 3/10, not its binary approximation.
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class MeshConfig:
    rows: int = 1
    cols: int = 1
    local_memory_bytes: int = 49152
    packet_bits: int = 32
    cycles_per_packet_per_hop: Fraction = Fraction(1)
    ramp_cycles: int = 3
    per_element_overhead_cycles: Fraction = Fraction(3, 10)
    pipeline_fill_cycles_per_hop: Fraction = Fraction(1)
    cycles_per_flop: Fraction = Fraction(3)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and one column")
        if self.local_memory_bytes < 0:
            raise ValueError("local memory must be non-negative")
        if self.packet_bits < 1:
            raise ValueError("packet size must be positive")
        if self.ramp_cycles < 0:
            raise ValueError("ramp latency must be non-negative")
        for name in ("cycles_per_packet_per_hop", "per_element_overhead_cycles",
                     "pipeline_fill_cycles_per_hop", "cycles_per_flop"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def element_cost(self, element_bits: int) -> Fraction:
        """Cycles per element per hop: packet cost plus fixed overhead."""
        if element_bits < 1 or element_bits % 8:
            raise ValueError("element size must be a positive multiple of 8 bits")
        return (Fraction(element_bits, self.packet_bits) * self.cycles_per_packet_per_hop
                + self.per_element_overhead_cycles)


# Named cost presets.  cs2-calibrated is the default parameter set; its
# per-element overhead puts the single-hop asymptote at 1.3 cycles per 32-bit
# element.  pure-packet zeroes every overhead (ramp, per-element, pipeline
# fill), leaving only packet bandwidth: exactly 1 cycle per 32-bit element
# and 2 per 64-bit datum.
PRESETS: dict[str, dict] = {
    "cs2-calibrated": {},
    "pure-packet": {
        "ramp_cycles": 0,
        "per_element_overhead_cycles": Fraction(0),
        "pipeline_fill_cycles_per_hop": Fraction(0),
    },
}


def preset_config(name: str, **overrides) -> MeshConfig:
    """Build a MeshConfig from a preset name, with field-by-field overrides."""
    try:
        base = dict(PRESETS[name])
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    base.update(overrides)
    return MeshConfig(**base)


@dataclass(frozen=True)
class SlideDescriptor:
    """A comb of rigid translations: the named arrays on PEs (row, col_start +
    i*period .. col_stop-1 + i*period), for i in 0..repeats-1, move by
    ``displacement`` = (d_row, d_col), landing under ``dest_name`` (source
    name if None).  The spans of a comb must not overlap (period >= width
    when repeats > 1); the defaults describe one span.  Hop count is
    |d_row| + |d_col|."""

    row: int
    col_start: int
    col_stop: int
    name: str
    displacement: tuple[int, int]
    element_bits: int = 32
    dest_name: str | None = None
    period: int = 0
    repeats: int = 1

    @property
    def hops(self) -> int:
        return abs(self.displacement[0]) + abs(self.displacement[1])


@dataclass
class CycleLedger:
    """Integer cycle and event counters for one mesh.

    ``transfer_cycles`` and ``ramp_cycles`` record slide-phase wall clock
    (synchronous phases, max over participants); ``compute_cycles`` records
    total arithmetic volume at cycles_per_flop per FLOP.  ``elements_moved``
    counts every element relocated by a slide, ``element_hops`` weights each
    by the distance it travelled.
    """

    compute_cycles: int = 0
    transfer_cycles: int = 0
    ramp_cycles: int = 0
    flops: int = 0
    element_hops: int = 0
    elements_moved: int = 0

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.transfer_cycles + self.ramp_cycles

    def snapshot(self) -> "CycleLedger":
        return replace(self)

    def dump(self) -> str:
        """Flat key=value block with one counter per line, every field."""
        return "\n".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))


@dataclass(frozen=True)
class PhaseReport:
    """Cost of one synchronous slide phase.

    ``exact_cycles`` is the unrounded rational wall clock (ramp included);
    ``booked_cycles`` is the integer amount added to the ledger.
    """

    exact_cycles: Fraction
    booked_cycles: int
    transfer_booked: int
    ramp_booked: int
    elements: int
    element_hops: int
    participants: int


@dataclass
class _Plane:
    """One stored name: PE (r, c) holds ``data[..., r, c, :count[r, c]]``
    (count 0: no block) of ``bits[r, c]``-bit elements."""

    data: np.ndarray      # (*batch, rows, cols, width)
    count: np.ndarray     # (rows, cols) int64
    bits: np.ndarray      # (rows, cols) int64


def _comb(data: np.ndarray, row: int, start: int, period: int, repeats: int, width: int,
          count: int) -> np.ndarray:
    """A view of ``data[..., row, c, :count]`` on the columns c of a comb,
    shape (*batch, repeats, width, count).  ``data`` is a whole plane, so
    C-contiguous, and the view is built on its buffer directly, which takes
    a fifth of the time of ``np.lib.stride_tricks.as_strided``."""
    *batch, row_stride, col_stride, item = data.strides
    return np.ndarray(data.shape[:-3] + (repeats, width, count), data.dtype, data,
                      row * row_stride + start * col_stride,
                      (*batch, period * col_stride, col_stride, item))


def _repeated(keys: np.ndarray) -> np.ndarray:
    """True where an earlier entry of ``keys`` holds the same value."""
    order = np.argsort(keys, kind="stable")
    out = np.zeros(len(keys), dtype=bool)
    out[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return out


class Mesh:
    """A rows x cols grid of PEs with local stores and a shared cycle ledger."""

    def __init__(self, config: MeshConfig):
        self.config = config
        self.ledger = CycleLedger()
        self.wall_clock_cycles = 0
        self._planes: dict[str, _Plane] = {}
        self._used = np.zeros((config.rows, config.cols), dtype=np.int64)

    # -------------------- geometry --------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.config.rows, self.config.cols)

    def in_bounds(self, pe: tuple[int, int]) -> bool:
        r, c = pe
        return 0 <= r < self.config.rows and 0 <= c < self.config.cols

    def _require_pe(self, pe: tuple[int, int]) -> tuple[int, int]:
        pe = (int(pe[0]), int(pe[1]))
        if not self.in_bounds(pe):
            raise OffGridError(f"PE {pe} outside {self.config.rows}x{self.config.cols} grid")
        return pe

    # -------------------- local stores --------------------

    def _plane(self, name: str, batch: tuple, dtype, width: int) -> _Plane:
        """The planes of ``name``, made, or widened and promoted, to take blocks
        of ``batch`` shape, ``dtype`` and ``width`` elements.  Data past a
        block's count is never read, so it is left uninitialised."""
        plane = self._planes.get(name)
        if plane is None:
            plane = self._planes[name] = _Plane(np.empty(batch + self.shape + (width,), dtype),
                                                np.zeros(self.shape, np.int64),
                                                np.zeros(self.shape, np.int64))
        data = plane.data
        if data.shape[:-3] != batch:
            raise ValueError(f"blocks of {name!r} have batch shape {data.shape[:-3]}, not {batch}")
        dtype = np.result_type(data.dtype, dtype) if dtype != data.dtype else dtype
        if width > data.shape[-1] or dtype != data.dtype:
            plane.data = np.empty(data.shape[:-1] + (max(width, data.shape[-1]),), dtype)
            plane.data[..., : data.shape[-1]] = data
        return plane

    def _drop_empty(self, names) -> None:
        for name in names:
            if name in self._planes and not self._planes[name].count.any():
                del self._planes[name]

    def pe_used(self, pe) -> int:
        return int(self._used[self._require_pe(pe)])

    def pe_store(self, pe, name: str, data, element_bits: int = 8) -> None:
        """Copy a named block onto a PE, enforcing local memory capacity.

        ``data`` is raw bytes (a uint8 block, one element per byte) or an
        ndarray whose last axis holds the elements; ``element_bits`` declares
        the modelled wire size of one element.
        """
        r, c = pe = self._require_pe(pe)
        if element_bits < 1 or element_bits % 8:
            raise ValueError("element size must be a positive multiple of 8 bits")
        block = (np.frombuffer(data, dtype=np.uint8)
                 if isinstance(data, (bytes, bytearray, memoryview)) else np.asarray(data))
        if block.ndim < 1 or block.shape[-1] < 1:
            raise ValueError("a block needs at least one element")
        if name in self._planes and self._planes[name].count[r, c]:
            raise ValueError(f"PE {pe} already holds an array named {name!r}")
        count = block.shape[-1]
        size = count * element_bits // 8
        used = int(self._used[r, c])
        if used + size > self.config.local_memory_bytes:
            raise CapacityExceeded(
                f"PE {pe}: storing {size} B of {name!r} over "
                f"{used} B used exceeds {self.config.local_memory_bytes} B"
            )
        plane = self._plane(name, block.shape[:-1], block.dtype, count)
        plane.data[..., r, c, :count] = block
        plane.count[r, c] = count
        plane.bits[r, c] = element_bits
        self._used[r, c] = used + size

    def _run(self, row: int, cols: range, name: str):
        """(plane, row, column slice, count) of the blocks ``name`` on PEs
        (row, c), c in ``cols``, which must all hold one of the same count."""
        if not isinstance(cols, range) or cols.step < 1:
            raise TypeError(f"columns must be an increasing range, not {cols!r}")
        if not len(cols):
            raise ValueError("span is empty")
        index = slice(cols[0], cols[-1] + 1, cols.step)
        row = self._require_pe((row, cols[0]))[0]
        self._require_pe((row, cols[-1]))
        plane = self._planes.get(name)
        counts = plane.count[row, index] if plane is not None else np.zeros(len(cols), np.int64)
        count = int(counts[0])
        if not count or (counts != count).any():
            if not counts.all():
                col = int(cols[int(np.argmin(counts))])
                raise KeyError(f"PE {(row, col)} holds no array named {name!r}")
            raise ValueError(f"blocks of {name!r} on row {row} differ in element count")
        return plane, row, index, count

    def pe_fetch(self, pe, name: str) -> np.ndarray:
        """The block ``name`` on ``pe``: a read-only view, shape (*batch, count)."""
        return self.span_fetch(pe[0], range(pe[1], pe[1] + 1), name)[..., 0, :]

    def pe_element_bits(self, pe, name: str) -> int:
        """The modelled size in bits of one element of the block ``name`` on ``pe``."""
        plane, r, c, _ = self._run(pe[0], range(pe[1], pe[1] + 1), name)
        return int(plane.bits[r, c][0])

    def span_fetch(self, row: int, cols: range, name: str) -> np.ndarray:
        """The named blocks of PEs (row, c), c in ``cols``, stacked on axis -2:
        shape (*batch, len(cols), count), read-only: a view of the plane, so
        later writes show through it."""
        plane, row, index, count = self._run(row, cols, name)
        view = plane.data[..., row, index, :count]
        view.flags.writeable = False
        return view

    def span_update(self, row: int, cols: range, name: str, blocks) -> None:
        """Write ``blocks[..., i, :]`` over the named block of PE (row, cols[i]),
        the inverse of :meth:`span_fetch`.  ``blocks`` must have exactly the
        shape that :meth:`span_fetch` returns; nothing is written otherwise."""
        plane, row, index, count = self._run(row, cols, name)
        blocks = np.asarray(blocks)
        shape = plane.data.shape[:-3] + (len(cols), count)
        if blocks.shape != shape:
            raise ValueError(f"expected blocks of shape {shape}, got {blocks.shape}")
        self._plane(name, shape[:-2], blocks.dtype, count).data[..., row, index, :count] = blocks

    def pe_delete(self, pe, name: str) -> None:
        plane, r, c, count = self._run(pe[0], range(pe[1], pe[1] + 1), name)
        self._used[r, c] -= count * plane.bits[r, c] // 8
        plane.count[r, c] = plane.bits[r, c] = 0
        self._drop_empty([name])

    def pe_names(self, pe) -> tuple[str, ...]:
        r, c = self._require_pe(pe)
        return tuple(sorted(name for name, plane in self._planes.items() if plane.count[r, c]))

    # -------------------- slides --------------------

    def slide(self, desc: SlideDescriptor) -> PhaseReport:
        """Execute a single slide as its own synchronous phase."""
        return self.slide_phase([desc])

    def slide_phase(self, descs: list[SlideDescriptor]) -> PhaseReport:
        """Execute concurrent slides as one synchronous phase.

        All descriptors move together; the phase's wall clock is the maximum
        per-PE time over every participant and is booked once (transfer plus
        one ramp charge).  The move is atomic: capacity and grid checks pass
        for every destination before any data is touched.  Each (PE, name)
        may be lifted by at most one descriptor and landed on by at most one,
        so a phase can neither drop nor duplicate a block.

        A comb counts as its spans, in column order.  Each check is one mask
        over all the phase's moves; the error raised is the first that moving
        the spans in order, PE by PE, would meet.  Each (element_bits, hops)
        group is costed at its largest count.  The commit copies each comb's
        blocks from a strided view of its source plane into the same view of
        its destination plane.
        """
        config = self.config
        rows, cols = config.rows, config.cols
        ids: dict[str, int] = {}    # every source and destination name, in first use
        table = np.array([(d.row, d.col_start, d.col_stop, *d.displacement, d.element_bits,
                           ids.setdefault(d.name, len(ids)),
                           ids.setdefault(d.dest_name or d.name, len(ids)), d.period, d.repeats)
                          for d in descs], dtype=np.int64).reshape(-1, 10)
        names = list(ids)
        width, period, repeats = table[:, 2] - table[:, 1], table[:, 8], table[:, 9]
        bad = np.flatnonzero((repeats < 1) | ((repeats > 1) & (period < width)))
        if len(bad):
            d = descs[bad[0]]
            raise ValueError(f"comb of {d.repeats} spans of {d.col_stop - d.col_start} PEs "
                             f"{d.period} apart: it needs at least one span and no overlap")

        # One row per span, comb by comb, column by column.  A comb's span
        # number cols is off the grid, so no later span can raise first.
        kept = np.minimum(repeats, cols + 1)
        spans = np.repeat(table, kept, axis=0)
        first = np.repeat(np.cumsum(kept) - kept, kept)
        spans[:, 1:3] += ((np.arange(len(spans)) - first) * spans[:, 8])[:, None]

        # A span off the grid is raised after the block checks of the spans
        # before it.
        row, start, stop, d_row, d_col = spans[:, :5].T
        empty = stop <= start
        off_source = (row < 0) | (row >= rows) | (start < 0) | (stop > cols)
        off_dest = ((row + d_row < 0) | (row + d_row >= rows) | (start + d_col < 0)
                    | (stop + d_col > cols))
        grid_error = None
        failed = np.flatnonzero(empty | off_source | off_dest)
        if len(failed):
            j = failed[0]
            if empty[j]:
                grid_error = ValueError("slide source span is empty")
            elif off_source[j]:
                grid_error = OffGridError(f"slide source PEs ({row[j]}, {start[j]}.."
                                          f"{stop[j] - 1}) outside {rows}x{cols} grid")
            else:
                grid_error = OffGridError(
                    f"slide destination PEs ({row[j] + d_row[j]}, {start[j] + d_col[j]}.."
                    f"{stop[j] - 1 + d_col[j]}) outside {rows}x{cols} grid")
            spans = spans[:j]

        # One entry per moved block, span by span, column by column.  A
        # block's key is its flat index into the phase's (name, row, col)
        # stack of count and element-size planes.
        length = spans[:, 2] - spans[:, 1]
        moves = np.repeat(spans, length, axis=0)
        src_r = moves[:, 0]
        src_c = moves[:, 1] + np.arange(len(moves)) - np.repeat(np.cumsum(length) - length, length)
        dst_r, dst_c = src_r + moves[:, 3], src_c + moves[:, 4]
        bits, src_id, dst_id = moves[:, 5], moves[:, 6], moves[:, 7]
        hops = np.abs(moves[:, 3]) + np.abs(moves[:, 4])
        lift_key = (src_id * rows + src_r) * cols + src_c
        land_key = (dst_id * rows + dst_r) * cols + dst_c
        counts = np.zeros((len(names), rows, cols), np.int64)      # 0: no block
        sizes = np.zeros_like(counts)
        for i, plane in enumerate(map(self._planes.get, names)):
            if plane is not None:
                counts[i], sizes[i] = plane.count, plane.bits
        counts, sizes = counts.reshape(-1), sizes.reshape(-1)
        count, stored_bits = counts[lift_key], sizes[lift_key]

        lifted_twice, landed_twice = _repeated(lift_key), _repeated(land_key)
        failed = np.flatnonzero((count == 0) | (stored_bits != bits) | lifted_twice | landed_twice)
        if len(failed):
            i = failed[0]
            src, dst = (int(src_r[i]), int(src_c[i])), (int(dst_r[i]), int(dst_c[i]))
            name = names[src_id[i]]
            if not count[i]:
                raise KeyError(f"PE {src} holds no array named {name!r}")
            if stored_bits[i] != bits[i]:
                raise ValueError(f"{name!r} on PE {src} is stored as {stored_bits[i]}-bit "
                                 f"elements, descriptor says {bits[i]}")
            if lifted_twice[i]:
                raise ValueError(f"{name!r} on PE {src} is lifted by two slides")
            raise ValueError(f"two slides land on {names[dst_id[i]]!r} at PE {dst}")
        if grid_error is not None:
            raise grid_error

        # Usage deltas of the moving blocks (zero-hop moves are renames), as
        # whole byte counts, which float64 sums exactly.
        moving = hops > 0
        size = (count * bits // 8)[moving]
        src_pe, dst_pe = (src_r * cols + src_c)[moving], (dst_r * cols + dst_c)[moving]
        delta = (np.bincount(dst_pe, size, rows * cols)
                 - np.bincount(src_pe, size, rows * cols)).astype(np.int64)
        touched = np.column_stack([src_pe, dst_pe]).ravel()     # in the order moves touch them
        over = touched[(self._used.ravel() + delta > config.local_memory_bytes)[touched]]
        if len(over):
            raise CapacityExceeded(f"PE {divmod(int(over[0]), cols)}: incoming slide data would "
                                   f"exceed {config.local_memory_bytes} B of local memory")
        counts[lift_key] = sizes[lift_key] = 0      # the stacks as the phase leaves them
        taken = np.flatnonzero(counts[land_key])
        if len(taken):
            i = taken[0]
            raise ValueError(f"PE {(int(dst_r[i]), int(dst_c[i]))} already holds an array "
                             f"named {names[dst_id[i]]!r}")
        counts[land_key], sizes[land_key] = count, bits

        # Commit, one descriptor at a time: lift each comb as a view of its
        # source plane, copied out only if that plane also takes landings;
        # nothing has changed yet, so the batch-shape check may still raise.
        # Then land each comb into the same view of its destination plane,
        # and write back the count and element-size stacks and the usage the
        # capacity check summed.
        landed = set(table[:, 7].tolist())
        batches: dict[int, tuple] = {}      # the batch shape each destination takes
        largest: dict[tuple[int, int], int] = {}    # (element_bits, hops) -> largest count
        lifts = []
        for (r, c, _, dr, dc, b, s, d, p, n), w, end in zip(
                table.tolist(), width.tolist(), np.cumsum(repeats * width).tolist()):
            source, dest = self._planes[names[s]], self._planes.get(names[d])
            batch = source.data.shape[:-3]
            if batches.setdefault(d, batch if dest is None else dest.data.shape[:-3]) != batch:
                raise ValueError(f"blocks of {names[s]!r} and {names[d]!r} differ in batch shape")
            most = int(count[end - n * w : end].max())
            group = (b, abs(dr) + abs(dc))
            if group[1]:
                largest[group] = max(most, largest.get(group, 0))
            blocks = _comb(source.data, r, c, p, n, w, most)
            lifts.append((names[d], blocks.copy() if s in landed else blocks,
                          (r + dr, c + dc, p, n, w)))
        for dest, blocks, comb in lifts:
            plane = self._plane(dest, blocks.shape[:-3], blocks.dtype, blocks.shape[-1])
            _comb(plane.data, *comb, blocks.shape[-1])[...] = blocks
        for name, count_plane, size_plane in zip(names, counts.reshape(-1, rows, cols),
                                                 sizes.reshape(-1, rows, cols)):
            self._planes[name].count[...], self._planes[name].bits[...] = count_plane, size_plane
        self._used += delta.reshape(rows, cols)
        self._drop_empty(names)

        if not largest:
            return PhaseReport(Fraction(0), 0, 0, 0, 0, 0, 0)
        # One closed form per (element_bits, hops) group, at the group's
        # largest count: the cost never falls as the count grows.
        max_time = config.ramp_cycles + max(
            config.element_cost(b) * most + config.pipeline_fill_cycles_per_hop * (d - 1)
            for (b, d), most in largest.items())
        elements = int(count[moving].sum())
        hops_total = int((count * hops)[moving].sum())

        ramp_booked = config.ramp_cycles
        transfer_booked = math.ceil(max_time - ramp_booked)
        self.ledger.transfer_cycles += transfer_booked
        self.ledger.ramp_cycles += ramp_booked
        self.ledger.elements_moved += elements
        self.ledger.element_hops += hops_total
        self.wall_clock_cycles += ramp_booked + transfer_booked
        return PhaseReport(
            exact_cycles=max_time,
            booked_cycles=ramp_booked + transfer_booked,
            transfer_booked=transfer_booked,
            ramp_booked=ramp_booked,
            elements=elements,
            element_hops=hops_total,
            participants=int(moving.sum()),
        )

    # -------------------- compute --------------------

    def record_compute(self, flops: int, max_flops_per_pe: int | None = None) -> None:
        """Book one parallel compute phase.

        ``flops`` is the total volume over all PEs; ``max_flops_per_pe``
        (defaulting to the total) sets how far the wall clock advances.
        """
        if flops < 0:
            raise ValueError("FLOP count must be non-negative")
        if max_flops_per_pe is None:
            max_flops_per_pe = flops
        self.ledger.flops += flops
        self.ledger.compute_cycles += math.ceil(self.config.cycles_per_flop * flops)
        self.wall_clock_cycles += math.ceil(self.config.cycles_per_flop * max_flops_per_pe)

    def ledger_report(self) -> CycleLedger:
        return self.ledger.snapshot()


def mesh_create(config: MeshConfig) -> Mesh:
    return Mesh(config)
