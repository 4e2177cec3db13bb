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
once per moving comb, at the comb's largest E, rather than once per PE.
Compute is booked separately as total FLOP volume times cycles_per_flop,
with the per-phase maximum over PEs advancing the wall clock.

Each stored name is a data plane (*batch, rows, cols, width) and a count
plane (0: no block), of one element size; one usage plane holds each PE's
bytes.  The count plane is the one record of what a PE holds: a name's
planes, batch shape and element size, once made, last as long as the mesh,
and a name never stored reads as one shared all-zero plane.  Blocks go in
as arrays or raw bytes (uint8), on a run of PEs in one row per call
(:meth:`Mesh.pe_store`: each PE takes one equal part of the elements), and
a store is atomic: it checks every PE of the run before it writes any.
:meth:`Mesh.pe_fetch` and :meth:`Mesh.span_fetch` (one name on a range of
PEs in a row, blocks on axis -2) return read-only views;
:meth:`Mesh.comb_view` returns one name on a comb of PEs as a writable
view, so host arithmetic runs in place, batched across PEs.  A view shows
later writes only while its data plane lasts: a store or landing that
widens or promotes the plane builds a new plane, and the view keeps the
old.  A slide phase reads and writes every plane, data, count, mark or
usage, through one strided view per comb (``_comb``), as the fetches and
comb views read theirs: it checks each comb on those views, then commits it
as one copy from its view of the source plane into the same view of the
destination plane (through a temporary only when the source plane also
takes landings in that phase).  Stores and the other per-PE calls index the
planes directly.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
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
    elements: int
    element_hops: int
    participants: int


@dataclass
class _Plane:
    """One stored name: PE (r, c) holds ``data[..., r, c, :count[r, c]]``
    of ``bits``-bit elements, the size its plane was made with.  Count 0
    means no block, and there the data mean nothing."""

    data: np.ndarray      # (*batch, rows, cols, width)
    count: np.ndarray     # (rows, cols) int64
    bits: int             # 0 only for a name never stored


def _comb(plane: np.ndarray, comb: tuple, count: int | None = None) -> np.ndarray:
    """A view of a plane on the PEs (row, start + i*period + j) of ``comb`` =
    (row, start, period, spans, width): shape (spans, width) of a (rows,
    cols) plane, or (*batch, spans, width, count) of ``data[..., :count]``
    of a data plane (*batch, rows, cols, width).  Planes are whole, so
    C-contiguous, and the view is built on the buffer directly, which takes
    a fifth of the time of ``np.lib.stride_tricks.as_strided``."""
    row, start, period, spans, width = comb
    tail = () if count is None else (count,)
    *batch, row_stride, col_stride = plane.strides[:plane.ndim - len(tail)]
    return np.ndarray(plane.shape[:len(batch)] + (spans, width) + tail, plane.dtype, plane,
                      row * row_stride + start * col_stride,
                      (*batch, period * col_stride, col_stride) + plane.strides[len(batch) + 2:])


def _pe(comb: tuple, i) -> tuple[int, int]:
    """The PE at flat index ``i`` of a comb's (spans, width) view."""
    row, start, period, _, width = comb
    span, j = divmod(int(i), width)
    return (row, start + span * period + j)


class Mesh:
    """A rows x cols grid of PEs with local stores and a shared cycle ledger."""

    def __init__(self, config: MeshConfig):
        self.config = config
        self.ledger = CycleLedger()
        self.wall_clock_cycles = 0
        self._planes: dict[str, _Plane] = {}
        zeros = np.zeros(self.shape, np.int64)
        zeros.flags.writeable = False
        self._empty = _Plane(np.empty(self.shape + (0,)), zeros, 0)    # a name never stored
        self._used = np.zeros((config.rows, config.cols), dtype=np.int64)

    # -------------------- geometry --------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.config.rows, self.config.cols)

    def in_bounds(self, pe: tuple[int, int]) -> bool:
        r, c = pe
        return 0 <= r < self.config.rows and 0 <= c < self.config.cols

    def _require_pe(self, pe: tuple[int, int]) -> tuple[int, int]:
        pe = (operator.index(pe[0]), operator.index(pe[1]))     # refuses 0.7, unlike int()
        if not self.in_bounds(pe):
            raise OffGridError(f"PE {pe} outside {self.config.rows}x{self.config.cols} grid")
        return pe

    # -------------------- local stores --------------------

    def _plane(self, name: str, batch: tuple, dtype, width: int, bits: int) -> _Plane:
        """The planes of ``name``, made, or widened and promoted, to take blocks
        of ``batch`` shape and ``bits``-bit elements (which an existing plane
        must have: callers check them), ``dtype`` and ``width`` elements.  Data
        past a block's count is never read, so it is left uninitialised."""
        plane = self._planes.get(name)
        if plane is None:
            plane = self._planes[name] = _Plane(np.empty(batch + self.shape + (width,), dtype),
                                                np.zeros(self.shape, np.int64), bits)
        data = plane.data
        dtype = np.result_type(data.dtype, dtype)
        if width > data.shape[-1] or dtype != data.dtype:
            plane.data = np.empty(data.shape[:-1] + (max(width, data.shape[-1]),), dtype)
            plane.data[..., : data.shape[-1]] = data
        return plane

    def pe_used(self, pe) -> int:
        return int(self._used[self._require_pe(pe)])

    def pe_store(self, pe, name: str, data, element_bits: int = 8, pes: int = 1) -> None:
        """Copy a named block onto each PE of a run, enforcing local memory
        capacity: PE (row, col + i) of ``pe`` = (row, col) takes the i-th of
        ``pes`` equal parts of the elements.

        ``data`` is raw bytes (a uint8 block, one element per byte) or an
        ndarray whose last axis holds the elements; ``element_bits`` declares
        the modelled wire size of one element, which a name keeps from its
        first block on, as it keeps its batch shape.  Elements that do not
        split into ``pes`` equal parts are refused first.  The store is
        atomic: it raises the error that storing the parts one PE at a time,
        in column order, would meet first, and then it has stored nothing.
        """
        block = (np.frombuffer(data, dtype=np.uint8)
                 if isinstance(data, (bytes, bytearray, memoryview)) else np.asarray(data))
        if pes < 1 or (block.ndim and block.shape[-1] % pes):
            raise ValueError(f"{block.shape[-1] if block.ndim else 0} elements do not split "
                             f"into {pes} equal blocks")
        r, c = self._require_pe(pe)
        self.config.element_cost(element_bits)      # refuses a size no PE stores
        if block.ndim < 1 or block.shape[-1] < 1:
            raise ValueError("a block needs at least one element")
        count = block.shape[-1] // pes
        size = count * element_bits // 8
        capacity = self.config.local_memory_bytes
        plane = self._planes.get(name, self._empty)
        run = slice(c, c + pes)         # cut short at the grid's right edge
        after = self._used[r, run] + size
        # The first PE that the one-PE stores would fail at: over capacity,
        # holding the name, or past the grid's edge (pes if none); PE 0's
        # store ends by checking the plane's batch shape and element size.
        i = int(np.append((after > capacity) | (plane.count[r, run] != 0), True).argmax())
        if i and name in self._planes and plane.data.shape[:-3] != block.shape[:-1]:
            raise ValueError(f"blocks of {name!r} have batch shape {plane.data.shape[:-3]}, "
                             f"not {block.shape[:-1]}")
        if i and name in self._planes and plane.bits != element_bits:
            raise ValueError(f"blocks of {name!r} are {plane.bits}-bit elements, "
                             f"not {element_bits}")
        if i < pes:
            at = self._require_pe((r, c + i))      # raises past the grid's edge
            if plane.count[at]:
                raise ValueError(f"PE {at} already holds an array named {name!r}")
            raise CapacityExceeded(f"PE {at}: storing {size} B of {name!r} over "
                                   f"{after[i] - size} B used exceeds {capacity} B")
        plane = self._plane(name, block.shape[:-1], block.dtype, count, element_bits)
        plane.data[..., r, run, :count] = block.reshape(block.shape[:-1] + (pes, count))
        plane.count[r, run] = count
        self._used[r, run] = after

    def _run(self, row: int, starts: range, width: int, name: str):
        """(plane, comb, count) of the blocks ``name`` on the comb of PEs
        (row, s + j), s in ``starts``, 0 <= j < ``width``, which must all hold
        one of the same count; comb is (row, start, period, spans, width)."""
        if not isinstance(starts, range) or starts.step < 1:
            raise TypeError(f"columns must be an increasing range, not {starts!r}")
        if not len(starts) or width < 1:
            raise ValueError("span is empty")
        if len(starts) > 1 and starts.step < width:
            raise ValueError(f"spans of {width} PEs {starts.step} apart overlap")
        row = self._require_pe((row, starts[0]))[0]
        self._require_pe((row, starts[-1] + width - 1))
        comb = (row, starts[0], starts.step, len(starts), width)
        plane = self._planes.get(name, self._empty)
        counts = _comb(plane.count, comb)
        if not counts.all():
            raise KeyError(f"PE {_pe(comb, np.argmin(counts))} holds no array named {name!r}")
        count = int(counts[0, 0])
        if (counts != count).any():
            raise ValueError(f"blocks of {name!r} on row {row} differ in element count")
        return plane, comb, count

    def pe_fetch(self, pe, name: str) -> np.ndarray:
        """The block ``name`` on ``pe``: a read-only view, shape (*batch, count),
        that shows later writes while its plane lasts (see the module docstring)."""
        return self.span_fetch(pe[0], range(pe[1], pe[1] + 1), name)[..., 0, :]

    def pe_element_bits(self, pe, name: str) -> int:
        """The modelled size in bits of one element of ``name``, held on ``pe``."""
        return self._run(pe[0], range(pe[1], pe[1] + 1), 1, name)[0].bits

    def span_fetch(self, row: int, cols: range, name: str) -> np.ndarray:
        """The named blocks of PEs (row, c), c in ``cols``, stacked on axis -2:
        shape (*batch, len(cols), count), read-only: a view of the plane, so
        later writes show through it until a store or landing that widens or
        promotes the plane replaces it."""
        view = self.comb_view(row, cols, 1, name)[..., 0, :]
        view.flags.writeable = False
        return view

    def comb_view(self, row: int, starts: range, width: int, name: str) -> np.ndarray:
        """The named blocks of the comb of PEs (row, s + j), s in ``starts``,
        0 <= j < ``width``, as one writable view of the plane, shape
        (*batch, len(starts), width, count): host arithmetic writes through
        it in place.  The spans must not overlap, and every PE must hold a
        block of the same count.  A store or landing that widens or promotes
        the plane replaces it, and the view then writes to the old buffer."""
        plane, comb, count = self._run(row, starts, width, name)
        return _comb(plane.data, comb, count)

    def pe_delete(self, pe, name: str) -> None:
        plane, (r, c, *_), count = self._run(pe[0], range(pe[1], pe[1] + 1), 1, name)
        self._used[r, c] -= count * plane.bits // 8
        plane.count[r, c] = 0

    def pe_names(self, pe) -> tuple[str, ...]:
        r, c = self._require_pe(pe)
        return tuple(sorted(name for name, plane in self._planes.items() if plane.count[r, c]))

    # -------------------- slides --------------------

    def slide_phase(self, descs: list[SlideDescriptor]) -> PhaseReport:
        """Execute concurrent slides as one synchronous phase.

        All descriptors move together; the phase's wall clock is the maximum
        per-PE time over every participant and is booked once (transfer plus
        one ramp charge).  The move is atomic: capacity and grid checks pass
        for every destination before any data is touched.  Each (PE, name)
        may be lifted by at most one descriptor and landed on by at most one,
        so a phase can neither drop nor duplicate a block.

        A comb counts as its spans, in column order, and the error raised is
        the first that moving the spans in order, PE by PE, would meet: a span
        empty or off the grid (after the blocks of the spans before it), a
        missing block, a wrong element size, a block lifted twice or landed on
        twice; then a PE over capacity, in the order the moves touch PEs; then
        a destination that already holds the name; last, in descriptor order,
        a comb whose batch shape or element size is not its destination name's
        (a new name's is its first comb's).  Every plane, the lifted and
        landed mark planes per name included, is read and written through one
        strided view per comb.  Each moving comb is costed at its largest
        count.  The commit copies each comb's blocks from its view of the
        source plane into the same view of the destination plane.
        """
        config = self.config
        rows, cols = config.rows, config.cols
        for d in descs:
            if d.repeats < 1 or (d.repeats > 1 and d.period < d.col_stop - d.col_start):
                raise ValueError(f"comb of {d.repeats} spans of {d.col_stop - d.col_start} PEs "
                                 f"{d.period} apart: it needs at least one span and no overlap")

        # Each comb as (row, start, period, spans, width), up to its first
        # span that is empty or off the grid.  Spans step right, so only the
        # right edge can cut a comb short.  A move holds its source comb and
        # its destination comb.
        lifted = defaultdict(lambda: np.zeros(self.shape, bool))    # name -> PEs lifted from
        landed = defaultdict(lambda: np.zeros(self.shape, bool))    # name -> PEs landed on
        moves = []      # (descriptor, source, destination name, destination, counts)
        for d in descs:
            (d_row, d_col), width, row = d.displacement, d.col_stop - d.col_start, d.row
            edge = min(cols, cols - d_col)      # no span's source may stop past it
            spans = 0
            if (width > 0 and 0 <= row < rows and 0 <= row + d_row < rows
                    and max(0, -d_col) <= d.col_start and d.col_stop <= edge):
                spans = min(d.repeats, (edge - d.col_stop) // max(d.period, 1) + 1)
            error = None        # raised after the block checks of the spans before it
            if spans < d.repeats:
                start, stop = d.col_start + spans * d.period, d.col_stop + spans * d.period
                if width <= 0:
                    error = ValueError("slide source span is empty")
                elif not (0 <= row < rows and start >= 0 and stop <= cols):
                    error = OffGridError(f"slide source PEs ({row}, {start}..{stop - 1}) "
                                         f"outside {rows}x{cols} grid")
                else:
                    error = OffGridError(f"slide destination PEs ({row + d_row}, {start + d_col}"
                                         f"..{stop - 1 + d_col}) outside {rows}x{cols} grid")
                if not spans:
                    raise error
            src = (row, d.col_start, d.period, spans, width)
            dest, dst = d.dest_name or d.name, (row + d_row, d.col_start + d_col, *src[2:])
            plane = self._planes.get(d.name, self._empty)
            # The counts are copied out: the commit clears the source's counts.
            count, wrong_size = _comb(plane.count, src).copy(), plane.bits != d.element_bits
            twice_lifted, twice_landed = _comb(lifted[d.name], src), _comb(landed[dest], dst)
            failed = np.flatnonzero((count == 0) | wrong_size | twice_lifted | twice_landed)
            if len(failed):
                i = failed[0]
                pe = _pe(src, i)
                if not count.flat[i]:
                    raise KeyError(f"PE {pe} holds no array named {d.name!r}")
                if wrong_size:
                    raise ValueError(f"{d.name!r} on PE {pe} is stored as {plane.bits}-bit "
                                     f"elements, descriptor says {d.element_bits}")
                if twice_lifted.flat[i]:
                    raise ValueError(f"{d.name!r} on PE {pe} is lifted by two slides")
                raise ValueError(f"two slides land on {dest!r} at PE {_pe(dst, i)}")
            if error is not None:
                raise error
            twice_lifted[...] = twice_landed[...] = True
            moves.append((d, src, dest, dst, count))

        # The usage after the phase: each moving comb (zero-hop moves are
        # renames) takes its bytes from its source view to its destination.
        moving = [move for move in moves if move[0].hops]
        used = self._used.copy()
        for d, src, _, dst, count in moving:
            _comb(used, src)[...] -= count * (d.element_bits // 8)
            _comb(used, dst)[...] += count * (d.element_bits // 8)
        over = used > config.local_memory_bytes
        for _, src, _, dst, _ in moving if over.any() else []:
            failed = np.flatnonzero(np.stack([_comb(over, src), _comb(over, dst)], axis=-1))
            if len(failed):     # the first PE over capacity, in touch order
                i, lands = divmod(int(failed[0]), 2)
                pe = _pe(dst if lands else src, i)
                raise CapacityExceeded(f"PE {pe}: incoming slide data would exceed "
                                       f"{config.local_memory_bytes} B of local memory")
        for _, _, dest, dst, _ in moves:
            held = _comb(self._planes.get(dest, self._empty).count, dst)
            taken = (held != 0) & ~_comb(lifted[dest], dst)
            if taken.any():
                raise ValueError(f"PE {_pe(dst, taken.argmax())} already holds an array "
                                 f"named {dest!r}")

        # Commit, one descriptor at a time: lift each comb as a view of its
        # source plane, copied out only if that plane also takes landings;
        # nothing has changed yet, so the batch-shape and element-size checks
        # may still raise.  Then land each comb into the same view of its
        # destination plane, and move the counts and usage the checks read.
        kinds: dict[str, _Plane] = {}       # dest -> its plane, else its first comb's source
        lifts = []
        for d, src, dest, dst, count in moves:
            source = self._planes[d.name]
            kind = kinds.setdefault(dest, self._planes.get(dest, source))
            if kind.data.shape[:-3] != source.data.shape[:-3]:
                raise ValueError(f"blocks of {d.name!r} and {dest!r} differ in batch shape")
            if kind.bits != source.bits:
                raise ValueError(f"blocks of {d.name!r} and {dest!r} differ in element size")
            blocks = _comb(source.data, src, int(count.max()))
            lifts.append((source, src, dest, blocks.copy() if d.name in landed else blocks, dst))
        for source, src, dest, blocks, dst in lifts:
            plane = self._plane(dest, blocks.shape[:-3], blocks.dtype, blocks.shape[-1],
                                source.bits)
            _comb(plane.data, dst, blocks.shape[-1])[...] = blocks
            _comb(source.count, src)[...] = 0
        for _, _, dest, dst, count in moves:
            _comb(self._planes[dest].count, dst)[...] = count
        self._used = used

        if not moving:
            return PhaseReport(Fraction(0), 0, 0, 0, 0)
        # One closed form per moving comb, at its largest count: a PE's time
        # never falls as its count grows.
        max_time = config.ramp_cycles + max(
            config.element_cost(d.element_bits) * int(count.max())
            + config.pipeline_fill_cycles_per_hop * (d.hops - 1)
            for d, *_, count in moving)
        elements = sum(int(count.sum()) for *_, count in moving)
        hops_total = sum(d.hops * int(count.sum()) for d, *_, count in moving)

        transfer = math.ceil(max_time - config.ramp_cycles)
        self.ledger.transfer_cycles += transfer
        self.ledger.ramp_cycles += config.ramp_cycles
        self.ledger.elements_moved += elements
        self.ledger.element_hops += hops_total
        self.wall_clock_cycles += config.ramp_cycles + transfer
        return PhaseReport(
            exact_cycles=max_time,
            booked_cycles=config.ramp_cycles + transfer,
            elements=elements,
            element_hops=hops_total,
            participants=sum(count.size for *_, count in moving),
        )

    # -------------------- compute --------------------

    def record_compute(self, flops: int, max_flops_per_pe: int) -> None:
        """Book one parallel compute phase.

        ``flops`` is the total volume over all PEs; ``max_flops_per_pe``, the
        volume of the busiest PE (at most the total), sets how far the wall
        clock advances.
        """
        if flops < 0:
            raise ValueError("FLOP count must be non-negative")
        if not 0 <= max_flops_per_pe <= flops:
            raise ValueError(f"per-PE FLOPs {max_flops_per_pe} outside 0..{flops}")
        self.ledger.flops += flops
        self.ledger.compute_cycles += math.ceil(self.config.cycles_per_flop * flops)
        self.wall_clock_cycles += math.ceil(self.config.cycles_per_flop * max_flops_per_pe)

    def ledger_report(self) -> CycleLedger:
        return replace(self.ledger)


def mesh_create(config: MeshConfig) -> Mesh:
    return Mesh(config)
