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
plus ramp.  Every PE of a comb moves E elements, its name's one block
count, so that maximum is evaluated once per moving comb, not once per PE.
Compute is booked separately as total FLOP volume times cycles_per_flop,
with the per-phase maximum over PEs advancing the wall clock.  Each cost is
worked out from the mesh's frozen config where it is booked.

Each stored name is a data plane (*batch, rows, cols, count) and a bool
holds plane (True where a PE holds a block of the name).  The name's kind,
its batch shape, element size, block count and dtype, is fixed when the
plane is made, and blocks of another kind are refused; a slide's element
size is its source name's.  The holds plane is the one record of what a
PE holds, and a PE's bytes are derived from it: the sum, over the names it
holds, of count * element_bits // 8.  A name's planes, once made, last as
long as the mesh and are never replaced, and a name never stored reads as
one shared plane that holds nothing.  Blocks go in as arrays or raw bytes
(uint8), on a run of PEs in one row per call (:meth:`Mesh.pe_store`: each
PE takes one equal part of the elements), and a store is atomic: it checks
every PE of the run before it writes any.  :meth:`Mesh.pe_fetch` and
:meth:`Mesh.span_fetch` (one name on a range of PEs in a row, blocks on
axis -2) return read-only views; :meth:`Mesh.comb_view` returns one name
on a comb of PEs as a writable view, so host arithmetic runs in place,
batched across PEs.  Every view shows later writes to its blocks.  A slide
phase reads and writes every plane, data, holds or mark, through one
strided view per comb (``_comb``), as the fetches and comb views read
theirs: it checks each comb on those views, then commits it as one copy
from its view of the source plane into the same view of the destination
plane (through a temporary only when the source plane also takes landings
in that phase).  It keeps a mark plane of the PEs a name is lifted from or
landed on only for a name that two combs meet, and sums each PE's bytes
over the grid only when one block of every stored name, plus one of each
moving comb's source name, would not fit local memory.  Stores and the
other per-PE calls index the planes directly.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
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


def _count(value, name: str) -> int:
    """``value`` as an int, by ``operator.index``; else a TypeError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {value!r}") from None


@dataclass(frozen=True)
class MeshConfig:
    """A grid and its costs.  An ``int`` field is a count, taken with
    ``_count`` (1.5 raises a TypeError naming the field), at least 1 for
    rows, cols and packet_bits, else 0.  The other fields are costs, exact
    Fractions (a float means its decimal text), at least 0."""

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
        for f in fields(self):
            if isinstance(f.default, int):
                value = _count(getattr(self, f.name), f.name)
                least = 1 if f.name in ("rows", "cols", "packet_bits") else 0
            else:
                value, least = _as_fraction(getattr(self, f.name)), 0
            if value < least:
                raise ValueError(f"{f.name} must be at least {least}")
            object.__setattr__(self, f.name, value)

    def element_cost(self, element_bits: int) -> Fraction:
        """Cycles per element per hop: packet cost plus fixed overhead."""
        _require_element_bits(element_bits)
        return (Fraction(element_bits, self.packet_bits) * self.cycles_per_packet_per_hop
                + self.per_element_overhead_cycles)


def _require_element_bits(element_bits: int) -> None:
    """Refuse an element size that no mesh stores, whatever its config: a
    ValueError unless it is a positive multiple of 8 bits, and a TypeError
    unless it is rational (64.0, say), which Fraction raises."""
    if element_bits < 1 or element_bits % 8:
        raise ValueError("element size must be a positive multiple of 8 bits")
    Fraction(element_bits, 8)


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
    |d_row| + |d_col|.  A slide says where blocks go, not what they are:
    their element size and count are the source name's."""

    row: int
    col_start: int
    col_stop: int
    name: str
    displacement: tuple[int, int]
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
    ``booked_cycles`` is the integer amount added to the ledger.  ``blocks``
    counts the moving (PE, name) pairs, not PEs: a PE that sends two blocks
    in one phase counts twice.
    """

    exact_cycles: Fraction
    booked_cycles: int
    elements: int
    element_hops: int
    blocks: int


@dataclass
class _Plane:
    """One stored name: where ``holds[r, c]``, PE (r, c) holds
    ``data[..., r, c, :]``, ``count`` elements of ``bits`` bits; elsewhere
    the data mean nothing.  Its kind is the one the plane was made with."""

    data: np.ndarray      # (*batch, rows, cols, count)
    holds: np.ndarray     # (rows, cols) bool
    bits: int             # 0 only for a name never stored

    @property
    def count(self) -> int:
        return self.data.shape[-1]

    @property
    def block_bytes(self) -> int:
        return self.count * self.bits // 8

    @property
    def kind(self) -> tuple:
        return self.data.shape[:-3], self.bits, self.count, self.data.dtype


def _refuse_other_kind(name: str, kind: tuple, other: tuple) -> None:
    """Refuse blocks of kind ``other`` under ``name``, of kind ``kind``,
    naming the first of batch shape, element size, count and dtype that
    differs."""
    for what, have, got in zip(("batch shape", "element size", "element count", "dtype"),
                               kind, other):
        if have != got:
            raise ValueError(f"blocks of {name!r} have {what} {have}, not {got}")


def _comb(plane: np.ndarray, comb: tuple) -> np.ndarray:
    """A view of a plane on the PEs (row, start + i*period + j) of ``comb`` =
    (row, start, period, spans, width): shape (spans, width) of a (rows,
    cols) plane, or (*batch, spans, width, count) of a data plane (*batch,
    rows, cols, count), whose last axis is the only one past its grid
    axes.  Planes are whole, so C-contiguous, and the view is built on the
    buffer directly, which takes a fifth of the time of
    ``np.lib.stride_tricks.as_strided``."""
    row, start, period, spans, width = comb
    grid = plane.ndim - (plane.ndim > 2)        # one past the column axis
    *batch, row_stride, col_stride = plane.strides[:grid]
    return np.ndarray(plane.shape[:grid - 2] + (spans, width) + plane.shape[grid:], plane.dtype,
                      plane, row * row_stride + start * col_stride,
                      (*batch, period * col_stride, col_stride) + plane.strides[grid:])


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
        nowhere = np.zeros(self.shape, bool)
        nowhere.flags.writeable = False
        self._empty = _Plane(np.empty(self.shape + (0,)), nowhere, 0)    # a name never stored

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

    def _plane(self, name: str, kind: tuple) -> _Plane:
        """The planes of ``name``, made for blocks of ``kind`` if it has none
        (an existing plane must be of that kind: callers check it).  The data
        of a PE that holds no block is never read, so it is left
        uninitialised."""
        plane = self._planes.get(name)
        if plane is None:
            batch, bits, count, dtype = kind
            plane = self._planes[name] = _Plane(np.empty(batch + self.shape + (count,), dtype),
                                                np.zeros(self.shape, bool), bits)
        return plane

    def _usage(self, pes=(slice(None), slice(None))) -> np.ndarray:
        """The bytes each PE of ``pes``, an index of the grid, holds: the sum
        over the names it holds of their block sizes."""
        used = np.zeros_like(self._empty.holds[pes], np.int64)
        for plane in self._planes.values():
            np.add(used, plane.block_bytes, out=used, where=plane.holds[pes])
        return used

    def pe_used(self, pe) -> int:
        r, c = self._require_pe(pe)
        return int(self._usage((r, slice(c, c + 1)))[0])

    def pe_store(self, pe, name: str, data, element_bits: int = 8, pes: int = 1) -> None:
        """Copy a named block onto each PE of a run, enforcing local memory
        capacity: PE (row, col + i) of ``pe`` = (row, col) takes the i-th of
        ``pes`` equal parts of the elements.

        ``data`` is raw bytes (a uint8 block, one element per byte) or an
        ndarray whose last axis holds the elements; ``element_bits`` declares
        the modelled wire size of one element.  A name keeps the kind (batch
        shape, element size, count and dtype) of its first block.  Elements
        that do not split into ``pes`` equal parts are refused first.  The
        store is atomic: it raises the error that storing the parts one PE at
        a time, in column order, would meet first, and then it has stored
        nothing.
        """
        block = (np.frombuffer(data, dtype=np.uint8)
                 if isinstance(data, (bytes, bytearray, memoryview)) else np.asarray(data))
        if pes < 1 or (block.ndim and block.shape[-1] % pes):
            raise ValueError(f"{block.shape[-1] if block.ndim else 0} elements do not split "
                             f"into {pes} equal blocks")
        r, c = self._require_pe(pe)
        _require_element_bits(element_bits)
        if block.ndim < 1 or block.shape[-1] < 1:
            raise ValueError("a block needs at least one element")
        count = block.shape[-1] // pes
        kind = (block.shape[:-1], element_bits, count, block.dtype)
        size = count * element_bits // 8
        capacity = self.config.local_memory_bytes
        plane = self._planes.get(name, self._empty)
        run = slice(c, c + pes)         # cut short at the grid's right edge
        after = self._usage((r, run)) + size
        # The first PE that the one-PE stores would fail at: over capacity,
        # holding the name, or past the grid's edge (pes if none); PE 0's
        # store ends by checking the name's kind.
        i = int(np.append((after > capacity) | plane.holds[r, run], True).argmax())
        if i and name in self._planes:
            _refuse_other_kind(name, plane.kind, kind)
        if i < pes:
            at = self._require_pe((r, c + i))      # raises past the grid's edge
            if plane.holds[at]:
                raise ValueError(f"PE {at} already holds an array named {name!r}")
            raise CapacityExceeded(f"PE {at}: storing {size} B of {name!r} over "
                                   f"{after[i] - size} B used exceeds {capacity} B")
        plane = self._plane(name, kind)
        plane.data[..., r, run, :] = block.reshape(block.shape[:-1] + (pes, count))
        plane.holds[r, run] = True

    def _run(self, row: int, starts: range, width: int, name: str):
        """(plane, comb) of the blocks ``name`` on the comb of PEs (row, s + j),
        s in ``starts``, 0 <= j < ``width``, which must all hold one; comb is
        (row, start, period, spans, width)."""
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
        holds = _comb(plane.holds, comb)
        if not holds.all():
            raise KeyError(f"PE {_pe(comb, np.argmin(holds))} holds no array named {name!r}")
        return plane, comb

    def pe_fetch(self, pe, name: str) -> np.ndarray:
        """The block ``name`` on ``pe``: a read-only view, shape (*batch, count),
        that shows later writes."""
        return self.span_fetch(pe[0], range(pe[1], pe[1] + 1), name)[..., 0, :]

    def pe_element_bits(self, pe, name: str) -> int:
        """The modelled size in bits of one element of ``name``, held on ``pe``."""
        return self._run(pe[0], range(pe[1], pe[1] + 1), 1, name)[0].bits

    def span_fetch(self, row: int, cols: range, name: str) -> np.ndarray:
        """The named blocks of PEs (row, c), c in ``cols``, stacked on axis -2:
        shape (*batch, len(cols), count), read-only: a view of the plane, so
        later writes show through it."""
        view = self.comb_view(row, cols, 1, name)[..., 0, :]
        view.flags.writeable = False
        return view

    def comb_view(self, row: int, starts: range, width: int, name: str) -> np.ndarray:
        """The named blocks of the comb of PEs (row, s + j), s in ``starts``,
        0 <= j < ``width``, as one writable view of the plane, shape
        (*batch, len(starts), width, count): host arithmetic writes through
        it in place.  The spans must not overlap, and every PE must hold a
        block."""
        plane, comb = self._run(row, starts, width, name)
        return _comb(plane.data, comb)

    def pe_names(self, pe) -> tuple[str, ...]:
        r, c = self._require_pe(pe)
        return tuple(sorted(name for name, plane in self._planes.items() if plane.holds[r, c]))

    # -------------------- slides --------------------

    def slide_phase(self, descs: Sequence[SlideDescriptor]) -> PhaseReport:
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
        missing block, a block lifted twice or landed on twice; then a PE over
        capacity, in the order the moves touch PEs; then a destination that
        already holds the name; last, in descriptor order, a comb whose kind
        (batch shape, element size, count, dtype) is not its destination
        name's (a new name's is its first comb's).  Every plane, holds and
        mark planes included, is read and written through one strided view
        per comb; a name has lifted and landed mark planes only if two combs
        meet it.  The capacity check sums each PE's bytes over the grid, from
        the holds planes, only when its exact upper bound, one block of every
        stored name plus one of each moving comb's source name, exceeds local
        memory.  Each moving comb is costed at its source name's element size
        and count, in closed form from the mesh's config.  The commit copies
        each comb's blocks from its view of the source plane into the same
        view of the destination plane, and moves the holds marks.
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
        # its destination comb.  A comb's spans never overlap, so only a name
        # that two combs meet needs a plane marking the PEs it is lifted
        # from, or landed on, so far.
        sources = [d.name for d in descs]
        dests = [d.dest_name or d.name for d in descs]
        lifted = {name: np.zeros(self.shape, bool) for name in sources
                  if sources.count(name) > 1 or name in dests}
        landed = {name: np.zeros(self.shape, bool) for name in dests if dests.count(name) > 1}
        moves = []      # (descriptor, source, dest name, destination, source plane, its holds)
        for d, dest in zip(descs, dests):
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
            dst = (row + d_row, d.col_start + d_col, *src[2:])
            plane = self._planes.get(d.name, self._empty)
            held = _comb(plane.holds, src)
            marks = [_comb(mark, comb) for mark, comb in ((lifted.get(d.name), src),
                                                          (landed.get(dest), dst))
                     if mark is not None]
            failed = ~held
            for mark in marks:
                failed |= mark
            if failed.any():
                i = int(failed.argmax())
                pe = _pe(src, i)
                if not held.flat[i]:
                    raise KeyError(f"PE {pe} holds no array named {d.name!r}")
                if d.name in lifted and lifted[d.name][pe]:
                    raise ValueError(f"{d.name!r} on PE {pe} is lifted by two slides")
                raise ValueError(f"two slides land on {dest!r} at PE {_pe(dst, i)}")
            if error is not None:
                raise error
            for mark in marks:
                mark[...] = True
            moves.append((d, src, dest, dst, plane, held))

        # The usage after the phase: each moving comb (zero-hop moves are
        # renames) takes its bytes from its source view to its destination.
        # A PE holds at most one block of each stored name and takes at most
        # one landing from each moving comb, so the grid's bytes are summed
        # only when one block of every stored name and of every moving
        # comb's source name could exceed local memory.
        moving = [move for move in moves if move[0].hops]
        bound = (sum(plane.block_bytes for plane in self._planes.values())
                 + sum(plane.block_bytes for *_, plane, _ in moving))
        if bound > config.local_memory_bytes:
            used = self._usage()
            for _, src, _, dst, plane, _ in moving:
                _comb(used, src)[...] -= plane.block_bytes
                _comb(used, dst)[...] += plane.block_bytes
            over = used > config.local_memory_bytes
            for _, src, _, dst, _, _ in moving if over.any() else []:
                failed = np.flatnonzero(np.stack([_comb(over, src), _comb(over, dst)], axis=-1))
                if len(failed):     # the first PE over capacity, in touch order
                    i, lands = divmod(int(failed[0]), 2)
                    pe = _pe(dst if lands else src, i)
                    raise CapacityExceeded(f"PE {pe}: incoming slide data would exceed "
                                           f"{config.local_memory_bytes} B of local memory")
        for _, _, dest, dst, _, _ in moves:
            taken = _comb(self._planes.get(dest, self._empty).holds, dst)
            if dest in lifted:
                taken = taken & ~_comb(lifted[dest], dst)
            if taken.any():
                raise ValueError(f"PE {_pe(dst, taken.argmax())} already holds an array "
                                 f"named {dest!r}")

        # Commit, one descriptor at a time: lift each comb as a view of its
        # source plane, copied out only if that plane also takes landings;
        # nothing has changed yet, so the kind check may still raise.  Then
        # land each comb into the same view of its destination plane, and
        # move the holds marks.
        kinds: dict[str, tuple] = {}        # dest -> its kind, else its first comb's
        lifts = []
        for d, src, dest, dst, source, _ in moves:
            _refuse_other_kind(dest, kinds.setdefault(dest, self._planes.get(dest, source).kind),
                               source.kind)
            blocks = _comb(source.data, src)
            lifts.append((source.kind, dest, blocks.copy() if d.name in dests else blocks, dst))
        for kind, dest, blocks, dst in lifts:
            _comb(self._plane(dest, kind).data, dst)[...] = blocks
        for *_, held in moves:
            held[...] = False
        for _, _, dest, dst, _, _ in moves:
            _comb(self._planes[dest].holds, dst)[...] = True

        if not moving:
            return PhaseReport(Fraction(0), 0, 0, 0, 0)
        # One closed form per moving comb: each of its spans * width PEs moves
        # its name's one count, ramp included.
        max_time = max(config.ramp_cycles + config.element_cost(plane.bits) * plane.count
                       + config.pipeline_fill_cycles_per_hop * (d.hops - 1)
                       for d, _, _, _, plane, _ in moving)
        moved = [(d.hops, spans * width, plane.count)
                 for d, (*_, spans, width), _, _, plane, _ in moving]
        elements = sum(pes * count for _, pes, count in moved)
        hops_total = sum(hops * pes * count for hops, pes, count in moved)

        booked = math.ceil(max_time)
        self.ledger.transfer_cycles += booked - config.ramp_cycles
        self.ledger.ramp_cycles += config.ramp_cycles
        self.ledger.elements_moved += elements
        self.ledger.element_hops += hops_total
        self.wall_clock_cycles += booked
        return PhaseReport(
            exact_cycles=max_time,
            booked_cycles=booked,
            elements=elements,
            element_hops=hops_total,
            blocks=sum(pes for _, pes, _ in moved),
        )

    # -------------------- compute --------------------

    def record_compute(self, flops: int, max_flops_per_pe: int) -> None:
        """Book one parallel compute phase.

        ``flops`` is the total volume over all PEs; ``max_flops_per_pe``, the
        volume of the busiest PE (at most the total), sets how far the wall
        clock advances.  Both are counts, taken with ``_count``, and each is
        booked as its exact cycles at cycles_per_flop per FLOP, rounded up.
        """
        flops = _count(flops, "flops")
        max_flops_per_pe = _count(max_flops_per_pe, "max_flops_per_pe")
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
