"""Deterministic cycle accounting for a 2D grid of processing elements.

Each PE owns a fixed amount of local memory holding named arrays.  The one
communication primitive is the *slide*: a rigid translation of a span of
per-PE arrays by a common displacement, all participants moving in lockstep.
Costs are charged from a handful of integer/rational parameters, so repeated
runs with the same configuration produce bit-identical ledgers.

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

Host-side work on the stored blocks goes through the span accessors
:meth:`Mesh.span_fetch` and :meth:`Mesh.span_update`, which read and write
one name on a run of PEs in one row as a single stacked array, so arithmetic
is batched across PEs rather than done one block at a time.
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
    """One rigid translation: the named arrays on PEs (row, col_start..col_stop-1)
    move by ``displacement`` = (d_row, d_col), landing under ``dest_name``
    (source name if None).  Hop count is |d_row| + |d_col|."""

    row: int
    col_start: int
    col_stop: int
    name: str
    displacement: tuple[int, int]
    element_bits: int = 32
    dest_name: str | None = None

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
class _Stored:
    data: object            # bytes or ndarray; last axis is the element axis
    element_bits: int
    count: int

    @property
    def model_bytes(self) -> int:
        return self.count * self.element_bits // 8


def _element_count(data) -> int:
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data)
    return np.asarray(data).shape[-1]


class Mesh:
    """A rows x cols grid of PEs with local stores and a shared cycle ledger."""

    def __init__(self, config: MeshConfig):
        self.config = config
        self.ledger = CycleLedger()
        self.wall_clock_cycles = 0
        self._stores: dict[tuple[int, int], dict[str, _Stored]] = {}
        self._used: dict[tuple[int, int], int] = {}

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

    def pe_used(self, pe) -> int:
        return self._used.get(self._require_pe(pe), 0)

    def pe_store(self, pe, name: str, data, element_bits: int = 8) -> None:
        """Place a named array on a PE, enforcing local memory capacity.

        ``data`` may be raw bytes (one element per byte) or an ndarray whose
        last axis holds the elements; ``element_bits`` declares the modeled
        wire size of one element.
        """
        pe = self._require_pe(pe)
        if element_bits < 1 or element_bits % 8:
            raise ValueError("element size must be a positive multiple of 8 bits")
        slot = self._stores.setdefault(pe, {})
        if name in slot:
            raise ValueError(f"PE {pe} already holds an array named {name!r}")
        stored = _Stored(data=data, element_bits=element_bits, count=_element_count(data))
        used = self._used.get(pe, 0)
        if used + stored.model_bytes > self.config.local_memory_bytes:
            raise CapacityExceeded(
                f"PE {pe}: storing {stored.model_bytes} B of {name!r} over "
                f"{used} B used exceeds {self.config.local_memory_bytes} B"
            )
        slot[name] = stored
        self._used[pe] = used + stored.model_bytes

    def pe_fetch(self, pe, name: str):
        pe = self._require_pe(pe)
        try:
            return self._stores[pe][name].data
        except KeyError:
            raise KeyError(f"PE {pe} holds no array named {name!r}") from None

    def _span(self, row: int, cols, name: str) -> list[_Stored]:
        """The stored ``name`` of PEs (row, c), c in ``cols``, in order."""
        if not len(cols):
            raise ValueError("span is empty")
        for col in (min(cols), max(cols)):
            self._require_pe((row, col))
        stores = self._stores
        try:
            return [stores[row, col][name] for col in cols]
        except KeyError:
            col = next(c for c in cols if name not in stores.get((row, c), {}))
            raise KeyError(f"PE {(row, col)} holds no array named {name!r}") from None

    def span_fetch(self, row: int, cols, name: str) -> np.ndarray:
        """Stack the named ndarray blocks of PEs (row, c), c in ``cols``, on
        axis -2: the result has shape (..., len(cols), count)."""
        return np.stack([stored.data for stored in self._span(row, cols, name)], axis=-2)

    def span_update(self, row: int, cols, name: str, blocks) -> None:
        """Write ``blocks[..., i, :]`` back as the named array of PE
        (row, cols[i]), the inverse of :meth:`span_fetch`.  No size may
        change; every PE is checked before any is written."""
        span = self._span(row, cols, name)
        blocks = np.asarray(blocks)
        if blocks.ndim < 2 or blocks.shape[-2] != len(span):
            raise ValueError(f"expected {len(span)} blocks on axis -2, got shape {blocks.shape}")
        if any(stored.count != blocks.shape[-1] for stored in span):
            raise ValueError("updated array must keep its element count")
        for i, stored in enumerate(span):
            stored.data = blocks[..., i, :]

    def pe_delete(self, pe, name: str) -> None:
        pe = self._require_pe(pe)
        stored = self._stores[pe].pop(name)
        self._used[pe] -= stored.model_bytes

    def pe_names(self, pe) -> tuple[str, ...]:
        return tuple(sorted(self._stores.get(self._require_pe(pe), {})))

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

        The per-PE time grows with the block's element count alone, so the
        maximum is taken over (element_bits, hops) groups, each costed once
        at its largest count; grid bounds are checked once per descriptor,
        at the end points of its span.
        """
        config = self.config
        rows, cols = config.rows, config.cols
        stores = self._stores
        deltas: dict[tuple[int, int], int] = {}
        lifted: dict[tuple[tuple[int, int], str], _Stored] = {}
        landing: dict[tuple[tuple[int, int], str], _Stored] = {}
        largest: dict[tuple[int, int], int] = {}    # (element_bits, hops) -> max count
        elements = 0
        hops_total = 0
        participants = 0

        for desc in descs:
            row, start, stop = desc.row, desc.col_start, desc.col_stop
            if stop <= start:
                raise ValueError("slide source span is empty")
            name, bits = desc.name, desc.element_bits
            dr, dc = desc.displacement
            d = desc.hops
            dest_name = desc.dest_name or name
            if not (0 <= row < rows and 0 <= start and stop <= cols):
                raise OffGridError(f"slide source PEs ({row}, {start}..{stop - 1}) "
                                   f"outside {rows}x{cols} grid")
            if not (0 <= row + dr < rows and 0 <= start + dc and stop + dc <= cols):
                raise OffGridError(f"slide destination PEs ({row + dr}, {start + dc}.."
                                   f"{stop - 1 + dc}) outside {rows}x{cols} grid")
            span_elements = 0
            span_largest = 0
            for col in range(start, stop):
                src = (row, col)
                dst = (row + dr, col + dc)
                try:
                    stored = stores[src][name]
                except KeyError:
                    raise KeyError(f"PE {src} holds no array named {name!r}") from None
                if stored.element_bits != bits:
                    raise ValueError(
                        f"{name!r} on PE {src} is stored as {stored.element_bits}-bit "
                        f"elements, descriptor says {bits}"
                    )
                if (src, name) in lifted:
                    raise ValueError(f"{name!r} on PE {src} is lifted by two slides")
                if (dst, dest_name) in landing:
                    raise ValueError(f"two slides land on {dest_name!r} at PE {dst}")
                lifted[src, name] = stored
                landing[dst, dest_name] = stored
                if d > 0:
                    size = stored.model_bytes
                    deltas[src] = deltas.get(src, 0) - size
                    deltas[dst] = deltas.get(dst, 0) + size
                    span_elements += stored.count
                    if stored.count > span_largest:
                        span_largest = stored.count
            if d > 0:
                largest[bits, d] = max(largest.get((bits, d), 0), span_largest)
                elements += span_elements
                hops_total += span_elements * d
                participants += stop - start

        # One closed form per group; the cost never falls as the count grows.
        max_time = max((config.ramp_cycles + config.element_cost(bits) * count
                        + config.pipeline_fill_cycles_per_hop * (d - 1)
                        for (bits, d), count in largest.items()), default=Fraction(0))

        used = self._used
        for pe, delta in deltas.items():
            if used.get(pe, 0) + delta > config.local_memory_bytes:
                raise CapacityExceeded(
                    f"PE {pe}: incoming slide data would exceed "
                    f"{config.local_memory_bytes} B of local memory"
                )
        for dst, dest_name in landing:
            if dest_name in stores.get(dst, {}) and (dst, dest_name) not in lifted:
                raise ValueError(f"PE {dst} already holds an array named {dest_name!r}")

        # Commit: lift every source, land every destination, apply the usage
        # the capacity check summed (zero-hop moves change none).
        for src, name in lifted:
            del stores[src][name]
        for (dst, dest_name), stored in landing.items():
            stores.setdefault(dst, {})[dest_name] = stored
        for pe, delta in deltas.items():
            used[pe] = used.get(pe, 0) + delta

        if not participants:
            return PhaseReport(Fraction(0), 0, 0, 0, 0, 0, 0)

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
            participants=participants,
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
