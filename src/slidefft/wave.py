"""Distributed radix-2 FFT over a 1D wave of mesh PEs.

A transform of n = 2**m points runs on a wave of 2**k consecutive PEs in one
grid row, each holding 2**(m-k) elements of the permuted input as one
contiguous block.  Levels whose segment pairs fit inside a PE run locally;
the rest slide, on the schedule that :func:`level_plan` records from the
layout alone and :func:`slide_fft` runs: the overlay, or the midpoint
(``midpoint=True``).  Across m <= 12 under the default cs2-calibrated costs
the midpoint never takes longer and is often much faster (1424 vs 2446
wall-clock cycles at n=1024, k=10), but moves up to 1.9x the elements;
under pure-packet both cost the same.  :func:`transfer_budget` describes
the overlay.

Planning reserves three buffers of the block size per PE, which bounds the
feasible wave lengths for a given local memory size.  A level holds at most
two at once (resident block and incoming segment); the third is headroom.

The host does the arithmetic in place, on writable views of the mesh's
planes (:meth:`Mesh.comb_view`), as a PE computes a crossing in its own
memory, and every level runs the one butterfly of
:func:`slidefft.serial.butterfly`, R over O and then L over E: the local
levels (always the first ones) run in one pass, each group of PEs merged
level by level in its view of the wave's plane, as ``fft_serial`` merges
its permuted copy; each sliding level runs one butterfly per group of
meeting sites, with O in ``__incoming`` and E in the wave's plane.
Groups hold about GROUP_ELEMENTS elements, not the whole wave, because
whole-wave temporaries cost memory and time on large blocks (see
GROUP_ELEMENTS).  Every level's twiddles come from the one exp table of
``twiddle_table(n)``.  Compute is still booked once per level, in level
order.

Values are carried in double precision regardless of the modeled wire size
``element_bits`` (64 bits models a complex single-precision datum).  Inputs
may be batched as (batch, n); the batch rides along as extra vector lanes
while capacity and cycle accounting describe a single transform, whose
booked costs are identical for every batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .mesh import CapacityExceeded, Mesh, SlideDescriptor, _count, _require_element_bits
from .model import EfficiencyReport
from .serial import (FLOPS_PER_PAIR, _as_samples, build_permutation, butterfly,
                     log2_exact, merge_level, twiddle_table)

# Block-size buffers reserved per PE: two in use at once, plus headroom.
BUFFER_FACTOR = 3

# Stored names: the wave's blocks, and the odd segments that slide in.
_WAVE = "wave"
_INCOMING = "__incoming"

# Host arithmetic runs on groups of about this many elements of the
# transform, not on the whole wave at once: a group bounds a butterfly's
# U*O temporary to half a group, 64 KiB per transform of the batch.
# bench-fft --n 1048576 --k 8 --element-bits 32 (256 PEs of 4096
# elements), as the medians of three 4-s perfbench/run.py windows each on
# a shared 2-vCPU Xeon: 0.285-0.301 s and 76.3 MiB peak RSS with groups of
# this size, 0.304-0.308 s and 88.2 MiB with the whole wave as one group;
# groups of 2**12 and 2**15 peaked at 76.2 and 77.2 MiB.
GROUP_ELEMENTS = 1 << 13


@dataclass(frozen=True)
class WaveLayout:
    """Placement of one n-point transform on a wave of 2**k PEs."""

    n: int
    m: int
    k: int
    origin: tuple[int, int]
    elements_per_pe: int
    element_bits: int
    name: ClassVar[str] = _WAVE

    @property
    def pe_count(self) -> int:
        return 1 << self.k


@dataclass(frozen=True)
class LevelDescriptor:
    """One transform level: segment pairs of size N, and whether both
    segments of a crossing are co-resident on single PEs.  A sliding level
    also holds its phases ``out`` and ``back``, at most two combs each, and
    ``sites``, the starts of its meeting spans of sites.step // 2 PEs."""

    segment_pair: int
    local: bool
    out: tuple[SlideDescriptor, ...] = ()
    sites: range = range(0)
    back: tuple[SlideDescriptor, ...] = ()


@dataclass(frozen=True)
class TransferBudget:
    """Predicted slide volume of one run of the overlay schedule."""

    elements_moved: int


def min_feasible_k(n: int, element_bits: int, local_memory_bytes: int) -> int | None:
    """Smallest wave length whose per-PE buffers fit local memory, or None.
    Refuses an element size that no mesh stores, with the mesh's message."""
    _require_element_bits(element_bits)
    m = log2_exact(n)
    for k in range(m + 1):
        if BUFFER_FACTOR * (n >> k) * element_bits // 8 <= local_memory_bytes:
            return k
    return None


def plan_wave(n: int, k: int, element_bits: int, mesh: Mesh,
              origin: tuple[int, int] = (0, 0)) -> WaveLayout:
    """Lay out an n-point transform on 2**k PEs starting at ``origin``.

    k is a count, so 2.0 raises a TypeError that names it.  The wave fits
    when k is at least :func:`min_feasible_k`; otherwise this raises
    CapacityExceeded carrying that k.  It raises ValueError for an
    element size the mesh does not store, then the mesh's grid rule on the
    wave's first and last PE: OffGridError naming that PE (a wave that runs
    off the grid names its last PE, not ``origin``), or TypeError for a float.
    """
    m, k = log2_exact(n), _count(k, "k")
    if not 0 <= k <= m:
        raise ValueError(f"wave length k={k} must lie in 0..{m} for n={n}")
    memory = mesh.config.local_memory_bytes
    kmin = min_feasible_k(n, element_bits, memory)
    if kmin is None or k < kmin:
        raise CapacityExceeded(
            f"k={k}: {BUFFER_FACTOR} buffers of {n >> k} {element_bits}-bit elements per PE "
            f"exceed local memory of {memory} B; "
            + (f"minimal feasible k is {kmin}" if kmin is not None else "no wave length fits"),
            min_feasible_k=kmin,
        )
    row, col = mesh._require_pe(origin)     # the wave's first PE, then its last
    mesh._require_pe((row, col + (1 << k) - 1))
    return WaveLayout(n=n, m=m, k=k, origin=(row, col),
                      elements_per_pe=n >> k, element_bits=element_bits)


def level_plan(layout: WaveLayout, midpoint: bool = False) -> list[LevelDescriptor]:
    """Levels p = m .. 1 with segment-pair sizes N = 2, 4, ..., n: the
    schedule :func:`slide_fft` runs, built from the layout alone.

    A level is local exactly when a whole crossing (N elements) fits on one
    PE, i.e. N <= elements_per_pe.  Otherwise each crossing's E segment of
    span PEs slides right by a shift and its O segment left by span - shift
    onto the meeting sites, then both slide back: shift 0 is the overlay (O
    lands on E), span // 2 the midpoint.  No phase holds a zero-hop comb."""
    e, w, (row, col0) = layout.elements_per_pe, layout.name, layout.origin
    plan = []
    for N in (1 << j for j in range(1, layout.m + 1)):
        span = N // (2 * e)     # PEs per segment, 0 for a local level
        if not span:
            plan.append(LevelDescriptor(N, True))
            continue
        h = span // 2 if midpoint else 0
        sites = range(col0 + h, col0 + layout.pe_count, 2 * span)
        # legs of (offset from the base, name, landing name, columns moved)
        out, back = (tuple(SlideDescriptor(row, col0 + at, col0 + at + span, name, (0, d), dest,
                                           period=sites.step, repeats=len(sites))
                           for at, name, dest, d in legs if d)
                     for legs in (((0, w, w, h), (span, w, _INCOMING, h - span)),
                                  ((h, w, w, -h), (h, _INCOMING, w, span - h))))
        plan.append(LevelDescriptor(N, False, out, sites, back))
    return plan


def distribute(x, layout: WaveLayout, mesh: Mesh) -> None:
    """Store the input across the wave in permuted order, block-contiguous:
    PE j holds permuted elements [j*e, (j+1)*e).  One store of the whole
    wave, atomic: if any PE cannot take its block, none is stored.  A
    host-side load, not a slide: nothing is booked.  ``x`` is rebound to its
    permuted copy, so an input that only this call holds is freed before
    the store."""
    x = _as_samples(x)
    if x.shape[-1] != layout.n:
        raise ValueError(f"expected {layout.n} samples, got {x.shape[-1]}")
    if layout.m >= 1:
        x = x[..., build_permutation(layout.m).final_row]
    mesh.pe_store(layout.origin, layout.name, x, element_bits=layout.element_bits,
                  pes=layout.pe_count)


def _groups(count: int, size: int):
    """Slices of ``count`` items of ``size`` elements each (PEs, crossings
    or rows of one crossing), about GROUP_ELEMENTS elements to a slice;
    every slice but the last has the same power-of-two length."""
    per = max(1, GROUP_ELEMENTS // size)
    return [slice(i, i + per) for i in range(0, count, per)]


def gather(layout: WaveLayout, mesh: Mesh) -> np.ndarray:
    """The wave's blocks as one array (host-side): a read-only view of the
    mesh's wave, so a later transform on the same mesh shows through it."""
    row, col0 = layout.origin
    blocks = mesh.span_fetch(row, range(col0, col0 + layout.pe_count), layout.name)
    return blocks.reshape(blocks.shape[:-2] + (layout.n,))


def _run_local_levels(mesh: Mesh, layout: WaveLayout, tables: tuple[np.ndarray, ...]) -> None:
    """Run every local level, given by its twiddle table, in one pass: each
    group of PEs is merged in place, level by level, in its view of the
    wave's plane."""
    row, col0 = layout.origin
    cols = range(col0, col0 + layout.pe_count)
    for group in _groups(layout.pe_count, layout.elements_per_pe):
        plane = mesh.comb_view(row, cols[group], 1, layout.name)[..., 0, :]
        for factors in tables:
            merge_level(plane, factors)
    for _ in tables:
        mesh.record_compute(FLOPS_PER_PAIR * (layout.n // 2),
                            max_flops_per_pe=FLOPS_PER_PAIR * (layout.elements_per_pe // 2))


def _run_sliding_level(mesh: Mesh, layout: WaveLayout, level: LevelDescriptor,
                       factors: np.ndarray) -> None:
    """Run one sliding level of the plan with twiddle table ``factors``: its
    outbound phase, then L over E and R over O on the meeting sites, then its
    return phase."""
    e, span = layout.elements_per_pe, level.sites.step // 2     # span: PEs per segment
    mesh.slide_phase(level.out)
    # Site t of a meeting span takes twiddle row t.  The sites' comb, viewed
    # in both planes as (*batch, crossings, span, e), is merged in place in
    # groups of rows t, each copied once out of the strided level table and
    # cut into groups of crossings.  The rows take the views' rank: numpy
    # multiplies one element by an operand of lower rank in another loop,
    # which rounds differently.
    evens, odds = (mesh.comb_view(layout.origin[0], level.sites, span, name)
                   for name in (layout.name, _INCOMING))
    rows = factors.reshape(span, e)
    for t in _groups(span, e):
        u = np.ascontiguousarray(rows[t]).reshape((1,) * (evens.ndim - 2) + (-1, e))
        for g in _groups(len(level.sites), span * e):
            butterfly(evens[..., g, t, :], odds[..., g, t, :], u)
    mesh.record_compute(FLOPS_PER_PAIR * (layout.n // 2),
                        max_flops_per_pe=FLOPS_PER_PAIR * e)
    mesh.slide_phase(level.back)


def slide_fft(mesh: Mesh, layout: WaveLayout, midpoint: bool = False) -> np.ndarray:
    """Run the distributed transform in place and gather the spectrum, a
    read-only view of the wave's blocks (see :func:`gather`).

    Produces output identical to :func:`slidefft.serial.fft_serial` (the
    crossings perform the same operations in the same order for every wave
    length, with the same level tables of ``twiddle_table(n)``), with all
    compute, transfer, and ramp cycles booked to the mesh's ledger.  The
    local levels (N <= elements_per_pe) are the first ones, so they run
    together before the first slide.
    """
    tables = twiddle_table(layout.n) if layout.m else ()
    plan = level_plan(layout, midpoint)
    local = sum(level.local for level in plan)
    if local:     # the local tables hold fewer than e elements in all
        _run_local_levels(mesh, layout, tuple(map(np.ascontiguousarray, tables[:local])))
    for level, factors in zip(plan[local:], tables[local:]):
        _run_sliding_level(mesh, layout, level, factors)
    return gather(layout, mesh)


def transfer_budget(layout: WaveLayout) -> TransferBudget:
    """Predicted elements moved by the overlay schedule, in closed form: the
    last k of the m levels slide, each moving n/2 elements out and n/2 back."""
    return TransferBudget(elements_moved=layout.k * layout.n)


def measure_efficiency(ledger) -> EfficiencyReport:
    """Fraction of booked cycles spent computing: compute / total."""
    total = ledger.total_cycles
    if total == 0:
        raise ValueError("ledger holds no booked cycles")
    return EfficiencyReport(eta=Fraction(ledger.compute_cycles, total), flops=ledger.flops)
