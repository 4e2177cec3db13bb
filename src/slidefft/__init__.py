"""Cycle-accounted simulation of a radix-2 FFT sliding across a PE mesh."""

from .serial import (FLOPS_PER_PAIR, FlopCounter, PermutationTable, bit_reverse_index,
                     build_permutation, dft_oracle, fft_serial, ifft_serial, log2_exact,
                     twiddle_table)
from .mesh import (CapacityExceeded, CycleLedger, Mesh, MeshConfig, MeshError,
                   OffGridError, PhaseReport, PRESETS, SlideDescriptor,
                   mesh_create, preset_config)
from .model import (CostModel, EfficiencyReport, MarginCheck, alpha, check_margin,
                    flops_per_transform, predict_efficiency, reconcile)
from .wave import (LevelDescriptor, TransferBudget, WaveLayout, distribute, gather,
                   level_plan, measure_efficiency, min_feasible_k, plan_wave,
                   slide_fft, transfer_budget)

__all__ = [
    "FLOPS_PER_PAIR", "FlopCounter", "PermutationTable",
    "bit_reverse_index", "build_permutation", "dft_oracle",
    "fft_serial", "ifft_serial", "log2_exact", "twiddle_table",
    "CapacityExceeded", "CycleLedger", "Mesh", "MeshConfig", "MeshError",
    "OffGridError", "PhaseReport", "PRESETS", "SlideDescriptor",
    "mesh_create", "preset_config",
    "CostModel", "EfficiencyReport", "MarginCheck", "alpha", "check_margin",
    "flops_per_transform", "predict_efficiency", "reconcile",
    "LevelDescriptor", "TransferBudget", "WaveLayout", "distribute", "gather",
    "level_plan", "measure_efficiency", "min_feasible_k", "plan_wave",
    "slide_fft", "transfer_budget",
]

__version__ = "0.1.0"
