"""Cycle-accounted simulation of a radix-2 FFT sliding across a PE mesh.

The public names load lazily: ``import slidefft`` imports no submodule, and
so no numpy, until a name is first read.  That lets the ``slidefft`` command
choose numpy's BLAS thread count before numpy loads.
"""

from importlib import import_module

# Submodule -> the public names it defines.
_PUBLIC = {
    "serial": "FLOPS_PER_PAIR FlopCounter PermutationTable bit_reverse_index build_permutation "
              "dft_oracle fft_serial ifft_serial log2_exact twiddle_table",
    "mesh": "CapacityExceeded CycleLedger Mesh MeshConfig MeshError OffGridError PhaseReport "
            "PRESETS SlideDescriptor mesh_create preset_config",
    "model": "CostModel EfficiencyReport MarginCheck alpha check_margin flops_per_transform "
             "predict_efficiency reconcile",
    "wave": "LevelDescriptor TransferBudget WaveLayout distribute gather level_plan "
            "measure_efficiency min_feasible_k plan_wave slide_fft transfer_budget",
}
_MODULE = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE[name]}", __name__), name)
    globals()[name] = value     # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
