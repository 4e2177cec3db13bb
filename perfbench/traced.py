"""Traced in-process replay of one slidefft CLI run.

Started in a fresh interpreter by ``perfbench/run.py``:

    python3 perfbench/traced.py <slidefft arguments...>

It wraps public slidefft functions where their callers look them up (the
``slidefft.cli`` and ``slidefft.wave`` globals, the ``slidefft.serial``
globals that ``fft_serial`` uses, and ``Mesh`` methods), calls
``slidefft.cli.main`` in this process with standard output captured, and
prints one JSON object on standard output:

- ``spans``: for each layer name, [calls, inclusive seconds, seconds spent
  in wrapped calls nested inside it];
- ``absent``: layer names none of whose wrap targets exist any more;
- ``runs``: the modelled ledger of every distributed transform, in call
  order, with its spectrum checked against ``fft_serial`` (bit-exact) and
  ``numpy.fft.fft`` (relative error), and the FLOPs ``predict_efficiency``
  predicts for it;
- ``oracle_rel_err``: relative error of ``fft_serial`` against
  ``dft_oracle`` on a fixed seeded batch, the check behind the bit-exact
  reference above;
- ``main_s``, ``top_level_s``: wall time of ``main`` and of the wrapped
  calls made directly by it; ``check_s``: time spent after ``main`` on the
  checks above, which is not part of the traced run.

Nothing in the program is changed on disk; the wrappers are removed again
before the checks run.  The checks' own calls of ``fft_serial``,
``dft_oracle`` and ``predict_efficiency`` are added to those layers' spans,
so every workload reports a measured time for them; they are outside
``main_s`` and ``top_level_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import slidefft  # noqa: E402
import slidefft.cli as cli  # noqa: E402
import slidefft.serial as serial  # noqa: E402
import slidefft.wave as wave  # noqa: E402

_PE_ACCESS = ("pe_fetch", "pe_update", "pe_store", "pe_delete")

# (namespace, attribute, layer name); the namespace is where callers look
# the attribute up at call time.
SLOTS = [
    (cli, "slide_fft", "wave.slide_fft"),
    (cli, "distribute", "wave.distribute"),
    (cli, "fft_serial", "serial.fft_serial"),
    (cli, "dft_oracle", "serial.dft_oracle"),
    (cli, "build_permutation", "serial.build_permutation"),
    (cli, "predict_efficiency", "model.predict_efficiency"),
    (wave, "build_permutation", "serial.build_permutation"),
    (wave, "twiddle_table", "serial.twiddle_table"),
    (wave, "gather", "wave.gather"),
    (serial, "build_permutation", "serial.build_permutation"),
    (serial, "twiddle_table", "serial.twiddle_table"),
    (slidefft.Mesh, "slide_phase", "mesh.slide_phase"),
    (slidefft.Mesh, "record_compute", "mesh.record_compute"),
] + [(slidefft.Mesh, name, "mesh.pe_access") for name in _PE_ACCESS]


class Tracer:
    """Span totals per layer name, with nesting tracked on one stack."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.top_level_s = 0.0
        self.peak_bytes = 0
        self._open: list[float] = []   # child seconds of each open span

    def wrap(self, layer: str, fn, observe=None):
        totals = self.spans.setdefault(layer, [0, 0.0, 0.0])
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                totals[0] += 1
                totals[1] += dt
                totals[2] += open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                else:
                    self.top_level_s += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def with_peak(self, fn):
        """Run ``fn`` under tracemalloc and keep the largest peak seen.

        tracemalloc runs only inside this call, so it slows nothing else.
        """
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def checked(self, layer: str, fn, *args):
        """Call ``fn`` for a check after the replay and add it to ``layer``."""
        totals = self.spans.setdefault(layer, [0, 0.0, 0.0])
        t0 = time.perf_counter()
        result = fn(*args)
        totals[0] += 1
        totals[1] += time.perf_counter() - t0
        return result


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer, runs: list):
    """Install every wrapper; return (restore list, absent layer names)."""
    inputs = {}

    def saw_distribute(args, kwargs, _):
        inputs[id(_arg(args, kwargs, 2, "mesh"))] = _arg(args, kwargs, 0, "x")

    def saw_slide_fft(args, kwargs, spectrum):
        mesh = _arg(args, kwargs, 0, "mesh")
        runs.append({"layout": _arg(args, kwargs, 1, "layout"),
                     "ledger": mesh.ledger_report(),
                     "wall_clock_cycles": mesh.wall_clock_cycles,
                     "x": inputs.pop(id(mesh)), "spectrum": spectrum})

    observers = {(cli, "distribute"): saw_distribute, (cli, "slide_fft"): saw_slide_fft}
    restore = []
    for namespace, attr, layer in SLOTS:
        original = namespace.__dict__.get(attr)
        if original is None:
            continue
        fn = tracer.with_peak(original) if layer == "serial.build_permutation" else original
        setattr(namespace, attr, tracer.wrap(layer, fn, observers.get((namespace, attr))))
        restore.append((namespace, attr, original))
    return restore, sorted({layer for _, _, layer in SLOTS} - set(tracer.spans))


def _rel_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# Batch shape of the fft_serial-against-dft_oracle check.
ORACLE_BATCH = (10, 1024)


def check_oracle(tracer: Tracer) -> float:
    rng = np.random.default_rng(0)
    x = rng.random(ORACLE_BATCH) + 1j * rng.random(ORACLE_BATCH)
    return _rel_error(tracer.checked("serial.fft_serial", serial.fft_serial, x),
                      tracer.checked("serial.dft_oracle", serial.dft_oracle, x))


def check_run(tracer: Tracer, run: dict) -> dict:
    """Modelled counters of one transform and its spectrum checks."""
    layout, ledger = run["layout"], run["ledger"]
    x, spectrum = run["x"], run["spectrum"]
    reference = tracer.checked("serial.fft_serial", serial.fft_serial, x)
    predicted = tracer.checked("model.predict_efficiency", slidefft.predict_efficiency,
                               slidefft.CostModel(), layout.n, layout.n.bit_length() - 1)
    out = {
        "n": layout.n, "k": layout.k, "element_bits": layout.element_bits,
        "total_cycles": run["wall_clock_cycles"],
        "compute_cycles": ledger.compute_cycles,
        "transfer_cycles": ledger.transfer_cycles,
        "ramp_cycles": ledger.ramp_cycles,
        "flops": ledger.flops,
        "elements_moved": ledger.elements_moved,
        "element_hops": ledger.element_hops,
        "predicted_flops": predicted.flops,
        "spectrum_equal": bool(np.array_equal(spectrum, reference)),
        "rel_err": _rel_error(spectrum, np.fft.fft(np.asarray(x, dtype=np.complex128))),
    }
    if hasattr(wave, "level_plan"):
        levels = wave.level_plan(layout)
        out["levels_local"] = sum(1 for level in levels if level.local)
        out["levels_sliding"] = sum(1 for level in levels if not level.local)
    if hasattr(wave, "transfer_budget"):
        out["budget_elements_moved"] = wave.transfer_budget(layout).elements_moved
    return out


def main(argv: list[str]) -> None:
    tracer, runs = Tracer(), []
    restore, absent = install(tracer, runs)
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        for namespace, attr, original in restore:
            setattr(namespace, attr, original)
    top_level_s = tracer.top_level_s
    t1 = time.perf_counter()
    checked = [check_run(tracer, run) for run in runs]
    oracle_rel_err = check_oracle(tracer)
    result = {
        "exit_code": code,
        "stdout": captured.getvalue(),
        "main_s": main_s,
        "top_level_s": top_level_s,
        "spans": tracer.spans,
        "absent": absent,
        "build_permutation_peak_bytes": tracer.peak_bytes,
        "runs": checked,
        "oracle_rel_err": oracle_rel_err,
    }
    result["check_s"] = time.perf_counter() - t1
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
