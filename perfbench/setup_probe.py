"""Set-up cost of one workload, for ``setup_s``.

Started in a fresh interpreter by ``perfbench/run.py``, which times it from
spawn to exit:

    python3 perfbench/setup_probe.py '[[n, k, element_bits], ...]'

It imports the CLI (which imports the whole package) and plans every wave the
workload runs, under the default preset, without data and without a
transform.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import slidefft.cli  # noqa: E402,F401  (import cost is part of set-up)
from slidefft import mesh_create, plan_wave, preset_config  # noqa: E402

if __name__ == "__main__":
    for n, k, element_bits in json.loads(sys.argv[1]):
        mesh = mesh_create(preset_config("cs2-calibrated", rows=1, cols=1 << k))
        plan_wave(n, k, element_bits, mesh)
