"""The benchmark's traced mode wraps library functions by name: each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_name_resolves():
    loader = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    missing = []
    for layer, (module, names) in spans.LAYERS.items():
        mod = importlib.import_module(f"sftent.{module}")
        for name in names:
            owner = mod
            for part in name.split("."):      # "Class.method" as well as plain names
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}: sftent.{module}.{name}")
    assert not missing, f"perfbench/spans.py names what sftent lacks: {missing}"
