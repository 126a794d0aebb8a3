"""The benchmark's tracer wraps wshm functions by name; a rename or deletion
in the package must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_in_wshm():
    targets = load_tracer().TARGETS
    assert targets
    for group, module_name, path in targets:
        assert module_name == "wshm" or module_name.startswith("wshm."), group
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for name in owner_path:
            owner = getattr(owner, name)
        # Tracer.install reads the attribute from the owner's own namespace
        assert callable(owner.__dict__.get(attr)), f"{group}: {module_name}.{path}"
