"""The benchmark's tracer wraps segpc names; each wrapped name must still exist."""

import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_exists_in_segpc():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = spans
    spec.loader.exec_module(spans)
    missing = []
    for name, (owner, attribute, _) in spans.SPANS.items():
        # the tracer takes methods from the class __dict__, functions by getattr
        found = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(
            owner, attribute, None
        )
        if not callable(found):
            missing.append(f"{name}: {owner.__name__}.{attribute}")
    assert len(spans.SPANS) > 0
    assert missing == []
