"""The benchmark tracer wraps plainsphere functions by module and name.

``perfbench/spans.py`` lists each (module, name) it replaces with a
timed wrapper.  A refactor that renames or drops one of them would
otherwise break only the traced benchmark run.
"""

from __future__ import annotations

import importlib.util
import inspect
import re
from importlib import import_module
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_wrapped():
    # spans.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_wrapped_names_are_called_module_globals():
    wrapped = load_wrapped()
    assert wrapped
    for module, attr, _, _ in wrapped:
        mod = import_module(f"plainsphere.{module}")
        assert callable(getattr(mod, attr, None)), (module, attr)
        call = re.compile(rf"(?<!def )\b{re.escape(attr)}\(")
        assert call.search(inspect.getsource(mod)), (module, attr)
