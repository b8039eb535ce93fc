"""The benchmark tracer wraps plainsphere functions by module and name.

``perfbench/spans.py`` lists each (module, name) it replaces with a
timed wrapper.  A refactor that renames or drops one of them would
otherwise break only the traced benchmark run.
"""

from __future__ import annotations

import inspect
import re
from importlib import import_module

from conftest import perfbench_module


def test_wrapped_names_are_called_module_globals():
    wrapped = perfbench_module("spans").WRAPPED
    assert wrapped
    for module, attr, _, _ in wrapped:
        mod = import_module(f"plainsphere.{module}")
        assert callable(getattr(mod, attr, None)), (module, attr)
        call = re.compile(rf"(?<!def )\b{re.escape(attr)}\(")
        assert call.search(inspect.getsource(mod)), (module, attr)
