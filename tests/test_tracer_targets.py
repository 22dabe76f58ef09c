"""The names the benchmark tracer wraps and reads still exist in fqtraces.

``perfbench/tracer.py`` wraps every ``(module, attribute)`` in ``TARGETS``
and reads ``cache_info()`` off every entry of ``CACHED``.  A deletion or
rename that breaks one of them fails here, in seconds, and not only in the
traced benchmark runs.  The tracer module is read, not changed.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod_name: str, attr: str):
    return reduce(getattr, attr.split("."), importlib.import_module(f"fqtraces.{mod_name}"))


def test_tracer_targets_resolve():
    tracer = _tracer()
    assert tracer.TARGETS and tracer.CACHED
    for mod_name, attr, mode in tracer.TARGETS:
        assert callable(_resolve(mod_name, attr)), (mod_name, attr)
        assert mode in ("span", "count"), (mod_name, attr, mode)
    for mod_name, attr in tracer.CACHED:
        assert hasattr(_resolve(mod_name, attr), "cache_info"), (mod_name, attr)
