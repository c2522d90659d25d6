"""The benchmark tracer wraps nefcert functions by name.

perfbench/tracer.py lists, per home module, the functions it spans
(SPANNED) and counts (COUNTED); Tracer.install() raises AttributeError
when one of them is no longer an attribute of nefcert.<home>, which
crashes every traced benchmark run. The tracer is loaded from its path,
so this needs nothing from the benchmark beyond that file.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("nefcert_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_an_attribute_of_its_home():
    tracer = _load_tracer()
    listed = [(home, name) for home, functions in tracer.SPANNED.items()
              for name in functions]
    listed += [(home, name) for home, names in tracer.COUNTED.items() for name in names]
    assert len(listed) > 20
    missing = [f"nefcert.{home}.{name}" for home, name in listed
               if not callable(getattr(importlib.import_module(f"nefcert.{home}"),
                                       name, None))]
    assert missing == []
