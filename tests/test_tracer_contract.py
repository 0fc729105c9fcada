"""The names the benchmark's tracer patches exist in the library.

``perfbench/tracer.py`` wraps names one module looks up in another (the
``cli`` forwarders, ``selection.dist_sorted``, ``fieldfile.UnorderedTuple``,
``lemmas.stabilizer_of`` and more).  ``perfbench/`` is outside the
``testpaths`` in pyproject.toml, so without this test a cut that removes
one of those names would pass the test suite and break only the traced
benchmark run.  The tracer is loaded from its file and only read, never
edited.
"""

import importlib.util
from pathlib import Path

import symprod.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for its own `import workloads`
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_patches_exists(monkeypatch):
    tracer_module = load_tracer(monkeypatch)
    tracer = tracer_module.Tracer()
    before = cli.lift_field
    try:
        tracer_module.install(tracer)  # AttributeError or KeyError on a missing name
        assert cli.lift_field is not before
    finally:
        tracer.restore()
    assert cli.lift_field is before
