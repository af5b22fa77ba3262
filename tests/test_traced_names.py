"""The benchmark's tracer wraps named functions and methods of the package
(perfbench/tracing.py, BOUNDARY).  A refactor that drops or renames one of
them must fail here, not only when `perfbench/run.py --trace 1` runs."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _boundary() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARY


BOUNDARY = _boundary()
PATHS = [(layer, kind, path) for layer, kinds in BOUNDARY.items()
         for kind, paths in kinds.items() for path in paths]


@pytest.mark.parametrize("layer, kind, path", PATHS,
                         ids=[f"{layer}.{path}" for layer, _, path in PATHS])
def test_traced_name_resolves(layer, kind, path):
    # the tracer's own lookup: getattr for the owning class, then __dict__
    home = importlib.import_module(f"ncpbound.{layer}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(home, owner_name) if owner_name else home
    assert attr in owner.__dict__, f"ncpbound.{layer}.{path} is gone"
    assert callable(owner.__dict__[attr])



GEN_PATHS = [(layer, path) for layer, kind, path in PATHS if kind == "gen"]


@pytest.mark.parametrize("layer, path", GEN_PATHS, ids=[f"{layer}.{path}" for layer, path in GEN_PATHS])
def test_traced_generators_stay_generator_functions(layer, path):
    # the gen wrapper steps the result with next() and closes it with .close()
    home = importlib.import_module(f"ncpbound.{layer}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(home, owner_name) if owner_name else home
    assert inspect.isgeneratorfunction(owner.__dict__[attr])


def test_local_data_exposes_cache_info():
    # the tracer reads the memo's hits, misses and size from cache_info()
    from ncpbound.extensions import local_data

    info = local_data.cache_info()
    assert {"hits", "misses", "currsize"} <= set(info._fields)
