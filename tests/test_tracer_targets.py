"""The functions perfbench's tracer wraps exist with the signatures it reads.

perfbench/tracer.py imports only the standard library, so it is loaded here
by file path. Tracer.install() is never called: it rebinds module globals
for the whole process.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from celluster import ingest, trainer
from celluster.numerics import autodiff, checkpoint

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize(
    "module_name, attr",
    [(m, a) for _, m, a in TRACER.TARGETS],
    ids=[f"{m}.{a}" for _, m, a in TRACER.TARGETS],
)
def test_each_target_is_a_function_defined_in_its_module(module_name, attr):
    fn = getattr(importlib.import_module(module_name), attr)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module_name


def test_tensor_backward_exists():
    assert inspect.isfunction(autodiff.Tensor.backward)


@pytest.mark.parametrize("fn", [checkpoint.save_checkpoint, ingest.load_matrix])
def test_path_is_the_first_parameter_where_the_tracer_reads_file_sizes(fn):
    # _attrs reads os.path.getsize(args[0])
    assert next(iter(inspect.signature(fn).parameters)) == "path"


def test_pretrain_starts_with_the_inputs_the_pretrain_key_hashes():
    # _pretrain_key unpacks args[:3] as (pre, graph, cfg)
    assert list(inspect.signature(trainer.pretrain).parameters)[:3] == ["pre", "graph", "cfg"]
