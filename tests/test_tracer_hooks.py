"""The benchmark's tracer (``perfbench/tracer.py``) reads its counters, such
as ``theorems.mode_*``, from hooks named ``_after_<layer>_<function>``.  A
hook whose function was renamed or is no longer called by the layers never
fires, and its counters silently read 0.  These tests only read the tracer.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

from cfcgraph import theorems

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_names_a_public_layer_function():
    tracer = _load_tracer()
    hooks = [attr[len("_after_"):] for attr in vars(tracer.Tracer) if attr.startswith("_after_")]
    assert "theorems_check_theorem" in hooks
    for hook in hooks:
        layer, _, name = hook.partition("_")
        assert layer in tracer.LAYERS, hook
        module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        fn = getattr(module, name, None)
        # The tracer wraps public functions only, under the name they were
        # defined with in their own module.
        assert inspect.isfunction(fn) and not name.startswith("_"), hook
        assert (fn.__module__, fn.__name__) == (module.__name__, name), hook
        assert f"{layer}.{name}" not in tracer.UNWRAPPED, hook


def test_public_generator_functions_are_unwrapped():
    # A span wrapper returns as soon as a generator is created, so it would
    # time the creation and none of the work done while the caller iterates.
    tracer = _load_tracer()
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isgeneratorfunction(fn):
                continue
            package, _, owner = fn.__module__.rpartition(".")
            if package != tracer.PACKAGE:
                continue
            assert f"{owner}.{fn.__name__}" in tracer.UNWRAPPED, f"{layer}.{attr}"


def test_harness_checks_through_the_module_attribute(monkeypatch):
    # The tracer replaces module attributes, so the harness must look
    # check_theorem up there on every trial.
    calls = []
    check_theorem = theorems.check_theorem

    def counting(*args, **kwargs):
        calls.append(args[1])
        return check_theorem(*args, **kwargs)

    monkeypatch.setattr(theorems, "check_theorem", counting)
    theorems.run_harness("4.3", trials=3, seed=0)
    assert calls == ["4.3"] * 3
