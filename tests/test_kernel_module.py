"""One kernel module, shared by every library module that calls kernels.

The benchmark tracer (``bench/tracing.py``) times kernels by replacing
``kernels`` in each ``conicsteps`` module whose attribute is the very
object ``conicsteps._backend.kernels``; a module holding any other object
would run untimed.
"""
from __future__ import annotations

import importlib
import pkgutil

import conicsteps
from conicsteps import _backend, _kernels_py


def test_backend_is_the_pure_python_module():
    assert conicsteps.BACKEND == "python"
    assert _backend.kernels is _kernels_py


def test_every_module_shares_the_kernel_module():
    holders = []
    for info in pkgutil.iter_modules(conicsteps.__path__):
        module = importlib.import_module(f"conicsteps.{info.name}")
        if hasattr(module, "kernels"):
            assert module.kernels is _kernels_py, info.name
            holders.append(info.name)
    assert set(holders) == {"_backend", "conics"}
