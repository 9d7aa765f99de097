"""The scalar kernel module, imported by the library as ``kernels``.

Library modules do ``from ._backend import kernels`` rather than importing
``_kernels_py`` directly, so the benchmark tracer can swap the one shared
module object for a timed proxy.  ``BACKEND`` names the implementation and
is recorded with every benchmark result.
"""
from __future__ import annotations

from . import _kernels_py as kernels

BACKEND = "python"

__all__ = ["BACKEND", "kernels"]
