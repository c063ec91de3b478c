"""Pluggable shard runtimes for :class:`~repro.serving.pool.CrossbarPool`.

``CrossbarPool(runtime="inline" | "thread" | "subprocess")`` — or pass a
:class:`ShardRuntime` instance for custom tuning.  See
:mod:`repro.serving.runtime.base` for the contract and the selection
guidance, :mod:`repro.serving.runtime.protocol` for the wire format the
subprocess runtime speaks.

The runtime classes resolve lazily (module ``__getattr__``): a subprocess
worker imports this package on its way to
:mod:`repro.serving.runtime.worker` and needs none of them.
"""

from __future__ import annotations

import importlib

from repro.errors import ServingError
from repro.serving.runtime.base import ShardRuntime

__all__ = [
    "RUNTIMES",
    "InlineRuntime",
    "ShardRuntime",
    "SubprocessRuntime",
    "ThreadRuntime",
    "WorkerHandle",
    "resolve_runtime",
]

#: Lazily re-exported name -> the module that defines it.
_EXPORTS = {
    "InlineRuntime": "repro.serving.runtime.inline",
    "SubprocessRuntime": "repro.serving.runtime.subprocess",
    "ThreadRuntime": "repro.serving.runtime.thread",
    "WorkerHandle": "repro.serving.runtime.subprocess",
}

#: Selection keys for ``CrossbarPool(runtime=...)`` / ``--runtime``; the
#: ``RUNTIMES`` attribute maps them to the runtime classes.
_RUNTIME_CLASSES = {
    "inline": "InlineRuntime",
    "thread": "ThreadRuntime",
    "subprocess": "SubprocessRuntime",
}


def __getattr__(name: str):
    if name == "RUNTIMES":
        value = {key: __getattr__(cls) for key, cls in _RUNTIME_CLASSES.items()}
    elif name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def resolve_runtime(runtime) -> ShardRuntime:
    """A :class:`ShardRuntime` instance from a name or instance."""
    if isinstance(runtime, ShardRuntime):
        return runtime
    if isinstance(runtime, str):
        cls_name = _RUNTIME_CLASSES.get(runtime)
        if cls_name is None:
            raise ServingError(
                f"unknown runtime {runtime!r}; choose from "
                f"{sorted(_RUNTIME_CLASSES)} or pass a ShardRuntime instance"
            )
        return __getattr__(cls_name)()
    raise ServingError(
        f"runtime must be a name or ShardRuntime, got {type(runtime).__name__}"
    )
