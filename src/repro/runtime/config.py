"""One place for the runtime's configuration knobs: :class:`RunConfig`.

The runtime has one knob -- the simulator batch size -- and every entry
point (``run_jobs``, ``run_sweep``, the CLI, ``Client``) resolves it
through one dataclass with a documented precedence:

    **constructor argument  >  environment variable  >  built-in default**

A field left as ``None`` defers to its environment variable (and then
the default); a field set explicitly wins outright.  ``resolve(name)``
returns the effective value.  Only the orchestrator resolves the knob:
:func:`~repro.runtime.iter_jobs` coalesces trials before dispatch, so
job code, pool children and workers never read it.

=====================  ==========================  =================
field                  environment variable        default
=====================  ==========================  =================
``sim_batch``          ``REPRO_SIM_BATCH``         ``1`` (no batching)
=====================  ==========================  =================

``run_jobs(..., config=...)`` / ``run_sweep(..., config=...)`` accept
a config directly::

    from repro.runtime import RunConfig, run_sweep

    result = run_sweep(sweep, config=RunConfig(sim_batch="auto"))
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Tuple, Union


def parse_batch(raw: str) -> Union[int, str]:
    """Parse a batch limit: a positive int, or ``"auto"``.

    The one parser behind ``--batch``, ``REPRO_SIM_BATCH`` and string
    ``RunConfig.sim_batch`` values; raises :class:`ValueError` otherwise.
    """
    text = raw.strip().lower()
    if text == "auto":
        return text
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"batch limit must be a positive int or 'auto', got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"batch limit must be at least 1, got {value}")
    return value


_KNOBS: Dict[str, Tuple[str, Any, Any]] = {
    # field -> (env var, parser for env text, built-in default)
    "sim_batch": ("REPRO_SIM_BATCH", parse_batch, 1),
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved-on-demand runtime configuration (see module docstring).

    Every field defaults to ``None`` = "not set here": :meth:`resolve`
    then falls back to the knob's environment variable, then to the
    built-in default.  Instances are frozen and hashable, so a config
    can ride inside specs, service submissions, and test parametrize
    lists without defensive copying.
    """

    sim_batch: Union[int, str, None] = None

    def resolve(self, name: str) -> Any:
        """The effective value of knob *name* (arg > env > default)."""
        if name not in _KNOBS:
            raise KeyError(
                f"unknown runtime knob {name!r}; known: {sorted(_KNOBS)}"
            )
        env_var, parser, default = _KNOBS[name]
        explicit = getattr(self, name)
        if isinstance(explicit, str):
            return parser(explicit)
        if explicit is not None:
            return explicit
        raw = os.environ.get(env_var)
        if raw is not None and raw != "":
            try:
                return parser(raw)
            except ValueError as exc:
                warnings.warn(
                    f"ignoring unparsable {env_var}={raw!r} ({exc}); "
                    f"using default {default!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return default

    @classmethod
    def env_var(cls, name: str) -> str:
        """The environment variable backing knob *name*."""
        return _KNOBS[name][0]
