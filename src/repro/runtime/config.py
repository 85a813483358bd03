"""One place for the runtime's configuration knobs: :class:`RunConfig`.

The runtime has one knob -- the simulator batch size -- and every entry
point (``run_jobs``, ``run_sweep``, the CLI, ``Client``, worker
processes) resolves it through one dataclass with a documented
precedence:

    **constructor argument  >  environment variable  >  built-in default**

A field left as ``None`` defers to its environment variable (and then
the default); a field set explicitly wins outright.  ``resolve(name)``
returns the effective value, and :meth:`RunConfig.export` temporarily
writes every *explicitly set* knob into ``os.environ`` so job code and
child processes -- pool forks, remote workers on the same host --
resolve the run identically.  :func:`~repro.runtime.iter_jobs` (under
``run_jobs``, ``run_sweep`` and ``Client``) exports the config for the
duration of each batch.

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
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple, Union


def _parse_batch(raw: str) -> Union[int, str]:
    text = raw.strip().lower()
    return text if text == "auto" else int(raw)


_KNOBS: Dict[str, Tuple[str, Any, Any]] = {
    # field -> (env var, parser for env text, built-in default)
    "sim_batch": ("REPRO_SIM_BATCH", _parse_batch, 1),
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
        explicit = getattr(self, name)
        if explicit is not None:
            return explicit
        env_var, parser, default = _KNOBS[name]
        raw = os.environ.get(env_var)
        if raw is not None and raw != "":
            try:
                return parser(raw)
            except (TypeError, ValueError):
                warnings.warn(
                    f"ignoring unparsable {env_var}={raw!r}; "
                    f"using default {default!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return default

    def resolved(self) -> Dict[str, Any]:
        """Every knob's effective value, as a plain dict."""
        return {name: self.resolve(name) for name in _KNOBS}

    def overrides(self) -> Dict[str, Any]:
        """Only the knobs set explicitly on this instance."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    @classmethod
    def env_var(cls, name: str) -> str:
        """The environment variable backing knob *name*."""
        return _KNOBS[name][0]

    @classmethod
    def from_env(cls) -> "RunConfig":
        """A config pinning the *current* environment's effective values.

        Unlike a default instance (which re-reads the environment on
        every ``resolve``), the returned config is frozen to the values
        in force right now -- useful for capturing a run's settings in
        a record or a service submission.
        """
        probe = cls()
        return cls(**probe.resolved())

    @contextmanager
    def export(self):
        """Export every explicitly-set knob to ``os.environ``, scoped.

        Child processes started inside the ``with`` block (pool forks,
        same-host remote workers) inherit the exported variables and
        therefore resolve the same effective values; previous values
        are restored on exit, so nested runs with different configs
        stay coherent.
        """
        saved: Dict[str, Optional[str]] = {}
        try:
            for name, value in self.overrides().items():
                env_var = _KNOBS[name][0]
                saved[env_var] = os.environ.get(env_var)
                os.environ[env_var] = str(value)
            yield self
        finally:
            for env_var, old in saved.items():
                if old is None:
                    os.environ.pop(env_var, None)
                else:
                    os.environ[env_var] = old
