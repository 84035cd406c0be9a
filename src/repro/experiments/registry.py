"""The declarative experiment registry: every paper artefact, one catalogue.

Each figure/table driver registers an :class:`ExperimentSpec` — name,
title, the scale presets it understands, the options the CLI may set, a
``run`` function returning a structured result, a plain-text ``report``
renderer and a JSON ``payload`` serialiser — instead of carrying a private
``__main__`` block.  The CLI (``python -m repro run <experiment>``), the
test-suite and any future dashboard all drive experiments through this one
catalogue, so adding an experiment is one :func:`register_experiment` call
and zero driver-specific wiring anywhere else.

Experiments whose core is a unified-search run also declare a ``primary``
extractor returning an :class:`~repro.api.OptimizationResult`; the
registry then merges that result's document into the experiment envelope,
so ``python -m repro run fig4 --json`` emits a document that reads back
through :meth:`OptimizationResult.from_dict` as well as archiving the full
figure payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError

#: Schema tag of the registry's JSON envelope.
EXPERIMENT_SCHEMA = "repro.experiment/1"

#: Registered experiments, keyed by name, in registration order.
EXPERIMENT_REGISTRY: dict[str, "ExperimentSpec"] = {}


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: how to run, render and serialise it."""

    name: str
    title: str
    description: str
    run: Callable
    report: Callable
    payload: Callable
    #: keyword arguments of ``run`` the CLI is allowed to set
    #: (``platform`` enables ``--platform``; drivers without it reject the flag)
    options: tuple[str, ...] = ()
    #: scale presets ``run`` understands (every driver takes ``ExperimentScale`` too)
    scales: tuple[str, ...] = ("ci", "full")
    #: optional extractor ``result -> OptimizationResult`` returning the
    #: run's core search, as the driver's session produced it
    primary: Callable | None = None

    def supports(self, option: str) -> bool:
        return option in self.options


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the catalogue (each name registers exactly once).

    Re-registration from the same source file returns the first spec
    unchanged: running a driver as a script (``python -m
    repro.experiments.fig4_end_to_end``) executes its module body twice —
    once under its real name via the package import, once as ``__main__``.
    Two *different* files claiming one name is still an error.
    """
    existing = EXPERIMENT_REGISTRY.get(spec.name)
    if existing is not None:
        import inspect

        if inspect.getfile(existing.run) == inspect.getfile(spec.run):
            return existing
        raise ReproError(f"experiment '{spec.name}' is already registered")
    EXPERIMENT_REGISTRY[spec.name] = spec
    return spec


def load_all() -> None:
    """Import every driver module so its spec is registered."""
    import repro.experiments  # noqa: F401 - import side effect registers specs


def experiment_names() -> tuple[str, ...]:
    """Registered experiment names (drivers loaded on demand)."""
    load_all()
    return tuple(EXPERIMENT_REGISTRY)


def get_experiment(name: str) -> ExperimentSpec:
    """Look an experiment up by name (:class:`ReproError` when unknown)."""
    load_all()
    try:
        return EXPERIMENT_REGISTRY[name]
    except KeyError:
        raise ReproError(f"unknown experiment '{name}'; expected one of "
                         f"{sorted(EXPERIMENT_REGISTRY)}") from None


@dataclass
class ExperimentRun:
    """One completed experiment run: the result plus how it was produced."""

    spec: ExperimentSpec
    scale: str
    seed: int
    result: object
    options: dict = field(default_factory=dict)

    def report(self) -> str:
        """The driver's plain-text rendering of the result."""
        return self.spec.report(self.result)

    def document(self) -> dict:
        """The run as one JSON-serialisable document.

        Always carries the experiment envelope (name, title, scale, seed,
        options, the driver's payload under ``data``, and
        ``experiment_schema`` so consumers can always recognise the
        envelope).  When the spec declares a ``primary`` optimisation
        result, its document is merged on top — its ``schema`` tag wins —
        so the whole thing also reads back through
        ``OptimizationResult.from_dict``.
        """
        envelope = {
            "schema": EXPERIMENT_SCHEMA,
            "experiment_schema": EXPERIMENT_SCHEMA,
            "experiment": self.spec.name,
            "title": self.spec.title,
            "scale": self.scale,
            "seed": self.seed,
            "options": dict(self.options),
            "data": self.spec.payload(self.result),
        }
        if self.spec.primary is not None:
            primary = self.spec.primary(self.result)
            if primary is not None:
                merged = primary.to_dict()
                # The flat merge is only sound while the two documents
                # collide on nothing but the schema tag; fail loudly the
                # day either side grows a conflicting key.
                overlap = (set(merged) & set(envelope)) - {"schema", "seed"}
                if overlap:
                    raise ReproError(
                        f"experiment envelope and optimization result "
                        f"collide on keys {sorted(overlap)}")
                envelope.update(merged)
        return envelope


def run_experiment(name: str, scale="ci", seed: int = 0,
                   **options) -> ExperimentRun:
    """Run a registered experiment and wrap the outcome.

    ``options`` must be keywords the spec declared (the CLI maps
    ``--platform`` here); unknown ones fail fast with the allowed set.
    ``scale`` is a preset name or a prebuilt ``ExperimentScale``.
    """
    spec = get_experiment(name)
    unsupported = sorted(set(options) - set(spec.options))
    if unsupported:
        allowed = sorted(spec.options) or "(none)"
        raise ReproError(f"experiment '{name}' does not accept options "
                         f"{unsupported}; it accepts {allowed}")
    result = spec.run(scale, seed=seed, **options)
    scale_name = getattr(scale, "name", str(scale))
    return ExperimentRun(spec=spec, scale=scale_name, seed=seed,
                         result=result, options=dict(options))


def main(name: str, argv: list[str] | None = None) -> int:
    """Entry point the drivers' ``__main__`` blocks delegate to."""
    import sys

    from repro.cli import main as cli_main

    return cli_main(["run", name,
                     *(sys.argv[1:] if argv is None else argv)])


def describe(spec: ExperimentSpec) -> str:
    """One catalogue line for ``python -m repro experiments``."""
    flags = "".join(f" [--{option.replace('_', '-')}]"
                    for option in spec.options)
    return f"{spec.name:12s} {spec.title}{flags}"
