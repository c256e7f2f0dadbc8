"""Fault plans: a seeded, named set of injectors plus the spec grammar.

A plan is the unit the runtime threads through itself: the stream
driver calls :meth:`FaultPlan.on_chunk_end` between chunks, the service
consults :meth:`before_retrain` / :meth:`corrupt_artifacts` /
:meth:`before_table_install` around its control-plane operations, and
:meth:`install` wires the digest-kind injectors into the pipeline's
digest path via :class:`~repro.faults.channel.FaultyDigestChannel`.

Spec grammar (``repro serve --faults SPEC``)::

    SPEC   := clause (';' clause)*
    clause := 'seed=' INT
            | NAME [':' param (',' param)*]
    param  := KEY '=' NUMBER

    e.g.  "seed=7;digest_loss:p=0.2;store_pressure:p=0.5,fraction=0.3"

Injector names and their parameters are the classes in
:mod:`repro.faults.injectors` (see API.md for the full table).  The
seed defaults to 0; every injector gets an independent generator
spawned from it in clause order, so two plans built from the same spec
replay identical fault schedules.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.utils.rng import SeedLike, as_rng, spawn_seeds

from repro.faults.channel import FaultyDigestChannel
from repro.faults.injectors import (
    INJECTOR_TYPES,
    ArtifactCorruption,
    ChunkFaultInjector,
    DigestDelay,
    DigestDuplication,
    DigestLoss,
    DigestReorder,
    FaultInjector,
    RetrainFailure,
    TableInstallFlake,
)


def _coerce(key: str, value: str) -> Union[int, float]:
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"fault spec parameter {key}={value!r} is not a number")


def parse_fault_spec(spec: str) -> tuple:
    """``(seed, [(name, params), ...])`` from the spec grammar above."""
    seed: Optional[int] = None
    clauses: List[tuple] = []
    for raw in spec.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            seed = int(clause[len("seed="):])
            continue
        name, _, params_part = clause.partition(":")
        name = name.strip()
        if name not in INJECTOR_TYPES:
            known = ", ".join(sorted(INJECTOR_TYPES))
            raise ValueError(f"unknown fault injector {name!r} (known: {known})")
        params: Dict[str, Union[int, float]] = {}
        if params_part.strip():
            for pair in params_part.split(","):
                key, eq, value = pair.partition("=")
                if not eq:
                    raise ValueError(f"malformed fault parameter {pair!r} in {clause!r}")
                params[key.strip()] = _coerce(key.strip(), value.strip())
        clauses.append((name, params))
    return seed, clauses


class FaultPlan:
    """A bound set of injectors sharing one seed fan-out.

    Parameters
    ----------
    injectors:
        Injector instances, in the order that fixes their seed fan-out.
    seed:
        Plan seed; each injector's generator is spawned from it.
    spec:
        The originating spec string, kept so a checkpoint can rebuild
        the plan on resume (:meth:`from_spec` sets it automatically).
    """

    def __init__(
        self,
        injectors: List[FaultInjector],
        seed: SeedLike = 0,
        spec: Optional[str] = None,
    ) -> None:
        self.injectors = list(injectors)
        self.seed = seed
        self.spec = spec
        rng = as_rng(seed)
        for injector, s in zip(self.injectors, spawn_seeds(rng, max(1, len(self.injectors)))):
            injector.bind(as_rng(s))

        by_kind: Dict[str, List[FaultInjector]] = {}
        for injector in self.injectors:
            by_kind.setdefault(injector.kind, []).append(injector)
        for kind in ("digest", "retrain", "artifact", "install"):
            names = [i.name for i in by_kind.get(kind, [])]
            if len(names) != len(set(names)):
                raise ValueError(f"duplicate {kind} injectors in fault plan: {names}")

        self._chunk: List[ChunkFaultInjector] = [
            i for i in self.injectors if isinstance(i, ChunkFaultInjector)
        ]
        self._retrain = self._one(RetrainFailure)
        self._artifact = self._one(ArtifactCorruption)
        self._install = self._one(TableInstallFlake)
        digest = {i.name: i for i in self.injectors if i.kind == "digest"}
        self.channel: Optional[FaultyDigestChannel] = None
        if digest:
            self.channel = FaultyDigestChannel(
                loss=digest.get(DigestLoss.name),
                dup=digest.get(DigestDuplication.name),
                reorder=digest.get(DigestReorder.name),
                delay=digest.get(DigestDelay.name),
            )

    def _one(self, cls):
        found = [i for i in self.injectors if isinstance(i, cls)]
        return found[0] if found else None

    @classmethod
    def from_spec(cls, spec: str, seed: SeedLike = None) -> "FaultPlan":
        """Build a plan from the spec grammar (see module docstring).

        *seed* overrides the spec's own ``seed=`` clause (the cluster
        fans one spec out into per-shard seeds)."""
        spec_seed, clauses = parse_fault_spec(spec)
        if seed is None:
            seed = 0 if spec_seed is None else spec_seed
        injectors = [INJECTOR_TYPES[name](**params) for name, params in clauses]
        return cls(injectors, seed=seed, spec=spec)

    # -- runtime hooks ------------------------------------------------------

    def install(self, pipeline) -> None:
        """Wire the digest channel into *pipeline* (idempotent)."""
        if self.channel is not None and self.channel.pipeline is not pipeline:
            self.channel.attach(pipeline)

    def on_chunk_end(self, pipeline, chunk_index: int) -> None:
        """Chunk-boundary hook: chunk injectors, then channel clock edge.

        The kill injector (if any) runs *last*, so store/register faults
        and channel ageing of this boundary are already applied — the
        state a checkpoint of the previous chunk plus this replay would
        reproduce.
        """
        for injector in self._chunk:
            injector.on_chunk_end(pipeline, chunk_index)
        if self.channel is not None:
            self.channel.on_chunk_end()

    def before_retrain(self) -> None:
        if self._retrain is not None:
            self._retrain.before_retrain()

    def corrupt_artifacts(self, artifacts):
        if self._artifact is not None:
            return self._artifact.corrupt(artifacts)
        return artifacts

    def before_table_install(self) -> None:
        if self._install is not None:
            self._install.before_table_install()

    def finalize(self) -> None:
        """End of stream: deliver whatever the channel still holds."""
        if self.channel is not None:
            self.channel.flush()

    # -- reporting ----------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """``faults.<name>`` → times fired, for injectors that fired."""
        return {i.counter: i.fired for i in self.injectors if i.fired}

    def total_fired(self) -> int:
        return sum(i.fired for i in self.injectors)

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "spec": self.spec,
            "injectors": [i.state_dict() for i in self.injectors],
            "channel": None if self.channel is None else self.channel.state_dict(),
        }

    def load_state(self, doc: dict) -> None:
        states = doc.get("injectors", [])
        if len(states) != len(self.injectors):
            raise ValueError(
                f"checkpoint holds {len(states)} injector states for a plan "
                f"with {len(self.injectors)} injectors"
            )
        for injector, state in zip(self.injectors, states):
            injector.load_state(state)
        if self.channel is not None and doc.get("channel") is not None:
            self.channel.load_state(doc["channel"])
