"""One serving shard's pricing unit, built by one recipe wherever it runs.

Every shard prices through the same stack: a seeded
:class:`~repro.runtime.comparison.ComparisonHarness` behind a
:class:`~repro.runtime.supervisor.Supervisor` whose retry jitter is
seeded per shard index, plus an optional
:class:`~repro.runtime.chaos.ChaosInjector` whose fault stream is offset
by the index.  The pool builds it for in-process shards and the
subprocess worker builds it from its ``init`` frame — both through
:class:`ShardUnit`, so a request prices bit-identically whichever
runtime runs it, and a shard added live is indistinguishable from one
built at boot.

This module sits under :mod:`repro.serving.runtime` and imports only the
pricing stack, so a worker process loads it without the pool or the HTTP
server.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.config import APIMConfig
from repro.runtime.chaos import ChaosInjector, ChaosPolicy
from repro.runtime.comparison import ComparisonHarness
from repro.runtime.supervisor import RetryPolicy, Supervisor
from repro.workloads import workload_by_name

__all__ = ["ShardRecipe", "ShardUnit"]


@dataclass(frozen=True)
class ShardRecipe:
    """The pool-wide inputs every shard is built from."""

    seed: int = 2017
    tile_elements: int = 1 << 10
    apim_config: APIMConfig | None = None
    chaos_policy: ChaosPolicy | None = None

    def to_frame(self) -> dict:
        """The recipe as ``init`` frame fields (JSON-able)."""
        return {
            "seed": self.seed,
            "tile_elements": self.tile_elements,
            "apim_config": (
                None
                if self.apim_config is None
                else dataclasses.asdict(self.apim_config)
            ),
            "chaos": (
                None
                if self.chaos_policy is None
                else dataclasses.asdict(self.chaos_policy)
            ),
        }

    @classmethod
    def from_frame(cls, frame: dict) -> "ShardRecipe":
        config = frame.get("apim_config")
        chaos = frame.get("chaos")
        return cls(
            seed=int(frame["seed"]),
            tile_elements=int(frame["tile_elements"]),
            apim_config=APIMConfig(**config) if config else None,
            chaos_policy=ChaosPolicy(**chaos) if chaos else None,
        )


class ShardUnit:
    """Shard ``index`` of a pool built from ``recipe``: harness,
    supervisor, chaos injector and a per-shard workload memo."""

    def __init__(self, index: int, recipe: ShardRecipe) -> None:
        self.index = index
        self.harness = ComparisonHarness(
            config=recipe.apim_config,
            tile_elements=recipe.tile_elements,
            rng_seed=recipe.seed,
        )
        self.supervisor = Supervisor(
            retry=RetryPolicy(
                max_attempts=3,
                base_delay=0.002,
                max_delay=0.05,
                jitter_seed=recipe.seed + index,
            )
        )
        policy = recipe.chaos_policy
        self.chaos = (
            None
            if policy is None
            else ChaosInjector(
                dataclasses.replace(policy, seed=policy.seed + index)
            )
        )
        self._workloads: dict = {}

    @property
    def key(self) -> str:
        return f"shard{self.index}"

    def workload(self, name: str):
        instance = self._workloads.get(name)
        if instance is None:
            instance = self._workloads[name] = workload_by_name(name)
        return instance
