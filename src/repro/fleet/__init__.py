"""The fleet control plane: elastic serving over the fixed data plane.

The serving stack (PR 4-8) runs a fixed shard set chosen at boot.  This
package closes the loop the roadmap calls for — rad_gen/COFFE's
sweep-and-select, CONTRA's Pareto-under-budget, applied at serving scale:

- :mod:`repro.fleet.autoscaler` — an SLO-driven control loop on the
  scheduler's injectable clock: grow on sustained slow burn, shrink on
  sustained headroom, shed lowest-priority tenants on fast burn, all
  through :meth:`~repro.serving.pool.CrossbarPool.add_shard` /
  :meth:`~repro.serving.pool.CrossbarPool.remove_shard` live-resize
  primitives (loss-free: a removed shard drains before it leaves);
- :mod:`repro.fleet.dse` — offline design-space exploration over
  ``(block_size, interconnect, shard_count)``, folded
  into a cost–latency Pareto frontier and a per-tenant config selection
  that ``repro serve --fleet-config`` loads;
- :mod:`repro.fleet.replay` — a seeded open-loop arrival trace
  (Poisson + bursts) replayed against a live pool at fixed offered load;
  the acceptance harness for resize-under-chaos.

See ``docs/fleet.md`` for the control loop and file formats.
"""

from repro.fleet.autoscaler import Autoscaler, FleetPolicy
from repro.fleet.dse import (
    DesignPoint,
    DSEResult,
    load_fleet_config,
    run_dse,
    write_fleet_config,
)
from repro.fleet.replay import ArrivalEvent, generate_trace, replay

__all__ = [
    "ArrivalEvent",
    "Autoscaler",
    "DesignPoint",
    "DSEResult",
    "FleetPolicy",
    "generate_trace",
    "load_fleet_config",
    "replay",
    "run_dse",
    "write_fleet_config",
]
