"""Load-aware partitioning of a UAV-served area.

Two planning problems over a common air-to-ground channel model on a
discretized service area:

* maximize delivered data under per-UAV hover budgets, with the region of
  each UAV shaped by a concave dual ascent so load shares are met exactly;
* minimize total hover time for fixed per-user demands, with a closed-form
  bandwidth split inside regions and the same dual ascent between them.

Import from the submodules (uavpart.config, uavpart.scenario1, ...); the
package root only carries the version.
"""

__version__ = "0.1.0"
