"""The benchmark's workloads: one relaycap CLI command each."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20260816  # mc.seed of the shipped configs


@dataclass(frozen=True)
class Workload:
    name: str
    config: str           # shipped config name, built during set-up
    command: tuple[str, ...]
    kind: str             # "capacity" | "outage" | "validate": output format
    seeded: bool          # whether --seed reaches the program
    grid: bool = False    # topology is an AllActive grid convolution

    def argv(self, seed: int) -> list[str]:
        args = list(self.command) + ["--config", self.config]
        if self.seeded:
            args += ["--seed", str(seed)]
        return args


WORKLOADS = {
    w.name: w for w in (
        Workload("selective3-capacity", "fig1_selective3",
                 ("capacity-sweep",), "capacity", seeded=False),
        Workload("malaga-outage", "fig2_malaga",
                 ("outage-sweep",), "outage", seeded=False, grid=True),
        Workload("dgg-validate", "fig3_dgg",
                 ("validate",), "validate", seeded=True),
    )
}
