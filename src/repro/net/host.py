"""Hosts: a CPU, a NIC, and slots for protocol stacks.

A host is deliberately thin — it is the composition point where the fabric
(wiring), the CPU model (costs) and the stacks (TCP, RDMA) meet.  Stacks
register themselves under a name via :meth:`install` so application code can
write ``host.stack("tcp")`` without import cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import NetworkError
from repro.net.cpu import Cpu, CpuCosts
from repro.net.nic import Nic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Environment

__all__ = ["Host"]


class Host:
    """A machine in the simulated testbed."""

    def __init__(
        self,
        env: "Environment",
        name: str,
        cores: int = 4,
        cpu_costs: Optional[CpuCosts] = None,
        dma_engines: int = 2,
        dma_bandwidth_bps: float = 64e9,
    ):
        if not name:
            raise NetworkError("host needs a non-empty name")
        self.env = env
        self.name = name
        self.cpu = Cpu(env, cores=cores, costs=cpu_costs, name=f"{name}.cpu")
        self.nic = Nic(
            env,
            self,
            dma_engines=dma_engines,
            dma_bandwidth_bps=dma_bandwidth_bps,
        )
        self._stacks: Dict[str, Any] = {}

    def install(self, kind: str, stack: Any) -> None:
        """Register a protocol stack (e.g. ``"tcp"``, ``"rdma"``)."""
        if kind in self._stacks:
            raise NetworkError(f"{self.name}: stack {kind!r} already installed")
        self._stacks[kind] = stack

    def stack(self, kind: str) -> Any:
        """Look up an installed stack by kind."""
        try:
            return self._stacks[kind]
        except KeyError:
            raise NetworkError(
                f"{self.name}: no {kind!r} stack installed "
                f"(have: {sorted(self._stacks)})"
            ) from None

    def has_stack(self, kind: str) -> bool:
        """Whether a stack of ``kind`` is installed."""
        return kind in self._stacks

    def __repr__(self) -> str:
        return f"<Host {self.name!r} stacks={sorted(self._stacks)}>"
