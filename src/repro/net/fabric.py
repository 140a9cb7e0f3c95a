"""The fabric: hosts plus the cables between them.

The paper's testbed is two machines on one 10 Gbps full-duplex RoCE link;
the BFT experiments need a small mesh.  :class:`Fabric` supports both: add
hosts, then :meth:`connect` pairs (or :meth:`full_mesh` everything) with
per-cable bandwidth, propagation delay and an optional deterministic drop
hook for failure injection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import NetworkError
from repro.net.cpu import CpuCosts
from repro.net.host import Host
from repro.net.link import TEN_GIGABIT, DropFn, DuplexLink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Environment

__all__ = ["Fabric"]


class Fabric:
    """A set of hosts and the point-to-point cables wiring them."""

    def __init__(self, env: "Environment"):
        self.env = env
        self._hosts: Dict[str, Host] = {}
        self._cables: Dict[Tuple[str, str], DuplexLink] = {}

    # -- hosts ---------------------------------------------------------------

    def add_host(
        self,
        name: str,
        cores: int = 4,
        cpu_costs: Optional[CpuCosts] = None,
    ) -> Host:
        """Create and register a host."""
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(self.env, name, cores=cores, cpu_costs=cpu_costs)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise NetworkError(
                f"unknown host {name!r} (have: {sorted(self._hosts)})"
            ) from None

    def hosts(self) -> list[Host]:
        """All hosts, sorted by name for determinism."""
        return [self._hosts[name] for name in sorted(self._hosts)]

    # -- cables ----------------------------------------------------------------

    def connect(
        self,
        a: str,
        b: str,
        bandwidth_bps: float = TEN_GIGABIT,
        propagation_delay: float = 1.5e-6,
        drop_fn: Optional[DropFn] = None,
    ) -> DuplexLink:
        """Run a full-duplex cable between hosts ``a`` and ``b``."""
        if a == b:
            raise NetworkError("cannot cable a host to itself")
        key = (min(a, b), max(a, b))
        if key in self._cables:
            raise NetworkError(f"hosts {a!r} and {b!r} are already cabled")
        host_a, host_b = self.host(a), self.host(b)
        cable = DuplexLink(
            self.env,
            bandwidth_bps=bandwidth_bps,
            propagation_delay=propagation_delay,
            drop_fn=drop_fn,
            name=f"{a}<->{b}",
        )
        # forward carries a->b, backward carries b->a.
        host_a.nic.attach_tx(b, cable.forward)
        host_b.nic.attach_rx(cable.forward)
        host_b.nic.attach_tx(a, cable.backward)
        host_a.nic.attach_rx(cable.backward)
        self._cables[key] = cable
        return cable

    def full_mesh(
        self,
        bandwidth_bps: float = TEN_GIGABIT,
        propagation_delay: float = 1.5e-6,
        drop_fn: Optional[DropFn] = None,
    ) -> None:
        """Cable every pair of hosts that is not already connected."""
        names = sorted(self._hosts)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if (a, b) not in self._cables:
                    self.connect(
                        a,
                        b,
                        bandwidth_bps=bandwidth_bps,
                        propagation_delay=propagation_delay,
                        drop_fn=drop_fn,
                    )

    def cable(self, a: str, b: str) -> DuplexLink:
        """The cable between ``a`` and ``b``."""
        key = (min(a, b), max(a, b))
        try:
            return self._cables[key]
        except KeyError:
            raise NetworkError(f"no cable between {a!r} and {b!r}") from None

    def __repr__(self) -> str:
        return (
            f"<Fabric hosts={len(self._hosts)} cables={len(self._cables)}>"
        )
