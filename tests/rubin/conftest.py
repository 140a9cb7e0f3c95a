"""Shared RUBIN test rig: two hosts with RDMA devices and CMs."""

import sys

import pytest

from repro.net import Fabric
from repro.rdma import ConnectionManager, RdmaDevice
from repro.rubin import RubinChannel, RubinConfig, RubinServerChannel
from repro.sim import Environment


class RubinRig:
    """Two cabled hosts ready for RUBIN channels."""

    def __init__(self, config=None):
        self.env = Environment()
        self.fabric = Fabric(self.env)
        self.fabric.add_host("client")
        self.fabric.add_host("server")
        self.fabric.connect("client", "server")
        self.client_dev = RdmaDevice(self.fabric.host("client"))
        self.server_dev = RdmaDevice(self.fabric.host("server"))
        self.client_cm = ConnectionManager(self.client_dev)
        self.server_cm = ConnectionManager(self.server_dev)
        self.config = config if config is not None else RubinConfig()

    def serve(self, port=4791, config=None):
        """Open a server channel on ``port``."""
        return RubinServerChannel(
            self.server_dev, self.server_cm, port, config or self.config
        )

    def dial(self, port=4791, config=None):
        """Start a client channel toward the server."""
        return RubinChannel.connect(
            self.client_dev, self.client_cm, "server", port, config or self.config
        )

    def establish(self, port=4791, config=None):
        """Full handshake; returns (client_channel, server_channel)."""
        server = self.serve(port, config)
        client = self.dial(port, config)
        accepted = []

        def acceptor(env):
            while not server.connect_pending:
                yield env.timeout(10e-6)
            accepted.append(server.accept(config or self.config))

        self.env.process(acceptor(self.env))
        deadline = self.env.now + 50e-3
        while not (client.established and accepted and accepted[0].established):
            if self.env.now > deadline or self.env.peek() > deadline:
                raise AssertionError("handshake did not complete")
            self.env.step()
        return client, accepted[0]

    def run_for(self, seconds):
        self.env.run(until=self.env.now + seconds)


def close_while_charging(monkeypatch, channel, method):
    """Close ``channel`` inside the first CPU charge ``method`` yields on.

    The close lands after ``method`` asks for the charge and before it
    resumes, as a close from another process would.
    """
    cpu = channel.host.cpu
    execute = cpu.execute
    closed = []

    def execute_then_close(duration):
        event = execute(duration)
        if not closed and sys._getframe(1).f_code.co_name == method:
            closed.append(True)
            channel.close()
        return event

    monkeypatch.setattr(cpu, "execute", execute_then_close)
    return closed


@pytest.fixture
def rig():
    return RubinRig()


@pytest.fixture
def small_rig():
    return RubinRig(
        config=RubinConfig(
            buffer_size=4096, num_recv_buffers=4, num_send_buffers=4, post_batch=2
        )
    )
