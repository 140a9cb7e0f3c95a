"""Channel supervision: backoff policy, reconnect, retry budget."""

import random

import pytest

from repro.errors import RubinError
from repro.rubin import ChannelSupervisor, SupervisorPolicy

from tests.rubin.conftest import RubinRig
from tests.rubin.test_channel import read_message, write_all


def auto_accept(rig, server, accepted):
    """Keep accepting inbound handshakes for the lifetime of the test."""

    def loop(env):
        while not server.closed:
            if server.connect_pending:
                accepted.append(server.accept())
            yield env.timeout(50e-6)

    rig.env.process(loop(rig.env), name="auto-accept")


def dial_established(rig, server_port=4791):
    """A dialed + accepted channel pair with a persistent acceptor."""
    server = rig.serve(server_port)
    accepted = []
    auto_accept(rig, server, accepted)
    client = rig.dial(server_port)
    rig.run_for(5e-3)
    assert client.established
    return server, client, accepted


class TestPolicy:
    def test_defaults_valid(self):
        SupervisorPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_delay": 0.0},
            {"base_delay": 2.0, "max_delay": 1.0},
            {"multiplier": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"max_attempts": 0},
            {"connect_timeout": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(RubinError):
            SupervisorPolicy(**kwargs)

    def test_delay_is_jittered_exponential_with_cap(self):
        policy = SupervisorPolicy(
            base_delay=1e-3, max_delay=4e-3, multiplier=2.0, jitter=0.5
        )
        rng = random.Random(0)
        for attempt, raw in [(0, 1e-3), (1, 2e-3), (2, 4e-3), (7, 4e-3)]:
            for _ in range(25):
                delay = policy.delay(attempt, rng)
                assert raw * 0.5 <= delay <= raw * 1.5

    def test_delay_sequence_is_seeded(self):
        policy = SupervisorPolicy()
        a = [policy.delay(i, random.Random(9)) for i in range(5)]
        b = [policy.delay(i, random.Random(9)) for i in range(5)]
        assert a == b


class TestSupervision:
    def make_supervisor(self, rig, **overrides):
        defaults = dict(
            base_delay=100e-6,
            max_delay=1e-3,
            connect_timeout=1e-3,
            seed=1,
        )
        defaults.update(overrides)
        return ChannelSupervisor(rig.env, policy=SupervisorPolicy(**defaults))

    def test_accepted_channels_are_rejected(self, rig):
        _server, _client, accepted = dial_established(rig)
        supervisor = self.make_supervisor(rig)
        with pytest.raises(RubinError, match="dialed"):
            supervisor.supervise(accepted[0])

    def test_reconnects_after_qp_error(self, rig):
        _server, client, accepted = dial_established(rig)
        supervisor = self.make_supervisor(rig)
        recovered = []
        supervisor.on_recovered.append(recovered.append)
        supervisor.supervise(client)

        client.qp._enter_error()
        assert client.errored
        rig.run_for(20e-3)

        assert client.established
        assert client.reconnects == 1
        assert supervisor.reconnects.value == 1
        assert supervisor.reconnect_attempts.value >= 1
        assert len(supervisor.recovery_latency) == 1
        assert recovered == [client]
        # The reconnect surfaces the same readiness a fresh active open
        # does, so the application replays its finish_connect() flow.
        assert client.accept_pending
        assert client.finish_connect()

    def test_data_flows_after_reconnect(self, rig):
        _server, client, accepted = dial_established(rig)
        supervisor = self.make_supervisor(rig)
        supervisor.supervise(client)
        client.qp._enter_error()
        rig.run_for(20e-3)
        assert client.established and len(accepted) == 2

        payload = b"post-reconnect payload"
        write_all(rig, client, payload)
        reader = read_message(rig, accepted[1], len(payload))
        assert rig.env.run(until=reader) == payload

    def test_abandons_after_retry_budget(self, rig):
        server, client, _accepted = dial_established(rig)
        supervisor = self.make_supervisor(rig, max_attempts=2)
        abandoned = []
        supervisor.on_abandoned.append(abandoned.append)
        supervisor.supervise(client)

        server.close()  # every re-dial now gets a REJ
        client.qp._enter_error()
        rig.run_for(50e-3)

        assert not client.established
        assert supervisor.abandons.value == 1
        assert supervisor.reconnect_attempts.value == 2
        assert abandoned == [client]

    def test_retries_until_silent_peer_returns(self, rig):
        _server, client, _accepted = dial_established(rig)
        supervisor = self.make_supervisor(rig, connect_timeout=500e-6)
        supervisor.supervise(client)

        # Crash the peer host: handshakes black-hole (no REJ), so each
        # attempt must be cut off by the connect timeout.
        rig.fabric.host("server").nic.power_off()
        client.qp._enter_error()
        rig.run_for(10e-3)
        assert not client.established
        assert supervisor.reconnect_attempts.value >= 2

        rig.fabric.host("server").nic.power_on()
        rig.run_for(20e-3)
        assert client.established
        assert supervisor.reconnects.value == 1

    def test_stop_halts_recovery(self, rig):
        _server, client, _accepted = dial_established(rig)
        supervisor = self.make_supervisor(rig)
        supervisor.stop()
        supervisor.supervise(client)
        client.qp._enter_error()
        rig.run_for(20e-3)
        assert client.errored
        assert client.reconnects == 0
        assert supervisor.reconnect_attempts.value == 0

    def test_owner_close_mid_recovery_stops_redialing(self, rig):
        _server, client, _accepted = dial_established(rig)
        supervisor = self.make_supervisor(rig, connect_timeout=500e-6)
        supervisor.supervise(client)
        # Handshakes black-hole, so the first re-dial hangs until its
        # connect timeout — the window in which the owner gives up.
        rig.fabric.host("server").nic.power_off()
        client.qp._enter_error()
        rig.run_for(300e-6)
        attempts = supervisor.reconnect_attempts.value
        assert attempts >= 1 and not client.errored and not client.closed

        client.close()  # gives the buffer pools back
        rig.run_for(10e-3)
        assert supervisor.reconnect_attempts.value == attempts
        assert client.closed and not client.established
