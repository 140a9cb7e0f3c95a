"""Connection manager handshake and completion-queue notification."""

import pytest

from repro.errors import RdmaError
from repro.rdma import ConnectionManager, QpState, WcStatus

from tests.rdma.conftest import RdmaPair, recv_wr, send_wr


@pytest.fixture
def cm_rig():
    """Two hosts with RDMA devices and CMs, but no pre-connected QPs."""
    rig = RdmaPair.__new__(RdmaPair)
    from repro.net import Fabric
    from repro.rdma import RdmaDevice
    from repro.sim import Environment

    rig.env = Environment()
    rig.fabric = Fabric(rig.env)
    rig.fabric.add_host("left")
    rig.fabric.add_host("right")
    rig.fabric.connect("left", "right")
    rig.left = RdmaDevice(rig.fabric.host("left"))
    rig.right = RdmaDevice(rig.fabric.host("right"))
    rig.left_cm = ConnectionManager(rig.left)
    rig.right_cm = ConnectionManager(rig.right)
    return rig


def fresh_qp(device):
    pd = device.alloc_pd()
    send_cq = device.create_cq()
    recv_cq = device.create_cq()
    return device.create_qp(pd, send_cq, recv_cq), pd, send_cq, recv_cq


class TestConnectionManager:
    def test_connect_accept_establishes_qps(self, cm_rig):
        cm_rig.right_cm.listen(7471)
        client_qp, *_ = fresh_qp(cm_rig.left)
        established = cm_rig.left_cm.connect("right", 7471, client_qp)

        def server(env):
            event = yield cm_rig.right_cm.events.get()
            assert event.kind == "CONNECT_REQUEST"
            server_qp, *_ = fresh_qp(cm_rig.right)
            event.request.accept(server_qp)
            return server_qp

        server_proc = cm_rig.env.process(server(cm_rig.env))
        qp = cm_rig.env.run(until=established)
        server_qp = cm_rig.env.run(until=server_proc)
        assert qp is client_qp
        assert client_qp.state is QpState.RTS
        assert server_qp.state is QpState.RTS
        assert client_qp.remote_qp == server_qp.qp_num
        assert server_qp.remote_qp == client_qp.qp_num

    def test_server_gets_established_event(self, cm_rig):
        cm_rig.right_cm.listen(7471)
        client_qp, *_ = fresh_qp(cm_rig.left)
        cm_rig.left_cm.connect("right", 7471, client_qp)
        kinds = []

        def server(env):
            event = yield cm_rig.right_cm.events.get()
            kinds.append(event.kind)
            server_qp, *_ = fresh_qp(cm_rig.right)
            event.request.accept(server_qp)
            event2 = yield cm_rig.right_cm.events.get()
            kinds.append(event2.kind)
            return event2.qp

        p = cm_rig.env.process(server(cm_rig.env))
        cm_rig.env.run(until=p)
        assert kinds == ["CONNECT_REQUEST", "ESTABLISHED"]

    def test_connect_to_unbound_port_rejected(self, cm_rig):
        client_qp, *_ = fresh_qp(cm_rig.left)
        established = cm_rig.left_cm.connect("right", 9999, client_qp)
        with pytest.raises(RdmaError, match="no listener"):
            cm_rig.env.run(until=established)

    def test_explicit_reject(self, cm_rig):
        cm_rig.right_cm.listen(7471)
        client_qp, *_ = fresh_qp(cm_rig.left)
        established = cm_rig.left_cm.connect("right", 7471, client_qp)

        def server(env):
            event = yield cm_rig.right_cm.events.get()
            event.request.reject("not today")

        cm_rig.env.process(server(cm_rig.env))
        with pytest.raises(RdmaError, match="not today"):
            cm_rig.env.run(until=established)

    def test_double_listen_raises(self, cm_rig):
        cm_rig.right_cm.listen(7471)
        with pytest.raises(RdmaError, match="already listening"):
            cm_rig.right_cm.listen(7471)

    def test_closed_listener_stops_accepting(self, cm_rig):
        listener = cm_rig.right_cm.listen(7471)
        listener.close()
        client_qp, *_ = fresh_qp(cm_rig.left)
        established = cm_rig.left_cm.connect("right", 7471, client_qp)
        with pytest.raises(RdmaError, match="no listener"):
            cm_rig.env.run(until=established)

    def test_event_watcher_fires(self, cm_rig):
        seen = []
        cm_rig.right_cm.add_event_watcher(lambda ev: seen.append(ev.kind))
        cm_rig.right_cm.listen(7471)
        client_qp, *_ = fresh_qp(cm_rig.left)
        cm_rig.left_cm.connect("right", 7471, client_qp)

        def server(env):
            event = yield cm_rig.right_cm.events.get()
            server_qp, *_ = fresh_qp(cm_rig.right)
            event.request.accept(server_qp)

        cm_rig.env.process(server(cm_rig.env))
        cm_rig.env.run(until=cm_rig.env.now + 1e-3)
        assert "CONNECT_REQUEST" in seen
        assert "ESTABLISHED" in seen

    def test_accept_twice_raises(self, cm_rig):
        cm_rig.right_cm.listen(7471)
        client_qp, *_ = fresh_qp(cm_rig.left)
        cm_rig.left_cm.connect("right", 7471, client_qp)

        def server(env):
            event = yield cm_rig.right_cm.events.get()
            server_qp, *_ = fresh_qp(cm_rig.right)
            event.request.accept(server_qp)
            with pytest.raises(RdmaError, match="already decided"):
                event.request.accept(server_qp)

        p = cm_rig.env.process(server(cm_rig.env))
        cm_rig.env.run(until=p)


class TestCompletionChannel:
    def test_notification_on_next_cqe(self, rig):
        channel = rig.right.create_comp_channel()
        rig.right_recv_cq.channel = channel
        rig.right_recv_cq.request_notify()
        src = rig.register("left", 64, fill=b"notify me")
        dst = rig.register("right", 64)
        rig.right_qp.post_recv(recv_wr(1, dst))

        def waiter(env):
            cq = yield channel.get_cq_event()
            return cq

        p = rig.env.process(waiter(rig.env))
        rig.left_qp.post_send(send_wr(1, src, length=9))
        cq = rig.env.run(until=p)
        assert cq is rig.right_recv_cq
        assert cq.poll()[0].ok

    def test_request_notify_with_pending_fires_immediately(self, rig):
        channel = rig.right.create_comp_channel()
        rig.right_recv_cq.channel = channel
        src = rig.register("left", 64)
        dst = rig.register("right", 64)
        rig.right_qp.post_recv(recv_wr(1, dst))
        rig.left_qp.post_send(send_wr(1, src, length=4))
        rig.run_for(1e-3)  # CQE lands while un-armed
        rig.right_recv_cq.request_notify()  # must notify despite no new CQE
        assert channel.try_get_cq_event() is rig.right_recv_cq

    def test_unarmed_cq_does_not_notify(self, rig):
        channel = rig.right.create_comp_channel()
        rig.right_recv_cq.channel = channel
        src = rig.register("left", 64)
        dst = rig.register("right", 64)
        rig.right_qp.post_recv(recv_wr(1, dst))
        rig.left_qp.post_send(send_wr(1, src, length=4))
        rig.run_for(1e-3)
        assert channel.try_get_cq_event() is None

    def test_notify_fires_once_per_arm(self, rig):
        channel = rig.right.create_comp_channel()
        rig.right_recv_cq.channel = channel
        rig.right_recv_cq.request_notify()
        src = rig.register("left", 64)
        dst = rig.register("right", 64)
        rig.right_qp.post_recv_batch([recv_wr(1, dst), recv_wr(2, dst)])
        rig.left_qp.post_send(send_wr(1, src, length=4))
        rig.left_qp.post_send(send_wr(2, src, length=4))
        rig.run_for(2e-3)
        assert channel.try_get_cq_event() is rig.right_recv_cq
        assert channel.try_get_cq_event() is None  # not re-armed

    def test_push_waiters_are_one_shot_and_need_no_channel(self, rig):
        cq = rig.right_recv_cq
        woken = []
        cq.push_waiters.append(lambda: woken.append(len(cq)))
        src = rig.register("left", 64)
        dst = rig.register("right", 64)
        rig.right_qp.post_recv_batch([recv_wr(1, dst), recv_wr(2, dst)])
        rig.left_qp.post_send(send_wr(1, src, length=4))
        rig.left_qp.post_send(send_wr(2, src, length=4))
        rig.run_for(2e-3)
        # Called once, after the first CQE was queued; not for the second.
        assert woken == [1]
        assert len(cq) == 2 and cq.push_waiters == []
        assert cq.channel is None

    def test_a_waiter_may_subscribe_again_from_its_wake_up(self, rig):
        cq = rig.right_recv_cq
        calls = []

        def waiter():
            calls.append(len(calls))
            cq.push_waiters.append(waiter)

        cq.push_waiters.append(waiter)
        cq.wake_waiters()
        cq.wake_waiters()
        assert calls == [0, 1] and cq.push_waiters == [waiter]

    def test_request_notify_without_channel_raises(self, rig):
        with pytest.raises(RdmaError, match="no completion channel"):
            rig.left_send_cq.request_notify()

    def test_cq_overrun_is_loud(self):
        rig = RdmaPair()
        tiny_cq = rig.right.create_cq(capacity=1, name="tiny")
        from repro.rdma import WorkCompletion, Opcode

        tiny_cq.push(
            WorkCompletion(1, WcStatus.SUCCESS, Opcode.RECV, 0, 1)
        )
        with pytest.raises(RdmaError, match="overrun"):
            tiny_cq.push(
                WorkCompletion(2, WcStatus.SUCCESS, Opcode.RECV, 0, 1)
            )


class TestLossRecovery:
    def _rig_with_loss(self, loss_rate, seed=7):
        import random

        rng = random.Random(seed)

        def drop_fn(frame):
            # Only drop RoCE data traffic; CM runs before loss matters here.
            return rng.random() < loss_rate

        from repro.rdma import QpCapabilities

        return RdmaPair(
            caps=QpCapabilities(retry_timeout=200e-6), drop_fn=drop_fn
        )

    def test_send_recovers_from_loss(self):
        rig = self._rig_with_loss(0.05)
        payload = bytes(i % 256 for i in range(30_000))
        src = rig.register("left", len(payload), fill=payload)
        dst = rig.register("right", len(payload))
        rig.right_qp.post_recv(recv_wr(1, dst))
        rig.left_qp.post_send(send_wr(1, src))
        wcs = rig.poll_until(rig.right_recv_cq, deadline=2.0)
        assert wcs and wcs[0].ok
        assert bytes(dst.buffer) == payload

    def test_read_recovers_from_loss(self):
        from repro.rdma import Access

        rig = self._rig_with_loss(0.05, seed=11)
        payload = bytes((5 * i) % 256 for i in range(20_000))
        remote = rig.register(
            "right",
            len(payload),
            access=Access.LOCAL_WRITE | Access.REMOTE_READ,
            fill=payload,
        )
        local = rig.register("left", len(payload))
        from tests.rdma.test_one_sided import read_wr

        rig.left_qp.post_send(read_wr(1, local, remote.remote_address()))
        wcs = rig.poll_until(rig.left_send_cq, deadline=2.0)
        assert wcs and wcs[0].ok
        assert bytes(local.buffer) == payload

    def test_total_blackhole_exhausts_retries(self):
        from repro.rdma import QpCapabilities

        rig = RdmaPair(
            caps=QpCapabilities(retry_timeout=100e-6, retry_count=3),
            drop_fn=lambda frame: frame.payload.__class__.__name__ == "RocePacket",
        )
        src = rig.register("left", 64, fill=b"void")
        rig.left_qp.post_send(send_wr(1, src, length=4))
        rig.run_for(50e-3)
        assert rig.left_qp.state is QpState.ERROR
        wcs = rig.left_send_cq.poll()
        assert wcs[0].status is WcStatus.RETRY_EXC_ERR
