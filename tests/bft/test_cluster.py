"""End-to-end replication: agreement, execution, consistency, recovery."""

import pytest

from repro.bft import BftCluster, BftConfig, CounterMachine, KeyValueStore, faults


def make_cluster(transport="nio", **kwargs):
    defaults = dict(
        config=BftConfig(view_change_timeout=30e-3, batch_delay=50e-6),
        num_clients=1,
    )
    defaults.update(kwargs)
    cluster = BftCluster(transport=transport, **defaults)
    cluster.start()
    return cluster


@pytest.fixture(params=["nio", "rubin"])
def cluster(request):
    return make_cluster(request.param)


class TestHappyPath:
    def test_single_request_executes_everywhere(self, cluster):
        result = cluster.invoke_and_wait(b"PUT answer=42")
        assert result == b"OK"
        cluster.run_for(5e-3)  # let the last commits land everywhere
        for replica_id, app in cluster.apps.items():
            assert app.get("answer") == "42", replica_id

    def test_get_after_put(self, cluster):
        cluster.invoke_and_wait(b"PUT name=rubin")
        assert cluster.invoke_and_wait(b"GET name") == b"rubin"

    def test_sequential_requests_totally_ordered(self, cluster):
        for i in range(10):
            cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode())
        cluster.run_for(10e-3)
        seqs = cluster.executed_sequences()
        assert len(set(seqs.values())) == 1, seqs
        digests = cluster.state_digests()
        assert len(set(digests.values())) == 1, "replica states diverged"

    def test_duplicate_request_not_reexecuted(self):
        cluster = make_cluster(app_factory=CounterMachine)
        client = cluster.client()
        result = cluster.invoke_and_wait(CounterMachine.add(5))
        assert int.from_bytes(result, "big", signed=True) == 5
        # Re-send the identical request (same timestamp): replicas must
        # reply from cache, not apply twice.
        from repro.bft.messages import Request, encode

        request = Request(client_id=client.client_id, timestamp=1,
                          operation=CounterMachine.add(5))

        def resend(env):
            for connection in client._connections.values():
                yield connection.send(encode(request))
            yield env.timeout(20e-3)

        p = cluster.env.process(resend(cluster.env))
        cluster.env.run(until=p)
        for app in cluster.apps.values():
            assert app.value == 5

    def test_a_malformed_operation_is_answered_not_raised(self, cluster):
        """One client's unparsable operation used to escape the detached
        execution into the kernel: the run stopped with replicas split
        across the slot, and every later request raised again."""
        assert cluster.invoke_and_wait(b"PUT a=1") == b"OK"
        assert cluster.invoke_and_wait(b"FOO x") == b"ERR unknown verb 'FOO'"
        assert cluster.invoke_and_wait(b"PUT b=2") == b"OK"
        cluster.run_for(5e-3)
        assert set(cluster.executed_sequences().values()) == {3}
        assert len(set(cluster.state_digests().values())) == 1
        for app in cluster.apps.values():
            assert (app.get("a"), app.get("b"), app.applied_count) == ("1", "2", 3)


class TestConcurrency:
    def test_concurrent_clients_converge(self):
        cluster = make_cluster(num_clients=3, app_factory=CounterMachine)
        done = []

        def worker(env, client, count):
            for _ in range(count):
                yield client.invoke(CounterMachine.add(1))
            done.append(True)

        for i in range(3):
            cluster.env.process(worker(cluster.env, cluster.client(i), 5))
        limit = cluster.env.now + 2.0
        while len(done) < 3 and cluster.env.peek() < limit:
            cluster.env.step()
        assert len(done) == 3
        cluster.run_for(10e-3)
        values = {rid: app.value for rid, app in cluster.apps.items()}
        assert set(values.values()) == {15}, values

    def test_batching_packs_multiple_requests(self):
        cluster = make_cluster(app_factory=CounterMachine)
        client = cluster.client()
        events = [client.invoke(CounterMachine.add(1)) for _ in range(10)]
        done = cluster.env.all_of(events)
        cluster.env.run(until=done)
        cluster.run_for(10e-3)
        leader = cluster.replica("r0")
        # 10 requests fit in far fewer than 10 protocol instances.
        assert leader.executed_seq < 10
        for app in cluster.apps.values():
            assert app.value == 10


class TestCheckpoints:
    def test_log_truncates_after_checkpoint(self):
        cluster = make_cluster(
            config=BftConfig(
                checkpoint_interval=4,
                log_window=32,
                batch_delay=0.0,
                batch_size=1,
                view_change_timeout=30e-3,
            )
        )
        for i in range(12):
            cluster.invoke_and_wait(f"PUT x{i}=y".encode())
        cluster.run_for(20e-3)
        for replica in cluster.replicas.values():
            assert replica.log.stable_seq >= 4
            assert all(s > replica.log.stable_seq for s in replica.log.slots)


class TestFaultTolerance:
    def test_crashed_backup_does_not_block_progress(self, cluster):
        backup_id = [r for r in cluster.replica_ids if r != "r0"][0]
        cluster.replica(backup_id).stop()
        result = cluster.invoke_and_wait(b"PUT still=alive")
        assert result == b"OK"

    def test_leader_crash_triggers_view_change(self):
        cluster = make_cluster()
        cluster.invoke_and_wait(b"PUT before=crash")
        faults.go_silent(cluster.replica("r0"))
        result = cluster.invoke_and_wait(b"PUT after=crash")
        assert result == b"OK"
        survivors = [r for r in cluster.replicas.values() if r.replica_id != "r0"]
        assert all(r.view >= 1 for r in survivors)
        assert all(not r.in_view_change for r in survivors)
        # State on survivors includes both writes.
        cluster.run_for(10e-3)
        for replica_id in ("r1", "r2", "r3"):
            app = cluster.apps[replica_id]
            assert app.get("before") == "crash"
            assert app.get("after") == "crash"

    def test_equivocating_leader_cannot_split_state(self):
        cluster = make_cluster(app_factory=KeyValueStore)
        cluster.invoke_and_wait(b"PUT honest=1")
        faults.equivocate(cluster.replica("r0"))
        result = cluster.invoke_and_wait(b"PUT contested=value")
        assert result == b"OK"
        cluster.run_for(30e-3)
        # Safety: no two honest replicas executed different operations.
        honest = [rid for rid in cluster.replica_ids if rid != "r0"]
        values = {cluster.apps[rid].get("contested") for rid in honest}
        values.discard(None)  # a replica may lag, but must not diverge
        assert len(values) == 1
        assert not any(
            (cluster.apps[rid].get("contested") or "").startswith("FORGED")
            for rid in honest
        )


class TestViewChangeDetails:
    def test_view_change_preserves_prepared_requests(self):
        """Requests prepared under the old leader survive into the new
        view (the new-view message re-proposes them)."""
        cluster = make_cluster()
        cluster.invoke_and_wait(b"PUT seed=1")
        faults.go_silent(cluster.replica("r0"))
        # Submit while the leader is dead: replicas time out, change view,
        # and the request still executes exactly once.
        result = cluster.invoke_and_wait(b"PUT survived=yes")
        assert result == b"OK"
        cluster.run_for(20e-3)
        for replica_id in ("r1", "r2", "r3"):
            assert cluster.apps[replica_id].get("survived") == "yes"
            assert cluster.apps[replica_id].applied_count == 2

    def test_service_continues_after_view_change(self):
        cluster = make_cluster()
        faults.go_silent(cluster.replica("r0"))
        for i in range(5):
            assert cluster.invoke_and_wait(f"PUT k{i}=v".encode()) == b"OK"
        survivors = [cluster.replicas[r] for r in ("r1", "r2", "r3")]
        digests = {cluster.apps[r.replica_id].digest() for r in survivors}
        cluster.run_for(20e-3)
        digests = {cluster.apps[r.replica_id].digest() for r in survivors}
        assert len(digests) == 1


class TestCop:
    def test_cop_pipelines_preserve_total_order(self):
        cluster = make_cluster(
            config=BftConfig(
                pipelines=4,
                batch_size=1,
                batch_delay=0.0,
                view_change_timeout=30e-3,
            ),
            app_factory=CounterMachine,
        )
        client = cluster.client()
        events = [client.invoke(CounterMachine.add(i)) for i in range(1, 9)]
        cluster.env.run(until=cluster.env.all_of(events))
        cluster.run_for(10e-3)
        expected = sum(range(1, 9))
        for replica_id, app in cluster.apps.items():
            assert app.value == expected, replica_id
        digests = cluster.state_digests()
        assert len(set(digests.values())) == 1
