"""Kernel tie-break hook: pluggable, default-invisible, clamping.

The exploration machinery rests on one kernel property: installing a
policy that always answers 0 is indistinguishable from running with no
policy at all.  These tests pin that, plus the reorder and clamping
semantics the explorer relies on.
"""

from hypothesis import given, settings

from repro.explore.policy import RecordingPolicy, SeededFuzz
from repro.sim import Environment, TieBreakPolicy
from tests.sim.test_properties import _ACTORS, _run_program


def _tied_run(policy=None, names=("a", "b", "c", "d")):
    """Four processes all waking at the same instant; returns wake order."""
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1e-3)
        order.append(name)

    for name in names:
        env.process(proc(env, name), name=name)
    if policy is not None:
        env.set_tiebreak(policy)
    env.run()
    return order


class _PickLast(TieBreakPolicy):
    def choose(self, now, entries):
        return len(entries) - 1


class _PickSecond(TieBreakPolicy):
    """Rotates every tied ready set: not an involution, so applying it
    to both the process-init ties and the wake ties cannot cancel out
    (picking *last* twice restores the original order)."""

    def choose(self, now, entries):
        return 1 if len(entries) > 1 else 0


class _OutOfRange(TieBreakPolicy):
    def choose(self, now, entries):
        return 99


class TestDefaultInvisibility:
    def test_no_policy_order_is_insertion_order(self):
        assert _tied_run() == ["a", "b", "c", "d"]

    def test_base_policy_matches_no_policy(self):
        assert _tied_run(TieBreakPolicy()) == _tied_run()

    def test_recording_policy_without_prescription_matches_default(self):
        policy = RecordingPolicy()
        assert _tied_run(policy) == _tied_run()
        # It saw real ties and recorded only default choices.
        assert any(size > 1 for size in policy.sizes)
        assert all(choice == 0 for choice in policy.choices)
        assert policy.trimmed_choices() == ()

    def test_clearing_the_policy_restores_the_fast_path(self):
        env = Environment()
        env.set_tiebreak(TieBreakPolicy())
        env.set_tiebreak(None)
        assert env._tiebreak is None


class TestReordering:
    def test_pick_second_permutes_ties(self):
        order = _tied_run(_PickSecond())
        assert order != ["a", "b", "c", "d"]
        assert sorted(order) == ["a", "b", "c", "d"]

    def test_reordered_run_is_deterministic(self):
        assert _tied_run(_PickSecond()) == _tied_run(_PickSecond())

    def test_out_of_range_choice_clamps_to_default(self):
        assert _tied_run(_OutOfRange()) == _tied_run()

    def test_prescribed_deviation_replays_identically(self):
        first = _tied_run(RecordingPolicy(prescribed=(1,)))
        second = _tied_run(RecordingPolicy(prescribed=(1,)))
        assert first == second
        assert first != _tied_run()

    def test_step_consults_the_policy(self):
        env = Environment()
        hits = []

        def make(tag):
            def cb(event):
                hits.append(tag)
            return cb

        for tag in ("x", "y"):
            event = env.timeout(1e-3)
            event.callbacks.append(make(tag))
        env.set_tiebreak(_PickLast())
        env.step()
        assert hits == ["y"]


class TestRecordingPolicy:
    def test_out_of_range_prescription_is_counted_as_clamped(self):
        policy = RecordingPolicy(prescribed=(99,))
        _tied_run(policy)
        assert policy.clamped == 1
        assert policy.choices[0] == 0

    def test_owner_keys_recorded_on_request(self):
        policy = RecordingPolicy(record_owners=True)
        _tied_run(policy)
        assert len(policy.owners) == len(policy.sizes)
        flattened = {owner for owners in policy.owners for owner in owners}
        assert {"a", "b", "c", "d"} <= flattened

    def test_trimmed_choices_drop_only_trailing_defaults(self):
        policy = RecordingPolicy()
        policy.choices = [0, 2, 0, 1, 0, 0]
        assert policy.trimmed_choices() == (0, 2, 0, 1)


class TestOwnerKey:
    def test_duplex_cable_halves_keep_their_whole_name_owner(self):
        """"a<->b.fwd" link names are owned by the whole cable: the
        owner is the name up to its first dot."""
        from repro.explore.policy import owner_key
        from repro.sim.events import Event

        class _NamedPort:
            name = "client<->server.fwd"

            def deliver(self, event):
                pass

        env = Environment()
        event = Event(env)
        event.callbacks.append(_NamedPort().deliver)
        assert owner_key(event) == "client<->server"

    def test_a_bare_entry_is_owned_by_its_function_s_object(self):
        """A bare entry has no event: its one function says who owns it,
        as an event's first callback does — and a policy recording owners
        sees it among its ties."""

        class _NamedPort:
            def __init__(self, name):
                self.name = name

            def deliver(self, _arg):
                pass

        def plain(_arg):
            pass

        env = Environment()
        policy = RecordingPolicy(record_owners=True)
        env.set_tiebreak(policy)
        for port in (_NamedPort("a<->b.fwd"), _NamedPort("c.rnic")):
            env._eid += 1
            env._dq.append((env.now, 1, env._eid, None, port.deliver, None))
        env._eid += 1
        env._dq.append((env.now, 1, env._eid, None, plain, None))
        env.run()
        assert policy.owners[0] == ("a<->b", "c", "plain")


class TestSeededFuzz:
    def test_same_seed_same_decisions(self):
        entries = [None] * 6

        def decisions(seed):
            fuzz = SeededFuzz(seed, deviation_rate=0.5, max_deviations=8)
            return [fuzz(0.0, entries, i) for i in range(64)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_deviation_budget_is_respected(self):
        fuzz = SeededFuzz(3, deviation_rate=1.0, max_deviations=2)
        picks = [fuzz(0.0, [None] * 4, i) for i in range(32)]
        assert fuzz.deviations == 2
        assert sum(1 for p in picks if p != 0) <= 2


# ---------------------------------------------------------------------------
# The agenda diet leaves every choice point where it was
# ---------------------------------------------------------------------------
#
# A TimedHold that runs its grant or completion on the spot does so only
# when that entry would have been alone at its instant — so it was never
# part of a tie, and the policy sees exactly the ready sets it would see
# if every charge were the request / timeout / release process, which
# never fuses.  Starts stay heap entries while a policy is installed, so
# same-instant starts remain ties.


class _Ties(RecordingPolicy):
    """Also records when each choice point arose."""

    def __init__(self, pick=None):
        super().__init__(fallback=pick)
        self.times = []

    def choose(self, now, entries):
        self.times.append(now)
        return super().choose(now, entries)


def _rotate(now, entries, position):
    return 1 if len(entries) > 1 else 0


#: Four actors charging one 4-slot resource for exactly tied durations,
#: and one that charges alone at instants nobody shares.
_TIED = [
    (0.0, [("charge", 1, 2.0, True, True), ("charge", 1, 1.0, True, True)]),
    (
        0.0,
        [
            ("charge", 1, 2.0, True, True),
            ("put", True),
            ("charge", 1, 1.0, True, True),
        ],
    ),
    (0.0, [("charge", 1, 2.0, True, True), ("get",)]),
    (1.0, [("charge", 1, 1.0, True, True)]),
    (3.5, [("charge", 0, 0.25, True, True), ("charge", 0, 0.25, True, True)]),
]


class TestFusionAndPolicies:
    def test_always_zero_policy_reproduces_the_policy_free_order(self):
        free, free_events = _run_program(_TIED)
        chosen, chosen_events = _run_program(_TIED, policy=TieBreakPolicy())
        assert chosen == free
        # Under a policy each start is a heap entry again (5 actors, 8
        # holds); nothing else differs.
        assert chosen_events - free_events == 5 + 8

    def test_lone_holds_fuse_and_tied_ones_do_not(self):
        policy = _Ties()
        _trace, events = _run_program(_TIED, policy=policy)
        _trace, long_events = _run_program(_TIED, policy=_Ties(), long_charges=True)
        # The isolated actor's two holds fused both ends (4 entries), the
        # policy never heard of them, and every tie it did see involved
        # the crowded instants 0..3.
        assert long_events - events >= 4
        assert policy.times and max(policy.times) <= 3.0

    @given(actors=_ACTORS)
    @settings(max_examples=100, deadline=None)
    def test_ready_sets_match_the_unfused_reference(self, actors):
        for pick in (None, _rotate):
            short, long = _Ties(pick), _Ties(pick)
            trace, _ = _run_program(actors, policy=short)
            expected, _ = _run_program(actors, policy=long, long_charges=True)
            assert (short.times, short.sizes) == (long.times, long.sizes)
            assert short.choices == long.choices
            assert trace == expected

    def test_always_zero_policy_reproduces_a_policy_free_pbft_run(self):
        """Under a policy every inlined or detached call on the request
        path is the process it stands for (its start and completion are
        ties the policy enumerates), without one none is: the same
        requests commit at the same instants with the same replies
        either way — the whole stack as the differential test of
        ``repro.sim.inline`` / ``detach`` against the spawns."""
        from repro.bft import BftCluster, BftConfig

        def run(policy):
            cluster = BftCluster(
                transport="rubin",
                config=BftConfig(batch_size=1, batch_delay=0.0),
                num_clients=2,
            )
            env = cluster.env
            if policy is not None:
                env.set_tiebreak(policy)
            cluster.start()
            before = env._eid
            done = []

            def client_loop(env, client, tag):
                for i in range(6):
                    reply = yield client.invoke(b"PUT %s%d=v" % (tag, i))
                    done.append((env.now, tag, i, reply))

            loops = [
                env.process(client_loop(env, client, tag))
                for tag, client in zip((b"a", b"b"), cluster.clients.values())
            ]
            env.run(until=env.all_of(loops))
            return done, cluster.state_digests(), env._eid - before

        free, free_digests, free_events = run(None)
        chosen, chosen_digests, chosen_events = run(TieBreakPolicy())
        assert len(free) == 12
        assert chosen == free
        assert chosen_digests == free_digests
        # Keyed starts, and the calls' own entries, are back.
        assert chosen_events > free_events
