"""Determinism lint: no ambient randomness or wall-clock in the model.

Replayable schedule exploration requires every source of nondeterminism
under ``src/repro`` to be either the simulated clock or an explicitly
seeded RNG.  This AST lint enforces it:

* ``import time`` (and ``from time import ...``) only in the wall-clock
  benchmark modules, which measure the *host*, never the model;
* ``random`` may only be used to construct seeded ``random.Random``
  instances — the module-level functions share hidden global state;
* no ``from random import ...`` anywhere (it hides which RNG is used).

One more rule is about cost, not determinism: a ``while`` loop that wakes
on a fixed period pays an agenda entry per period, busy or not, so every
such loop is listed below with the reason it ticks
(:func:`repro.sim.grid_wait` is the tickless way to wait on a grid).
"""

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

#: Modules allowed to read the host clock: they benchmark the host
#: (wall-clock throughput gate, perf-regression stamps), not the model.
TIME_ALLOWED = {
    "bench/wallclock.py",
    "bench/regression.py",
}

#: Modules allowed to spawn processes: only the sharded parallel kernel.
MULTIPROCESSING_ALLOWED = {
    "sim/parallel.py",
}


#: Every ``while`` loop whose body yields ``env.timeout(<constant or
#: configured period>)``, by function, with the number of such loops in
#: it.  A new entry is a decision: either the loop does work on every
#: tick, or its idle ticks cannot be dropped — say which.
TICKING_LOOPS = {
    # -- polls left ticking on purpose ---------------------------------
    # The tick after a read that returned 0.  The read it leads to is
    # not a no-op (progress marker, a ``rubin.read`` process, a CQ
    # drain), so it is armed for real; the idle grid behind it is a
    # ``grid_wait``.
    "bench/echo.py::_read_exactly": 1,
    # Retry of a refused write: each retry is a ``rubin.write`` with
    # the same side effects, and refusals are rare (full send queue).
    "bench/echo.py::_write_all": 1,
    # Connection establishment: tens of ticks per run, once.
    "bench/echo.py::rubin_channel_echo.server": 2,
    "bench/echo.py::rubin_channel_echo.client": 1,
    # The one-sided poller's 5 us grid starts at a round instant beside
    # round-number protocol timers, so bit-exact ties with other entries
    # are plausible rather than measure-zero, every tick drains links
    # and polls readers, and no perfbench workload covers it.
    "bft/onesided.py::OneSidedReplica._os_poll_loop": 1,
    # -- periodic work: the tick is the job ------------------------------
    # Samples every probe on the sim clock each period.
    "obs/sampler.py::MetricsSampler._loop": 1,
    # Compares outstanding requests against the stall threshold.
    "audit/watchdog.py::ConsensusWatchdog._loop": 1,
    # View-change timer: compares request deadlines with the clock.
    "bft/replica.py::Replica._timer_loop": 1,
    # Adaptive batching: one bounded wait for more requests per batch.
    "bft/replica.py::Replica._batch_loop": 1,
    # Re-broadcasts the state-transfer request until answered.
    "bft/replica.py::Replica._state_transfer_loop": 1,
    # Expires stale requests and fills merge gaps with no-ops.
    "bft/cop/group.py::CopReplica._merge_fill_loop": 1,
    # A Byzantine writer hammering a slot: one write per tick.
    "bft/byzantine.py::PermissionRaceReplica._race_loop": 1,
}


def _is_period(node: ast.expr) -> bool:
    """A numeric literal, or a bare name/attribute (a configured period);
    a computed delay (``retry_timeout / 2``, ``deadline - now``) is a
    timer, not a grid."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float))
    return isinstance(node, (ast.Name, ast.Attribute))


def _yields_a_period(loop: ast.While) -> bool:
    """``yield <env>.timeout(<period>)`` in the loop's own body."""
    stack = list(loop.body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.While)
        ):
            continue  # another scope, or a loop judged on its own
        if (
            isinstance(node, ast.Yield)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "timeout"
            and len(node.value.args) == 1
            and _is_period(node.value.args[0])
        ):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _ticking_loops(tree: ast.AST, relative: str) -> dict:
    found: dict = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.While) and _yields_a_period(child):
                key = f"{relative}::{'.'.join(scope)}"
                found[key] = found.get(key, 0) + 1
            visit(child, scope)

    visit(tree, [])
    return found


def _source_files():
    return sorted(SRC_ROOT.rglob("*.py"))


def _relative(path: Path) -> str:
    return path.relative_to(SRC_ROOT).as_posix()


class TestDeterminismLint:
    def test_wall_clock_only_in_host_benchmarks(self):
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                imports_time = (
                    isinstance(node, ast.Import)
                    and any(a.name.split(".")[0] == "time" for a in node.names)
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "time"
                )
                if imports_time and _relative(path) not in TIME_ALLOWED:
                    offenders.append(f"{_relative(path)}:{node.lineno}")
        assert not offenders, (
            "wall-clock import outside the host benchmarks "
            f"(simulated code must use env.now): {offenders}"
        )

    def test_no_from_random_imports(self):
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "random"
                ):
                    offenders.append(f"{_relative(path)}:{node.lineno}")
        assert not offenders, f"use seeded random.Random instances: {offenders}"

    def test_random_used_only_to_construct_seeded_rngs(self):
        """Every ``random.X`` attribute must be ``random.Random`` (the
        seeded generator class); module-level helpers like
        ``random.random()`` draw from hidden global state and would make
        runs irreproducible."""
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "random"
                    and node.attr != "Random"
                ):
                    offenders.append(
                        f"{_relative(path)}:{node.lineno} random.{node.attr}"
                    )
        assert not offenders, f"unseeded RNG use: {offenders}"

    def test_seeded_rng_constructions_carry_a_seed(self):
        """``random.Random()`` with no argument seeds from the OS — as
        nondeterministic as the module-level functions."""
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "random"
                    and node.func.attr == "Random"
                    and not node.args
                    and not node.keywords
                ):
                    offenders.append(f"{_relative(path)}:{node.lineno}")
        assert not offenders, f"unseeded random.Random(): {offenders}"

    def test_no_os_urandom(self):
        """``os.urandom`` is OS entropy: irreproducible by definition.
        Key material comes from the deterministic ``KeyStore`` secrets;
        anything else must use a seeded ``random.Random``."""
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr == "urandom"
                ):
                    offenders.append(f"{_relative(path)}:{node.lineno}")
        assert not offenders, f"OS entropy in the model: {offenders}"

    def test_every_ticking_loop_is_there_on_purpose(self):
        found = {}
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            found.update(_ticking_loops(tree, _relative(path)))
        assert found == TICKING_LOOPS, (
            "a loop that wakes every period costs an agenda entry per "
            "period; wait with repro.sim.grid_wait, or list the loop in "
            "TICKING_LOOPS with the reason it must tick"
        )

    def test_the_ticking_loop_rule_sees_what_it_should(self):
        source = """
def poll(env, ready, config):
    while not ready():
        yield env.timeout(0.2e-6)
    while True:
        if ready():
            yield env.timeout(config.period)
    while True:
        yield env.timeout(config.period / 2)
        yield env.event()
"""
        assert _ticking_loops(ast.parse(source), "x.py") == {"x.py::poll": 2}

    def test_multiprocessing_only_in_parallel_kernel(self):
        """Worker processes exist only in ``sim/parallel.py`` — model
        code must never fork its own concurrency behind the kernel's
        back."""
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                imports_mp = (
                    isinstance(node, ast.Import)
                    and any(
                        a.name.split(".")[0] == "multiprocessing"
                        for a in node.names
                    )
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "multiprocessing"
                )
                if imports_mp and _relative(path) not in MULTIPROCESSING_ALLOWED:
                    offenders.append(f"{_relative(path)}:{node.lineno}")
        assert not offenders, (
            f"multiprocessing outside sim/parallel.py: {offenders}"
        )

    def test_parallel_kernel_is_spawn_only_and_clock_free(self):
        """The sharded kernel's extra rules.

        * no host clock (``time``) — windows are driven by modeled time;
        * every process must come from ``get_context("spawn")``: the
          default start method is ``fork`` on Linux, which duplicates
          parent state (open pipes, the imported module graph, any
          lazily-initialized cache) into the worker and makes run
          results depend on what the parent happened to have touched —
          so bare ``multiprocessing.Process`` and ``set_start_method``
          are both rejected.
        """
        path = SRC_ROOT / "sim" / "parallel.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        mp_aliases = set()
        offenders = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "time":
                        offenders.append(f"time import:{node.lineno}")
                    if root == "multiprocessing":
                        mp_aliases.add(alias.asname or root)
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root == "time":
                    offenders.append(f"time import:{node.lineno}")
                if root == "multiprocessing":
                    # from-imports hide whether Process came from a
                    # spawn context; require attribute access instead.
                    offenders.append(f"from multiprocessing:{node.lineno}")
        assert mp_aliases, "sim/parallel.py no longer imports multiprocessing?"
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in mp_aliases
                and node.attr != "get_context"
            ):
                offenders.append(
                    f"multiprocessing.{node.attr}:{node.lineno} "
                    "(only get_context is allowed)"
                )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get_context"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mp_aliases
            ):
                spawn_literal = (
                    len(node.args) == 1
                    and not node.keywords
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "spawn"
                )
                if not spawn_literal:
                    offenders.append(
                        f"get_context without literal 'spawn':{node.lineno}"
                    )
            if isinstance(node, ast.Attribute) and node.attr == "set_start_method":
                offenders.append(f"set_start_method:{node.lineno}")
        assert not offenders, (
            f"sim/parallel.py determinism violations: {offenders}"
        )
