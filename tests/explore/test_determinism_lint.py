"""Determinism lint: no ambient randomness or wall-clock in the model.

Replayable schedule exploration requires every source of nondeterminism
under ``src/repro`` to be either the simulated clock or an explicitly
seeded RNG.  This AST lint enforces it:

* ``import time`` (and ``from time import ...``) only in the wall-clock
  benchmark modules, which measure the *host*, never the model;
* ``random`` may only be used to construct seeded ``random.Random``
  instances — the module-level functions share hidden global state;
* no ``from random import ...`` anywhere (it hides which RNG is used);
* no ``multiprocessing`` / ``subprocess`` / ``threading`` / ``os.fork``:
  one process, one thread, no concurrency behind the kernel's back;
* no read of the process environment, so a run's schedule is a function
  of its arguments alone (the one exception is an *output path*).

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
#: (perf-regression stamps), not the model.
TIME_ALLOWED = {
    "bench/regression.py",
}

#: Modules that bring their own concurrency.  Nothing may import them.
CONCURRENCY_MODULES = {"multiprocessing", "subprocess", "threading"}

#: The one environment variable read under ``src/repro``: where CI wants
#: the gate's markdown summary written.  An output path, not behaviour.
ENV_ALLOWED = {"bench/__main__.py": "GITHUB_STEP_SUMMARY"}


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
    "bft/onesided.py::OneSidedPath._poll_loop": 1,
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
    "bft/replica.py::Replica._merge_fill_loop": 1,
    # A Byzantine writer hammering a slot: one write per tick.
    "bft/faults.py::_race_loop": 1,
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


def _concurrency_uses(tree: ast.AST) -> list:
    """Lines importing a :data:`CONCURRENCY_MODULES` member or forking."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "fork":
            names = ["os.fork"]
        else:
            continue
        if any(
            name == "os.fork" or name.split(".")[0] in CONCURRENCY_MODULES
            for name in names
        ):
            lines.append(node.lineno)
    return sorted(lines)


def _environment_reads(tree: ast.AST, allowed_name=None) -> list:
    """Lines touching ``os.environ`` / ``os.getenv``, except
    ``<os>.environ.get("<allowed_name>")``."""
    allowed = {
        id(node.func.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == allowed_name
    }
    lines = []
    for node in ast.walk(tree):
        reads = (
            isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(a.name in ("environ", "getenv") for a in node.names)
        )
        if reads and id(node) not in allowed:
            lines.append(node.lineno)
    return sorted(lines)


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

    def test_no_concurrency_behind_the_kernels_back(self):
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders += [
                f"{_relative(path)}:{line}" for line in _concurrency_uses(tree)
            ]
        assert not offenders, f"process or thread machinery: {offenders}"
        sample = "import os, threading\nfrom subprocess import run\nos.fork()"
        assert _concurrency_uses(ast.parse(sample)) == [1, 2, 3]

    def test_no_environment_reads(self):
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            allowed = ENV_ALLOWED.get(_relative(path))
            offenders += [
                f"{_relative(path)}:{line}"
                for line in _environment_reads(tree, allowed)
            ]
        assert not offenders, f"environment read: {offenders}"
        sample = (
            "import os\nfrom os import getenv\nos.environ.get('OUT')\n"
            "os.environ['OUT']\nos.getenv('OUT')\nos.environ.get('KNOB')"
        )
        assert _environment_reads(ast.parse(sample), "OUT") == [2, 4, 5, 6]
