"""Shape lint: one replica core, faults as hooks.

Ordering flavours (COP groups, the one-sided proposal transport) are
parts of :class:`~repro.bft.replica.Replica`, chosen from ``BftConfig``,
and Byzantine behaviours are hooks armed on a live replica
(:mod:`repro.bft.faults`) — so nothing under ``src/repro`` may subclass
``Replica`` or ``BftClient`` again, except the one internal per-group
pipeline type, and the cluster builder may not discover features by
probing attributes.
"""

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

#: The only subclass allowed: COP's pipeline for groups 1..G-1.
ALLOWED_SUBCLASSES = {"_GroupPipeline"}


def _class_bases():
    """``{class name: (module, base names)}`` over every source file."""
    found = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                }
                module = path.relative_to(SRC_ROOT).as_posix()
                found.setdefault(node.name, []).append((module, bases))
    return found


def _subclasses(classes, roots):
    """Names of every class deriving (transitively) from ``roots``."""
    derived = set()
    frontier = set(roots)
    while frontier:
        frontier = {
            name
            for name, definitions in classes.items()
            for _module, bases in definitions
            if bases & frontier and name not in derived
        }
        derived |= frontier
    return derived


class TestOneReplicaCore:
    def test_no_replica_or_client_subclasses(self):
        classes = _class_bases()
        assert "Replica" in classes and "BftClient" in classes
        derived = _subclasses(classes, {"Replica", "BftClient"})
        assert derived == ALLOWED_SUBCLASSES, (
            "choose a flavour through BftConfig and arm faults through "
            f"repro.bft.faults instead of subclassing: {sorted(derived)}"
        )

    def test_the_subclass_scan_sees_what_it_should(self):
        classes = {
            "Replica": [("a.py", set())],
            "Evil": [("b.py", {"Replica"})],
            "Eviler": [("c.py", {"Evil"})],
            "Client": [("d.py", {"object"})],
        }
        assert _subclasses(classes, {"Replica"}) == {"Evil", "Eviler"}

    def test_cluster_discovers_no_feature_by_attribute_probe(self):
        source = (SRC_ROOT / "bft" / "cluster.py").read_text()
        assert "hasattr(" not in source
