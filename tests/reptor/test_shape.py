"""Shape lint: one Reptor I/O path.

RUBIN recreates the NIO channel API, so :class:`ReptorEndpoint` picks its
selector, channel factories and interest ops from the transport once, in
``__init__``, and from then on drives both transports through one path.
Nothing under ``src/repro/reptor`` may compare against the transport
anywhere else, and no code may probe a connection for an attribute with
``getattr``: per-connection state is a declared field.
"""

import ast
from pathlib import Path

import repro

REPTOR_ROOT = Path(repro.__file__).resolve().parent / "reptor"


def _is_transport(node):
    return (isinstance(node, ast.Name) and node.id == "transport") or (
        isinstance(node, ast.Attribute) and node.attr == "transport"
    )


def _violations(tree):
    """``(line, what)`` for every transport comparison outside
    ``ReptorEndpoint.__init__`` and every ``getattr`` call in ``tree``."""
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "ReptorEndpoint":
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    allowed |= {id(node) for node in ast.walk(item)}
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Compare)
            and id(node) not in allowed
            and any(map(_is_transport, [node.left, *node.comparators]))
        ):
            found.append((node.lineno, "transport comparison"))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
        ):
            found.append((node.lineno, "getattr probe"))
    return sorted(found)


def test_no_transport_branch_after_construction():
    found = {
        path.name: _violations(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(REPTOR_ROOT.rglob("*.py"))
    }
    assert "endpoint.py" in found
    assert not any(found.values()), (
        "pick per-transport behaviour in ReptorEndpoint.__init__ or in the "
        f"channel, and declare connection fields: {found}"
    )


def test_the_lint_sees_what_it_should():
    tree = ast.parse(
        "class ReptorEndpoint:\n"
        "    def __init__(self, transport):\n"
        "        if transport == 'nio':\n"
        "            pass\n"
        "    def _write(self, connection):\n"
        "        if self.transport == 'rubin':\n"
        "            ring = getattr(connection, '_ring', None)\n"
        "def helper(endpoint):\n"
        "    return 'nio' != endpoint.transport\n"
    )
    assert _violations(tree) == [
        (6, "transport comparison"),
        (7, "getattr probe"),
        (9, "transport comparison"),
    ]
