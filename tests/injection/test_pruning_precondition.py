"""The precondition def/use pruning rests on, pinned over the source.

Pruning is exact only if every software read of the emulated memory
goes through :class:`repro.memory.memmap.Variable` (whose reads a
recording observes).  This test parses every module that determines a
shipped target's results (its ``fingerprint_sources()``) plus the
serving session, and checks where the raw buffer — ``MemoryMap.data``,
``Variable._data`` and the ``MemoryMap.read_*`` helpers over it — is
touched:

* read: only in :mod:`repro.memory.memmap`, and in the injectors (the
  stuck-at model reads the one bit it forces — the fault model, not
  the software);
* written directly: additionally only by the injectors and the serving
  session's scheduled flip.
"""

import ast
from pathlib import Path

import repro
from repro.experiments.store import _module_source_files
from repro.targets.registry import get_target, target_names

_PACKAGE = Path(repro.__file__).parent

#: Attribute names that reach the raw emulated buffer.
_BUFFER = ("data", "_data")
_READ_HELPERS = ("read_u8", "read_u16", "read_i16")

_MEMMAP = "memory/memmap.py"
_INJECTOR = "injection/injector.py"
_SESSION = "serve/session.py"

READERS = {_MEMMAP, _INJECTOR}
WRITERS = {_MEMMAP, _INJECTOR, _SESSION}


def _scanned_files():
    files = {_PACKAGE / _SESSION}
    for name in target_names():
        for module in get_target(name).fingerprint_sources():
            files.update(_module_source_files(module))
    return sorted(files)


def _accesses(tree):
    """``(lineno, "read" | "write")`` for every raw-buffer access."""
    written = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                written.add(id(target.value))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in _READ_HELPERS:
            yield node.lineno, "read"
        elif node.attr in _BUFFER and isinstance(node.ctx, ast.Load):
            # ``x.data[i] = v`` / ``x.data[i] ^= m`` write; any other use
            # (a subscript load, an alias, a slice) can read.
            yield node.lineno, "write" if id(node) in written else "read"


def test_emulated_buffer_is_read_only_through_the_memory_map():
    files = _scanned_files()
    relative = {path.relative_to(_PACKAGE).as_posix() for path in files}
    assert _MEMMAP in relative and _INJECTOR in relative
    offences = []
    for path in files:
        name = path.relative_to(_PACKAGE).as_posix()
        for lineno, kind in _accesses(ast.parse(path.read_text(encoding="utf-8"))):
            allowed = READERS if kind == "read" else WRITERS
            if name not in allowed:
                offences.append(f"{name}:{lineno}: direct {kind} of the emulated buffer")
    assert offences == []


def test_scan_flags_direct_reads_and_writes():
    source = (
        "a = mem.data[3]\n"
        "mem.data[4] = 1\n"
        "mem.data[5] ^= 2\n"
        "alias = var._data\n"
        "b = mem.read_u16(6)\n"
    )
    assert sorted(_accesses(ast.parse(source))) == [
        (1, "read"), (2, "write"), (3, "write"), (4, "read"), (5, "read"),
    ]
