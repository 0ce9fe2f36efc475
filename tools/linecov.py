"""Statement coverage of ``src/hgf`` under the test suite, in one process.

    python tools/linecov.py [--lines] [PYTEST_ARGS ...]

Runs pytest in this process (default arguments: ``tests -q``) under a
``sys.settrace`` line tracer, then prints, per module of ``src/hgf``, the
number of statements and how many of them never ran.  ``--lines`` also
lists the missed line numbers.  No coverage package is needed.

A statement is an ``ast`` statement that compiles to at least one
instruction: its header lines (for a compound statement, the lines before
its body; for a decorated definition, the decorators too) must hold a line
of the module's bytecode.  So a function docstring, ``try:`` or
``global`` counts as nothing.  A statement ran if the tracer saw a line
event on one of those lines.

Python processes that the tests start with ``subprocess`` (``python -m
hgf.cli ...``, ``python -c ...``) are traced too: while pytest runs,
every ``subprocess.Popen`` puts a temporary directory holding a tracing
``sitecustomize.py`` first on the child's ``PYTHONPATH`` and names a hits
file in ``HGF_LINECOV_HITS``.  The child tracer prints nothing and imports
only ``atexit``, ``os`` and ``sys``; at exit it appends the lines it saw to
the hits file, and they are merged into the report.  A child started with
``-E`` or ``-I`` ignores ``PYTHONPATH`` and is not followed.  The tracer
slows the suite down about threefold.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "hgf"
HITS_ENV = "HGF_LINECOV_HITS"

# the sitecustomize of a traced child; {pkg} is the package directory
_CHILD_TRACER = """\
import atexit
import os
import sys

_HITS = os.environ.get({env!r})
_files = {{}}  # file name: lines run, or None outside the package


def _on_call(frame, event, arg):
    name = frame.f_code.co_filename
    try:
        seen = _files[name]
    except KeyError:
        inside = os.path.dirname(os.path.realpath(name)) == {pkg!r}
        seen = _files[name] = set() if inside else None
    if seen is None:
        return None
    add = seen.add

    def on_line(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return on_line

    return on_line


def _write():
    sys.settrace(None)
    out = "".join(f"{{os.path.realpath(name)}}\\t"
                  f"{{' '.join(map(str, sorted(seen)))}}\\n"
                  for name, seen in _files.items() if seen)
    if out:
        with open(_HITS, "a") as f:
            f.write(out)


if _HITS:
    atexit.register(_write)
    sys.settrace(_on_call)
"""


def _code_lines(code) -> set[int]:
    """Lines of `code` and of every code object nested in it."""
    lines = {ln for _, _, ln in code.co_lines() if ln}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _header(node: ast.stmt) -> range:
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if body else node.end_lineno
    return range(first, max(first, last) + 1)


def statements(path: Path) -> dict[int, range]:
    """{first line: header lines} of each statement of the module."""
    source = path.read_text()
    code_lines = _code_lines(compile(source, str(path), "exec"))
    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            lines = _header(node)
            if code_lines.intersection(lines):
                out[lines.start] = lines
    return out


@contextmanager
def follow_subprocesses():
    """Trace the Python processes started inside the block; yields the
    hits file they append {file}\\t{lines} rows to."""
    real_init = subprocess.Popen.__init__
    with tempfile.TemporaryDirectory(prefix="linecov-") as site:
        Path(site, "sitecustomize.py").write_text(
            _CHILD_TRACER.format(env=HITS_ENV, pkg=str(PKG)))
        hits_file = Path(site, "hits.txt")
        hits_file.touch()

        def init(self, args, *rest, env=None, **kw):
            env = dict(os.environ if env is None else env)
            path = env.get("PYTHONPATH")
            env["PYTHONPATH"] = site + (os.pathsep + path if path else "")
            env[HITS_ENV] = str(hits_file)
            real_init(self, args, *rest, env=env, **kw)

        subprocess.Popen.__init__ = init
        try:
            yield hits_file
        finally:
            subprocess.Popen.__init__ = real_init


def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set]]:
    """Run pytest under the tracer, following its Python subprocesses:
    (exit code, {file: lines run})."""
    hits = {str(p): set() for p in sorted(PKG.glob("*.py"))}

    def on_call(frame, event, arg):
        seen = hits.get(frame.f_code.co_filename)
        if seen is None:
            return None
        add = seen.add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(PKG.parent))
    import pytest

    with follow_subprocesses() as child_hits:
        threading.settrace(on_call)
        sys.settrace(on_call)
        try:
            code = pytest.main(pytest_args)
        finally:
            sys.settrace(None)
            threading.settrace(None)
        for row in child_hits.read_text().splitlines():
            name, _, lines = row.partition("\t")
            if name in hits:
                hits[name].update(map(int, lines.split()))
    return int(code), hits


def main(argv: list[str]) -> int:
    show_lines = "--lines" in argv
    args = [a for a in argv if a != "--lines"] or ["tests", "-q"]
    code, hits = trace_suite(args)
    total = missed_total = 0
    print(f"\n{'module':<14}{'statements':>11}{'missed':>8}")
    for name, seen in hits.items():
        stmts = statements(Path(name))
        missed = sorted(first for first, lines in stmts.items()
                        if not seen.intersection(lines))
        total += len(stmts)
        missed_total += len(missed)
        print(f"{Path(name).stem:<14}{len(stmts):>11}{len(missed):>8}"
              + (f"  {missed}" if show_lines and missed else ""))
    print(f"{'total':<14}{total:>11}{missed_total:>8}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
