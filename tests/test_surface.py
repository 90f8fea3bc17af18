"""Guard against test-only surface in ``src/``.

Every ``def`` and ``class`` name in ``src/``, and every dataclass or
``NamedTuple`` field, must have a reader in the code that runs:
``src/``, ``benchmarks/``, ``perf/``, ``scripts/`` or ``examples/``.
Each file is tokenized once and only code counts:

* a name is read by a ``NAME`` token outside its own definitions,
  outside ``import`` statements and the ``__all__`` assignment, and
  outside the bodies of names already found unread.  The scan repeats
  until no more names become unread, so a helper that only an unread
  function calls is unread too.  Comments, docstrings and strings are
  not tokens of this kind and never count;
* a field is read by a ``.field`` attribute load outside its class's
  own ``__post_init__`` (and outside unread bodies).  Keyword
  arguments, the declaration and validation do not count.

A name only tests read is either given a production reader or deleted,
with its checks moved to code that remains; the exceptions are listed
in :data:`ALLOWED` with their reasons and the open ROADMAP item that
will give them a reader.  Dunder names are called implicitly and are
not checked.
"""

import io
import keyword
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
READER_DIRS = ("src", "benchmarks", "perf", "scripts", "examples")

#: Names kept without a production reader: name -> (reason, open
#: ROADMAP item number).  An entry stops being accepted once the name
#: has a reader of its own.
ALLOWED = {
    "capacity_gbs": (
        "contention result field; its tests check that achieved "
        "bandwidth never exceeds the derated capacity", 5),
    "mem_stall_multiplier": (
        "contention result field; its tests check that one core runs "
        "unthrottled and a saturated node stalls", 5),
    "n_busy_cores": (
        "PhaseDetail's effective concurrency; its tests bound it by "
        "the node's cores and the phase's tasks", 5),
    "sustained_bandwidth_gbs": (
        "the channel envelope the LULESH roofline check derives its "
        "saturation core count from", 6),
    "saturated": (
        "ContentionResult's saturation flag, for the LULESH roofline "
        "check", 6),
    "task_index": (
        "TaskSpan's task; the pinned scheduler digests hash it, and the "
        "run trace file labels task spans with it", 8),
    "phase_id": (
        "ComputePhase's id; the burst-trace golden digests hash it, and "
        "the run trace file labels compute phases with it", 8),
    "help": (
        "the catalog entry's description, rendered on GET /metrics", 8),
}

_DUNDER = re.compile(r"__\w+__")
_FSTRING_FIELD = re.compile(r"\{([^{}]*(?:\{[^{}]*\}[^{}]*)*)\}")
_FSTRING_NAME = re.compile(r"(\.\s*)?\b([A-Za-z_]\w*)")


def _is_dunder(name):
    return _DUNDER.fullmatch(name) is not None


class Scan:
    """Definitions, fields and code references of a set of files."""

    def __init__(self):
        #: ``def``/``class`` name -> first ``path`` defining it.
        self.defs = {}
        #: (class, field) -> ``path`` of the class.
        self.fields = {}
        #: (name, enclosing def/class names) of each ``NAME`` token.
        self.refs = set()
        #: (attribute, enclosing names, class whose ``__post_init__``
        #: encloses it or ``None``) of each attribute load.
        self.loads = set()

    def add(self, path, text, checked):
        """Tokenize one file; ``checked`` files contribute definitions."""
        toks = [t for t in tokenize.generate_tokens(
                    io.StringIO(text).readline)
                if t.type not in (tokenize.COMMENT, tokenize.NL)]
        stack = []           # (name, indent, is_field_class)
        depth = 0
        at_start = True      # next token opens a logical line
        skip = False         # inside an import or ``__all__`` statement
        decorated = False    # a ``@dataclass`` decorator is pending
        i, n = 0, len(toks)
        enclosing = frozenset()
        while i < n:
            tok = toks[i]
            typ, s = tok.type, tok.string
            if typ == tokenize.INDENT:
                depth += 1
                i += 1
                continue
            if typ == tokenize.DEDENT:
                depth -= 1
                i += 1
                continue
            if typ == tokenize.NEWLINE:
                at_start, skip = True, False
                i += 1
                continue
            if at_start:
                at_start = False
                if stack and stack[-1][1] >= depth:
                    while stack and stack[-1][1] >= depth:
                        stack.pop()
                    enclosing = frozenset(f[0] for f in stack)
                if s in ("import", "from") or s == "__all__":
                    skip = True
                elif s == "@":
                    j = i
                    while toks[j].type != tokenize.NEWLINE:
                        decorated |= toks[j].string == "dataclass"
                        j += 1
                elif s in ("def", "class") or (
                        s == "async" and toks[i + 1].string == "def"):
                    if s == "async":
                        i += 1
                    name = toks[i + 1].string
                    fieldy = decorated
                    if s == "class":
                        j = i + 2
                        while toks[j].string != ":":
                            fieldy |= toks[j].string == "NamedTuple"
                            j += 1
                    if checked:
                        self.defs.setdefault(name, path)
                    stack.append((name, depth, s == "class" and fieldy))
                    enclosing = frozenset(f[0] for f in stack)
                    decorated = False
                    i += 2
                    continue
                elif (checked and typ == tokenize.NAME and stack
                      and stack[-1][2] and stack[-1][1] == depth - 1
                      and toks[i + 1].string == ":"):
                    # A field declaration: ``name: type [= default]``.
                    j = i + 2
                    classvar = False
                    while toks[j].type != tokenize.NEWLINE:
                        classvar |= toks[j].string == "ClassVar"
                        j += 1
                    if not classvar:
                        self.fields.setdefault((stack[-1][0], s), path)
                    i += 2
                    continue
            i += 1
            if skip:
                continue
            owner = (stack[-2][0] if len(stack) > 1
                     and stack[-1][0] == "__post_init__" else None)
            if typ == tokenize.STRING:
                # Before Python 3.12 an f-string is one STRING token.
                if "f" in s[:s.find(s[-1])].lower():
                    body = s.replace("{{", "").replace("}}", "")
                    for field in _FSTRING_FIELD.findall(body):
                        for dot, name in _FSTRING_NAME.findall(field):
                            self.refs.add((name, enclosing))
                            if dot:
                                self.loads.add((name, enclosing, owner))
                continue
            if typ != tokenize.NAME or keyword.iskeyword(s):
                continue
            self.refs.add((s, enclosing))
            if toks[i - 2].string == "." and toks[i].string != "=":
                self.loads.add((s, enclosing, owner))

    def unread(self, allowed=()):
        """Return (unread names, unread fields) at the fixed point."""
        candidates = {d for d in self.defs
                      if d not in allowed and not _is_dunder(d)}
        refs = {}
        for name, enclosing in self.refs:
            if name in candidates and name not in enclosing:
                refs.setdefault(name, []).append(enclosing)
        unread = set()
        changed = True
        while changed:
            changed = False
            for name in sorted(candidates - unread):
                if not any(unread.isdisjoint(e) for e in refs.get(name, ())):
                    unread.add(name)
                    changed = True
        loaded = {}
        for attr, enclosing, owner in self.loads:
            if unread.isdisjoint(enclosing):
                loaded.setdefault(attr, set()).add(owner)
        fields = {
            (cls, f) for cls, f in self.fields
            if f not in allowed and not _is_dunder(f) and cls not in unread
            and not loaded.get(f, set()) - {cls}}
        return unread, fields


def scan_sources(sources):
    """Scan ``(path, text, checked)`` triples."""
    scan = Scan()
    for path, text, checked in sources:
        scan.add(path, text, checked)
    return scan


def _repo_sources():
    for d in READER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield (str(path.relative_to(ROOT)),
                   path.read_text(encoding="utf-8"), d == "src")


@pytest.fixture(scope="module")
def scan():
    return scan_sources(_repo_sources())


def test_every_src_name_has_a_reader(scan):
    unread, _ = scan.unread(ALLOWED)
    found = sorted(f"{name} ({scan.defs[name]})" for name in unread)
    assert not found, (
        "names with no reader outside tests/ (give each a production "
        "reader or delete it): " + ", ".join(found))


def test_every_field_has_a_reader(scan):
    _, unread = scan.unread(ALLOWED)
    found = sorted(f"{cls}.{f} ({scan.fields[cls, f]})"
                   for cls, f in unread)
    assert not found, (
        "dataclass fields no code outside tests/ loads as an attribute "
        "(give each a reader or delete it): " + ", ".join(found))


def test_allowlist_is_current(scan):
    names, fields = scan.unread()
    unread = names | {f for _, f in fields}
    known = set(scan.defs) | {f for _, f in scan.fields}
    assert sorted(n for n in ALLOWED if n not in known) == []
    stale = sorted(n for n in ALLOWED if n not in unread)
    assert not stale, (
        "allowlisted names that now have a reader; drop them from "
        "ALLOWED: " + ", ".join(stale))


def test_allowlist_cites_open_roadmap_items():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    open_items = roadmap.split("## Open items", 1)[1]
    cited = {item for _, item in ALLOWED.values()}
    missing = sorted(item for item in cited
                     if not re.search(rf"^- \*\*{item}\. ", open_items, re.M))
    assert missing == []


def _check(*files):
    return scan_sources((f"m{k}.py", text, True)
                        for k, text in enumerate(files))


def test_guard_counts_code_only():
    names, _ = _check(
        '"""Mentions helper and dead in the docstring."""\n'
        "from pkg import helper, dead\n"
        "__all__ = ['helper', 'dead']\n"
        "def helper():\n"
        "    '''helper calls helper'''\n"
        "    return helper()  # helper\n"
        "def dead():\n"
        "    return inner()\n"
        "def inner():\n"
        "    return 1\n"
        "def used():\n"
        "    return 2\n",
        "x = used()\n").unread()
    assert names == {"helper", "dead", "inner"}


def test_guard_checks_fields():
    src = (
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    kept: int\n"
        "    checked: int = 0\n"
        "    passed: int = 1\n"
        "    def __post_init__(self):\n"
        "        if self.checked < 0 or self.kept < 0:\n"
        "            raise ValueError\n"
        "class Pair(NamedTuple):\n"
        "    left: int\n"
        "    right: int\n"
        "def use(p: Pair):\n"
        "    return Config(kept=1, passed=2).kept + p.left\n"
        "def dead(c):\n"
        "    return c.right\n")
    names, fields = _check(src, "use(None)\n").unread()
    assert names == {"dead"}
    assert fields == {("Config", "checked"), ("Config", "passed"),
                      ("Pair", "right")}
