"""Account for every line of the library that the Tier-1 suite does not run.

Run from the repository root with Python 3.11, whose line tables the list
is written for:

    PYTHONPATH=src python .github/line_reach.py

The script runs the Tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, recording the lines that run in frames of
``src/eulergenus``.  The executable lines are those of the compiled code
objects' ``co_lines()``.  Every executable line that does not run must be
listed in ``.github/unrun_lines.json`` with a kind and a one-line reason:

* ``repr``: the body of a ``__repr__``, which only a person reads;
* ``guard``: a check against a library bug, which no valid run reaches;
* ``witness-wanted``: a real case that no test reaches yet.

An entry names the module, the enclosing function (the innermost code
object that holds the line), the stripped line text and, when that text
repeats among the function's executable lines, its 1-based occurrence.
Entries carry no line numbers, so edits elsewhere do not churn the list.

The script fails on an unrun line that is not listed, on a listed line that
now runs or no longer exists, and on a failing test.  On any Python but 3.11
it exits 2 at once, before running the suite.  It prints the entries
that are missing in the list's own format.
"""

import json
import os
import sys
import threading
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "eulergenus")
LISTED = os.path.join(ROOT, ".github", "unrun_lines.json")
KINDS = ("repr", "guard", "witness-wanted")
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "--hypothesis-seed=0",
               "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]


def run_suite():
    """Run Tier-1 under the tracer; the pytest exit code and the set of
    (file, line) pairs run in the package."""
    prefix = PACKAGE + os.sep
    ran = set()
    add = ran.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        add((filename, frame.f_lineno))
        return local

    import pytest

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    package = sys.modules.get("eulergenus")
    if package is None or not package.__file__.startswith(prefix):
        where = package.__file__ if package else "nowhere"
        sys.exit(f"the suite imported eulergenus from {where}, not {PACKAGE}")
    return status, ran


def executable_lines(path):
    """Map each executable line of one module to its innermost code object's
    qualified name, and return it with the module's source lines."""
    with open(path) as fh:
        source = fh.read()
    owner = {}
    stack = [(compile(source, path, "exec"), 0)]
    while stack:
        code, depth = stack.pop()
        for _, _, line in code.co_lines():
            # a module's first instruction sits on line 0, which no source holds
            if line and owner.get(line, (-1,))[0] < depth:
                owner[line] = (depth, code.co_qualname)
        stack.extend((const, depth + 1) for const in reversed(code.co_consts)
                     if hasattr(const, "co_lines"))
    return {line: name for line, (_, name) in owner.items()}, source.splitlines()


def keyed_lines(path):
    """Key every executable line of one module as (module, function, text,
    occurrence); the occurrence is 1 unless the text repeats in the function."""
    owner, text = executable_lines(path)
    module = os.path.basename(path)
    seen = Counter()
    keys = {}
    for line in sorted(owner):
        item = (owner[line], text[line - 1].strip())
        seen[item] += 1
        keys[line] = (module, *item, seen[item])
    return keys


def entry_key(entry):
    return (entry["module"], entry["function"], entry["line"], entry.get("occurrence", 1))


def as_entry(key, repeats):
    module, function, line, occurrence = key
    entry = {"module": module, "function": function, "line": line}
    if repeats:
        entry["occurrence"] = occurrence
    entry.update(kind="?", reason="?")
    return entry


def main():
    if sys.version_info[:2] != (3, 11):
        version = ".".join(map(str, sys.version_info[:3]))
        print(f"the list is written for Python 3.11's line tables; this is {version}",
              file=sys.stderr)
        return 2
    with open(LISTED) as fh:
        listed = json.load(fh)
    problems = []
    for entry in listed:
        if entry.get("kind") not in KINDS or not entry.get("reason"):
            problems.append(f"entry needs a kind in {KINDS} and a reason: {entry}")
    listed_keys = Counter(entry_key(entry) for entry in listed)
    problems += [f"listed twice: {key}" for key, count in listed_keys.items() if count > 1]

    status, ran = run_suite()
    if status != 0:
        problems.append(f"the Tier-1 suite failed (pytest exit code {int(status)})")

    every = set()
    unrun = []
    repeated = set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        keys = keyed_lines(path)
        every.update(keys.values())
        repeated.update(key[:3] for key in keys.values() if key[3] > 1)
        unrun += [keys[line] for line in sorted(keys) if (path, line) not in ran]

    unrun_keys = set(unrun)
    for key in listed_keys:
        if key not in every:
            problems.append(f"listed line no longer exists: {key}")
        elif key not in unrun_keys:
            problems.append(f"listed line now runs: {key}")
    missing = [key for key in unrun if key not in listed_keys]
    for key in missing:
        problems.append(f"unrun line is not listed: {key}")

    kinds = Counter(entry.get("kind") for entry in listed)
    by_module = Counter(key[0] for key in unrun)
    print(f"{len(unrun)} executable lines of {PACKAGE} did not run: "
          + ", ".join(f"{module} {count}" for module, count in sorted(by_module.items())))
    print("listed by kind: " + ", ".join(f"{kind} {kinds[kind]}" for kind in KINDS))
    if missing:
        print("entries for the lines that are not listed:")
        print(json.dumps([as_entry(key, key[:3] in repeated) for key in missing], indent=2))
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
