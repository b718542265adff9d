"""List the functions of ``src/repro`` that no traced process called.

    python tools/calltrace/report.py DUMP_DIR [--list]

Reads every ``calls-*.json`` that ``sitecustomize.py`` (same directory)
wrote into DUMP_DIR, enumerates each ``def`` of the ``PACKAGES`` of
``src/repro`` (a package is a subdirectory or a top-level module such as
``serve.py``), and prints per package how many functions exist and how
many no process entered. ``--list`` adds each never-called function as
``path:line qualname``.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
from typing import Iterator, List, Set, Tuple

ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "repro")
PACKAGES = ("core", "sql", "storage", "tcr", "ml", "datasets", "apps",
            "baselines", "bench", "serve.py", "errors.py")


def functions(path: str) -> List[Tuple[int, str]]:
    """``(first line, qualname)`` of every def in one file. The first line
    is the first decorator's, as a code object's ``co_firstlineno`` is."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    found: List[Tuple[int, str]] = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append((first, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def package_files(package: str) -> Iterator[str]:
    """Paths relative to ``src/repro`` of one package's modules."""
    path = os.path.join(ROOT, package)
    if os.path.isfile(path):
        yield package
        return
    for full in sorted(glob.glob(os.path.join(path, "**", "*.py"),
                                 recursive=True)):
        yield os.path.relpath(full, ROOT)


def called(dump_dir: str) -> Set[Tuple[str, int]]:
    entered: Set[Tuple[str, int]] = set()
    dumps = glob.glob(os.path.join(dump_dir, "calls-*.json"))
    if not dumps:
        raise SystemExit(f"no calls-*.json in {dump_dir}")
    for dump in dumps:
        with open(dump) as handle:
            entered.update((path, line) for path, line, _name in json.load(handle))
    return entered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dump_dir")
    parser.add_argument("--list", action="store_true",
                        help="print every never-called function")
    args = parser.parse_args(argv)
    entered = called(args.dump_dir)
    total = never = 0
    missing: List[str] = []
    print(f"{'package':12s} {'functions':>9s} {'called':>7s} {'never':>6s}")
    for package in PACKAGES:
        count = dead = 0
        for path in package_files(package):
            for line, name in functions(os.path.join(ROOT, path)):
                count += 1
                if (path, line) not in entered:
                    dead += 1
                    missing.append(f"{path}:{line} {name}")
        print(f"{package:12s} {count:9d} {count - dead:7d} {dead:6d}")
        total += count
        never += dead
    print(f"{'total':12s} {total:9d} {total - never:7d} {never:6d}")
    if args.list:
        print()
        print("\n".join(missing))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
