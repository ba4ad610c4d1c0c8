"""One-operator mutation sweep of a module, run on a throwaway copy.

    python3 tools/mutate.py src/multiseg/signs.py tests/test_signs.py
    python3 tools/mutate.py src/multiseg/params.py tests/test_params.py \
        --only _bases,is_discrete_diagonal,dominate

Each mutant changes one node of the module's syntax tree:
- a comparison flipped to its negation (< and >=, > and <=, == and !=,
  `is` and `is not`, `in` and `not in`);
- + swapped with -;
- an int constant raised by one.

The committed tree of HEAD is unpacked with `git archive` into a temporary
directory, and only that copy is ever rewritten.  Each mutant runs
`pytest -x` over the golden tests and the given test files with `src` on
the path; a nonzero exit or running past TIMEOUT seconds kills it.  The
printed survivors are the lines to read: each one needs a test that fails
on it, or a reason why it cannot change any result.

`--only` limits the sweep to the named top-level functions.  Stdlib only;
a full module takes minutes, so this stays out of CI.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import resource
import subprocess
import sys
import tarfile
import tempfile
import time

FLIP = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add}
MEMORY_LIMIT = 2 << 30  # bytes of address space per test run
TIMEOUT = 300  # seconds per test run before the mutant counts as killed


def _sites(tree: ast.Module, only: set[str] | None):
    """(node, field, index, replacement, text) for every one-operator
    mutant, in source order."""
    roots = [n for n in tree.body
             if only is None or getattr(n, "name", None) in only]
    nodes = sorted((node for root in roots for node in ast.walk(root)
                    if hasattr(node, "lineno")),
                   key=lambda node: (node.lineno, node.col_offset))
    for node in nodes:
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                new = FLIP[type(op)]
                yield (node, "ops", k, new(),
                       f"{type(op).__name__} -> {new.__name__}")
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAP:
            new = SWAP[type(node.op)]
            yield (node, "op", None, new(),
                   f"{type(node.op).__name__} -> {new.__name__}")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield (node, "value", None, node.value + 1,
                   f"{node.value} -> {node.value + 1}")


def _mutant_source(source: str, only, n: int) -> tuple[str, str]:
    """The module with its n-th mutation applied, and the mutation's label."""
    tree = ast.parse(source)
    node, field, k, new, text = list(_sites(tree, only))[n]
    if k is None:
        setattr(node, field, new)
    else:
        getattr(node, field)[k] = new
    return ast.unparse(tree), f"line {node.lineno}: {text}"


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run_tests(root: str, tests: list[str]) -> bool:
    """True when the tests pass (the mutant survives)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "tests/test_golden.py", *tests]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              timeout=TIMEOUT, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="module path relative to the repo root")
    ap.add_argument("tests", nargs="*", help="the module's own test files")
    ap.add_argument("--only", help="comma-separated top-level function names")
    args = ap.parse_args(argv)
    only = set(args.only.split(",")) if args.only else None

    archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="mutate-") as root:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(root)  # the repository's own archive
        path = os.path.join(root, args.module)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        total = len(list(_sites(ast.parse(source), only)))

        def install(text):
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)

        # the unparsed, unmutated module must pass, or no result means anything
        install(ast.unparse(ast.parse(source)))
        if not _run_tests(root, args.tests):
            print("the unmutated module fails its tests; nothing swept")
            return 2
        survivors = 0
        t0 = time.perf_counter()
        for n in range(total):
            text, label = _mutant_source(source, only, n)
            install(text)
            if _run_tests(root, args.tests):
                survivors += 1
                print(f"SURVIVED {args.module} {label}", flush=True)
        print(f"{total} mutants, {total - survivors} killed, {survivors} survived"
              f" ({time.perf_counter() - t0:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
