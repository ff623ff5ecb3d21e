"""Which failure sites of the engine no test drives to `fail`.

For each `rep.fail(` call in `src/rclkit/*.py` (`fixture_gen.py` excepted),
this script copies the checkout to a temporary directory, silences that one
call there (the call becomes a no-op; its arguments are still evaluated),
and runs `python -m pytest -x -q tests perfbench` on the copy.  A site where
every test still passes is a survivor: no test notices when that check can
no longer fail.  It prints each survivor and the count.  Stdlib only; the
checkout itself is never modified.  One pytest run per site, run one after
another.

    python3 tools/audit_fail_sites.py [CHECKOUT]

CHECKOUT defaults to the checkout that holds this script.  Exit status 0.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile

CALL = re.compile(r"\brep\.fail\(")
SILENCED = "(lambda *a, **k: None)("
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


def sites(root: str):
    """(relative path, line number, column) of every `rep.fail(` call."""
    pkg = os.path.join(root, "src", "rclkit")
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "fixture_gen.py":
            continue
        path = os.path.join("src", "rclkit", name)
        with open(os.path.join(root, path)) as fh:
            for lineno, line in enumerate(fh, 1):
                for match in CALL.finditer(line):
                    yield path, lineno, match.start()


def copy_checkout(root: str, dest: str):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in COPIED:
        src = os.path.join(root, part)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, part), ignore=ignore)
        else:
            shutil.copy2(src, os.path.join(dest, part))


def tests_pass(copy: str) -> bool:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "tests", "perfbench"],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def audit(root: str) -> list:
    """The survivors, as (path, line number, source line)."""
    survivors = []
    found = list(sites(root))
    with tempfile.TemporaryDirectory(prefix="audit-fail-sites-") as tmp:
        copy = os.path.join(tmp, "checkout")
        copy_checkout(root, copy)
        for i, (path, lineno, col) in enumerate(found, 1):
            target = os.path.join(copy, path)
            with open(target) as fh:
                original = fh.read()
            lines = original.splitlines(keepends=True)
            line = lines[lineno - 1]
            lines[lineno - 1] = line[:col] + SILENCED + line[col + len("rep.fail("):]
            with open(target, "w") as fh:
                fh.write("".join(lines))
            try:
                survived = tests_pass(copy)
            finally:
                with open(target, "w") as fh:
                    fh.write(original)
            print("[%d/%d] %s:%d %s" % (i, len(found), path, lineno,
                                        "SURVIVED" if survived else "caught"),
                  file=sys.stderr, flush=True)
            if survived:
                survivors.append((path, lineno, line.strip()))
    print("%d of %d fail sites survived" % (len(survivors), len(found)))
    for path, lineno, text in survivors:
        print("%s:%d: %s" % (path, lineno, text))
    return survivors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    audit(os.path.abspath(root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
