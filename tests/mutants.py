"""A standing mutation sweep over the packed hot paths.

Run from the root of a checkout::

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each entry of ``MUTANTS`` names one small change to the program: the
file, the text it replaces (found exactly once), the new text, and why
a test should notice.  For each, the script copies the checkout to a
temporary directory, applies the change there, and runs the tier-1
suite with ``-x``, the module's own test file first.  It prints
``killed`` with the first failing test, or ``survived``.  An entry with
an ``equivalent`` reason changes nothing a test can see; it is still
run, and reported as ``equivalent`` if it survives.  The exit status is
1 when any other mutant survives.

Pytest does not collect this file (its name does not match
``test_*.py``), and it needs only the standard library.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 180

GROBNER = "src/multirees/grobner.py"

# (name, file, old text, new text, reason, equivalent reason or None)
MUTANTS = [
    (
        "equal-lead-tie-break",
        GROBNER,
        "key=lambda k: (entries[k][1], k))",
        "key=lambda k: (entries[k][1], -k))",
        "of equal leads the basis must keep the lowest index",
        None,
    ),
    (
        "product-criterion-T-parts-only",
        GROBNER,
        "if s[0] != s[1] and not support[a] & support[b]:",
        "if s[0] != s[1] and not (support[a] & support[b]) >> ring.tshift:",
        "the product criterion needs coprime s-parts as well as coprime T-parts",
        None,
    ),
    (
        "initial-field-width",
        GROBNER,
        "width = (2 * max((m.degree() for b in binomials for m in b), default=0) + 1).bit_length() + 1",
        "width = (2 * max((m.degree() for b in binomials for m in b), default=0) + 1).bit_length() + 2",
        "the first width holds twice the largest degree and no more",
        None,
    ),
    (
        "lead-group-moves-one-term",
        GROBNER,
        "                b += tail - lead\n",
        "",
        "a step on a lead group moves both terms",
        None,
    ),
    (
        "lead-group-divides-one-term",
        GROBNER,
        "low = self.gcd(a, b) if ka == kb else a",
        "low = a",
        "a lead group's coefficient is divided whole: the reducer's lead divides both terms",
        None,
    ),
    (
        "swap-keeps-sign",
        GROBNER,
        "a, b, sign = b, a, -sign",
        "a, b, sign = b, a, sign",
        "when the tail comes to lead, the work changes sign",
        None,
    ),
    (
        "step-record-sign",
        GROBNER,
        "            c = sign * unit\n",
        "            c = unit\n",
        "a quotient term carries the sign of the work as well as the reducer's unit",
        None,
    ),
    (
        "step-guard-boundary",
        GROBNER,
        "if steps > DEFAULT_MAX_STEPS:",
        "if steps >= DEFAULT_MAX_STEPS:",
        "a reduction of exactly DEFAULT_MAX_STEPS steps runs",
        None,
    ),
]


def _copy(dest):
    """The checkout without its caches and version control."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work")
    shutil.copytree(ROOT, dest, ignore=ignore)


def _first_failure(output):
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return "(no test named; see the pytest output)"


def run(entry):
    """(outcome, detail) of one mutant."""
    _, path, old, new, _, equivalent = entry
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        _copy(copy)
        target = os.path.join(copy, path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(old) != 1:
            return "stale", "the old text occurs %d times in %s" % (text.count(old), path)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        own = "test_%s" % os.path.basename(path)
        files = sorted(f for f in os.listdir(os.path.join(copy, "tests")) if f.startswith("test_") and f.endswith(".py"))
        files.sort(key=lambda f: f != own)
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        argv += [os.path.join("tests", f) for f in files]
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", "timeout after %d s" % TIMEOUT_S
    if proc.returncode == 0:
        return ("equivalent", equivalent) if equivalent else ("survived", "")
    return "killed", _first_failure(proc.stdout)


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)))
        return 2
    bad = 0
    for entry in chosen:
        t0 = time.time()
        outcome, detail = run(entry)
        bad += outcome in ("survived", "stale")
        print("%-10s %-32s %5.0fs  %s" % (outcome, entry[0], time.time() - t0, detail), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
