"""Golden outputs: every `docs/programs/` file under fixed CLI settings.

Each case runs the command line in process and compares its standard
output, standard error and exit code with the file of the same name in
`tests/golden/`.  A change that alters any of them, on purpose, shows it
by regenerating the files and committing the difference:

    PYTHONPATH=src python tests/test_golden.py

The cases are:

* every `.ozk` program under `run` (FIFO, and `--sched-policy random
  --sched-seed 5`), under `run --trace sched` (FIFO), which pins every
  scheduler event (spawns, slices, suspends, wakes, sleeps and exits, the
  prelude's included), and under `dist-run` with its top-level threads on
  nodes 0 and 1 (`a=0,b=1`, cut to the threads it has), with FIFO
  delivery and with `--net-seed 7`;
* every `.pl` program under `run`, with no query and with each query its
  header comment names (`ozk run x.pl --query '...'`), FIFO and random,
  and under `translate`.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from ozk.builtins import make_builtins
from ozk.cli import main
from ozk.dist import split_program
from ozk.prelude import PRELUDE_NAMES

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "docs" / "programs"
GOLDEN = Path(__file__).resolve().parent / "golden"

_RANDOM = ("--sched-policy", "random", "--sched-seed", "5")
_QUERY = re.compile(r"^%\s+ozk run \S+\.pl --query '([^']*)'", re.M)


def _placement(program: Path) -> str:
    _, native = make_builtins()
    _, _, threads = split_program(program.read_text(),
                                  tuple(native) + PRELUDE_NAMES)
    return ",".join(["a=0", "b=1"][:len(threads)])


def cases() -> list:
    """``(golden file name, argv)`` pairs; argv names the program by its
    file name, which is resolved in `docs/programs/`."""
    out = []
    for program in sorted(PROGRAMS.glob("*")):
        name = program.name
        if program.suffix == ".ozk":
            out.append((f"{name}.run", ["run", name]))
            out.append((f"{name}.run-random", ["run", name, *_RANDOM]))
            out.append((f"{name}.run-sched",
                        ["run", name, "--trace", "sched"]))
            where = ["--placement", _placement(program)]
            out.append((f"{name}.dist", ["dist-run", name, *where]))
            out.append((f"{name}.dist-net7",
                        ["dist-run", name, *where, "--net-seed", "7"]))
        elif program.suffix == ".pl":
            queries = [None] + _QUERY.findall(program.read_text())
            for i, query in enumerate(queries):
                argv = ["run", name] + (["--query", query] if query else [])
                tag = f"{name}.run" + (f"-q{i}" if i else "")
                out.append((tag, argv))
                out.append((f"{tag}-random", argv + list(_RANDOM)))
            out.append((f"{name}.translate", ["translate", name]))
    return out


def render_case(argv: list) -> str:
    """Run one command line in process; its outcome as golden text."""
    resolved = [str(PROGRAMS / a) if i == 1 else a for i, a in enumerate(argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    shown = " ".join(repr(a) if " " in a else a for a in argv)
    return (f"$ ozk {shown}\nexit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


CASES = cases()


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(name, argv):
    expected = (GOLDEN / name).read_text()
    assert render_case(argv) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == \
        sorted(name for name, _ in CASES)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    for name, argv in CASES:
        (GOLDEN / name).write_text(render_case(argv))


if __name__ == "__main__":
    regenerate()
