"""Command-line interface: run, repl, translate, dist-run.

Exit codes (the table ``ozk --help`` ends with, ``EXIT_CODES``): 0 the
program ran to completion, 1 it failed, hit an error or ran out of its
step budget, 2 it deadlocked, 3 usage or parse problems.  Standard
output carries only the
program's own output (Browse lines, translated source, or the
simulation report); diagnostics go to standard error.  With fixed seeds
the standard output of a run is byte-identical across invocations.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .dist import MAX_NODE_ID, parse_placement, run_simulation
from .errors import OzkError, ParseError, PlacementError, UnsupportedConstruct
from .interp import AMBIENT_NAMES, Session
from .prolog import parse_prolog, translate_program, translate_query_source
from .runtime import SCHED_POLICIES, StepLimit
from .search import Engine
from .terms import render

DEFAULT_MAX_STEPS = 10 ** 8

EXIT_DONE = 0
EXIT_FAILED = 1
EXIT_DEADLOCK = 2
EXIT_USAGE = 3

_STATUS_EXIT = {
    "done": EXIT_DONE,
    "failed": EXIT_FAILED,
    "deadlock": EXIT_DEADLOCK,
    "limit": EXIT_FAILED,
}


EXIT_CODES = """\
exit codes:
  0  done      the program ran to completion
  1  failed    a thread failed, or an error stopped the run
  1  limit     the step budget (--max-steps) ran out
  2  deadlock  threads wait on values that nothing will bind
  3  usage     bad arguments, or a parse, translation or placement error
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ozk",
        description="A small concurrent kernel language with dataflow "
                    "variables, encapsulated search,\na Prolog translator "
                    "and a simulated distributed runtime.",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, net=False):
        p.add_argument("--sched-policy", choices=SCHED_POLICIES,
                       default="fifo", help="thread scheduling order "
                       "(default fifo)")
        p.add_argument("--sched-seed", type=int, default=None, metavar="N",
                       help="seed for the random scheduling policy")
        p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
                       metavar="N", help="reduction budget "
                       f"(default {DEFAULT_MAX_STEPS})")
        p.add_argument("--trace", choices=("sched", "net", "all"),
                       default=None, help="event tracing: scheduler events "
                       "go to stderr, delivered messages to stdout")
        if net:
            p.add_argument("--net-seed", type=int, default=None, metavar="N",
                           help="interleave deliveries and timeslices in "
                           "an order picked with this seed (default: FIFO "
                           "delivery, once every node is drained)")

    p_run = sub.add_parser("run", help="run a .ozk kernel program or a "
                           ".pl Prolog program (auto-translated)")
    p_run.add_argument("file")
    common(p_run)
    p_run.add_argument("--real-time", action="store_true",
                       help="let Delay take wall-clock time instead of "
                       "virtual time")
    p_run.add_argument("--no-prelude", action="store_true",
                       help="start without the library prelude")
    p_run.add_argument("--query", metavar="GOAL", default=None,
                       help="for .pl files: run this goal, printing the "
                       "first solution")

    p_repl = sub.add_parser("repl", help="interactive session")
    common(p_repl)
    p_repl.add_argument("--real-time", action="store_true",
                        help="let Delay take wall-clock time")
    p_repl.add_argument("--no-prelude", action="store_true",
                        help="start without the library prelude")

    p_tr = sub.add_parser("translate", help="translate a .pl Prolog "
                          "program to kernel source on stdout")
    p_tr.add_argument("file")
    p_tr.add_argument("--query", metavar="GOAL", default=None,
                      help="also emit a query block running this goal")
    p_tr.add_argument("--all", action="store_true",
                      help="with --query: collect all solutions, not the "
                      "first")

    p_dist = sub.add_parser("dist-run", help="run a kernel program's "
                            "top-level threads on simulated nodes")
    p_dist.add_argument("file")
    p_dist.add_argument("--placement", metavar="a=0,b=1", default="",
                        help="assign top-level threads (named a, b, ... in "
                        f"source order) to node ids 0 to {MAX_NODE_ID}; "
                        "unplaced threads run on node 0")
    common(p_dist, net=True)

    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot read {path}: {exc.strerror}"))
    except UnicodeDecodeError as exc:
        raise SystemExit(_usage_error(
            f"cannot read {path}: not UTF-8 (byte "
            f"0x{exc.object[exc.start]:02x} at offset {exc.start})"))


def _usage_error(message: str) -> int:
    sys.stderr.write(f"ozk: error: {message}\n")
    return EXIT_USAGE


def _sched_tracer(args):
    if args.trace in ("sched", "all"):
        def tracer(kind, payload):
            detail = " ".join(f"{k}={v}" for k, v in payload.items())
            sys.stderr.write(f"sched {kind} {detail}\n")
        return tracer
    return None


def _print_browse(text: str) -> None:
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def _translate(source: str, args, all_solutions: bool = False) -> str:
    clauses = parse_prolog(source)
    kernel = translate_program(clauses)
    if args.query:
        query = translate_query_source(args.query, clauses, all_solutions)
        kernel = kernel + ("\n" if kernel else "") + query
    return kernel


def _visible_var_names(session: Session, tid: int) -> dict:
    """Map unbound variables to names visible where the thread stopped.

    Reads the frame the thread stopped in, innermost scope first (so
    shadowing resolves the way the source reads), then the session
    globals.  Variables bound by a plain ``local`` have no global name,
    which is why the thread's own frame comes first.  The frame holds only
    the slots still to be read: a slot cleared after its last read drops
    out of the report, so of two names of one variable the one still in
    use is shown."""
    from .compiler import frame_names
    from .terms import Var
    names: dict = {}

    def note(name, term):
        t = session.store.deref(term)
        if isinstance(t, Var):
            names.setdefault(t.vid, name)

    thread = session.rt.threads.get(tid)
    if thread is not None and thread.stack:
        for name, term in frame_names(thread.stack[-1][1]):
            note(name, term)
    for name in session.names():
        note(name, session.lookup(name))
    return names


def _waiting_on(session: Session, tid: int, vids) -> str:
    names = _visible_var_names(session, tid)
    return " ".join(names.get(vid, f"v{vid[0]}.{vid[1]}") for vid in vids)


def _report_outcome(result, session: Session) -> int:
    for failure in result.failures:
        sys.stderr.write(f"failed: {failure}\n")
    if result.status == "deadlock":
        for tid, vids in result.suspended:
            sys.stderr.write(f"deadlock: thread {tid} waiting on "
                             f"{_waiting_on(session, tid, vids)}\n")
    if result.status == "limit":
        sys.stderr.write("stopped: step budget exhausted before the "
                         "program finished\n")
    return _STATUS_EXIT[result.status]


def cmd_run(args) -> int:
    source = _read(args.file)
    if args.file.endswith(".pl"):
        source = _translate(source, args)
    elif args.query:
        return _usage_error("--query only applies to .pl files")
    session = Session(policy=args.sched_policy, seed=args.sched_seed,
                      max_steps=args.max_steps, real_time=args.real_time,
                      on_browse=_print_browse, on_trace=_sched_tracer(args),
                      prelude=not args.no_prelude)
    result = session.feed(source)
    return _report_outcome(result, session)


def cmd_translate(args) -> int:
    kernel = _translate(_read(args.file), args, args.all)
    _check_roundtrip(kernel)
    sys.stdout.write(kernel)
    return EXIT_DONE


def _check_roundtrip(kernel: str) -> None:
    """The emitted text must parse back; anything else is a bug here."""
    if not kernel.strip():
        return
    from .parser import parse_program
    parse_program(kernel, AMBIENT_NAMES)


def cmd_dist_run(args) -> int:
    source = _read(args.file)
    if args.file.endswith(".pl"):
        return _usage_error("dist-run takes a kernel (.ozk) program")
    placement = parse_placement(args.placement)
    on_net = None
    if args.trace in ("net", "all"):
        def on_net(line):
            sys.stdout.write(line + "\n")
    on_sched = None
    if args.trace in ("sched", "all"):
        def on_sched(node, kind, payload):
            detail = " ".join(f"{k}={v}" for k, v in payload.items())
            sys.stderr.write(f"sched node={node} {kind} {detail}\n")
    report = run_simulation(source, placement,
                            net_seed=args.net_seed,
                            sched_policy=args.sched_policy,
                            sched_seed=args.sched_seed,
                            max_steps=args.max_steps,
                            on_net_trace=on_net, on_sched_trace=on_sched)
    sys.stdout.write(report.summary() + "\n")
    return _STATUS_EXIT[report.status]


# -- the interactive loop ----------------------------------------------------

_REPL_HELP = """\
Statements run in a fresh thread against the persistent session; finish
multi-line input by balancing every opener with its `end`.
  :solve {Proc Args}   enumerate solutions of a goal; the call gets an
                       extra result argument (or put $ where it belongs)
  :next                print the next solution of the current :solve
  :help                this text
  :quit                leave
"""


class Repl:
    def __init__(self, args):
        self.session = Session(policy=args.sched_policy,
                               seed=args.sched_seed,
                               max_steps=args.max_steps,
                               real_time=args.real_time,
                               on_browse=_print_browse,
                               on_trace=_sched_tracer(args),
                               prelude=not args.no_prelude)
        self.engine: Optional[Engine] = None
        self.interactive = sys.stdin.isatty()

    def loop(self) -> int:
        buffer = ""
        while True:
            try:
                line = input("ozk> " if not buffer else "...  "
                             ) if self.interactive else input()
            except EOFError:
                if buffer:
                    # what is left is reported, not dropped
                    self.feed(buffer, at_end=True)
                break
            except KeyboardInterrupt:
                print()
                buffer = ""
                continue
            if not buffer and line.strip().startswith(":"):
                if not self.meta(line.strip()):
                    break
                continue
            buffer = f"{buffer}\n{line}" if buffer else line
            if not buffer.strip():
                buffer = ""
                continue
            if self.feed(buffer):
                buffer = ""
        return EXIT_DONE

    def feed(self, text: str, at_end: bool = False) -> bool:
        """Run one chunk; False means 'incomplete, keep reading', which
        at the end of the input (`at_end`) is a parse error."""
        try:
            result = self.session.feed(text)
        except ParseError as exc:
            if getattr(exc, "incomplete", False) and not at_end:
                return False
            print(f"** parse error: {exc}")
            return True
        except OzkError as exc:
            print(f"** {exc}")
            return True
        if result.status == "failed":
            for failure in result.failures:
                print(f"** failed: {failure}")
        elif result.status == "deadlock":
            for tid, vids in result.suspended:
                print(f"** blocked: thread {tid} waiting on "
                      f"{_waiting_on(self.session, tid, vids)}")
        elif result.status == "limit":
            print("** stopped: step budget exhausted")
        return True

    def meta(self, line: str) -> bool:
        cmd, _, rest = line.partition(" ")
        if cmd in (":quit", ":q"):
            return False
        if cmd == ":help":
            print(_REPL_HELP, end="")
        elif cmd == ":solve":
            self.start_solve(rest.strip())
        elif cmd == ":next":
            if self.engine is None:
                print("no current :solve")
            else:
                self.advance()
        else:
            print(f"unknown command {cmd} (try :help)")
        return True

    def start_solve(self, call: str) -> None:
        if not (call.startswith("{") and call.endswith("}")):
            print("usage: :solve {Proc Args...}")
            return
        if "$" in call:
            head, _, tail = call.rpartition("$")
            call = f"{head}ReplAns{tail}"
        else:
            call = call[:-1].rstrip() + " ReplAns}"
        source = f"proc {{ReplGoal ReplAns}}\n   {call}\nend"
        try:
            result = self.session.feed(source)
        except OzkError as exc:
            print(f"** {exc}")
            return
        if result.status != "done":
            print(f"** could not set up the goal ({result.status})")
            return
        goal = self.session.store.deref(self.session.lookup("ReplGoal"))
        self.engine = Engine(self.session.rt, goal)
        self.advance()

    def advance(self) -> None:
        self.session.rt.renew_budget()
        try:
            term = self.engine.next_answer()
        except (OzkError, StepLimit) as exc:
            print("** stopped: step budget exhausted"
                  if isinstance(exc, StepLimit) else f"** {exc}")
            self.engine = None
            return
        if term is None:
            print("no more solutions")
        else:
            print(render(self.session.store, term))


def cmd_repl(args) -> int:
    return Repl(args).loop()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if getattr(args, "max_steps", 0) < 0:
        return _usage_error(f"--max-steps {args.max_steps} is below 0")
    handlers = {
        "run": cmd_run,
        "repl": cmd_repl,
        "translate": cmd_translate,
        "dist-run": cmd_dist_run,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ParseError, UnsupportedConstruct, PlacementError) as exc:
        sys.stderr.write(f"ozk: {exc}\n")
        return EXIT_USAGE
    except OzkError as exc:
        sys.stderr.write(f"ozk: {exc}\n")
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
