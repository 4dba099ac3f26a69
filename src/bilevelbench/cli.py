"""Command-line interface.

Subcommands: ``run`` (execute a config), ``sweep`` (closed-form schedule
sweep over target accuracies), ``verify`` (the named suites of
:mod:`bilevelbench.harness`) and ``plot`` (trace metrics to SVG).  Exit
codes: 0 success, 1 usage, config or file error (a
:class:`~bilevelbench.problem.ConfigurationError`, any unknown config key
included, or an ``OSError`` such as an output path that cannot be
written; the seeds written before it keep their files and metadata), 2
run failure (a seed ended ``FAILED`` on a non-finite iterate or an oracle
overflow, ``TIMEOUT``, or ``ERROR`` on any other exception once its run
had started; the other seeds still run, and every seed's partial trace is
written), 3 verification failure.  ``run`` prints each seed's status, and
after a status other than ``OK`` the seed's reason.  Seeds run in order;
``[run] workers`` is accepted and has no effect.
"""

from __future__ import annotations

import argparse
import sys

from .harness import SUITES, parse_config, run_experiment, run_suite, sweep_eps
from .plotting import PlotError, plot
from .problem import ConfigurationError
from .trace import write_atomic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_FAILURE = 2
EXIT_VERIFY_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bilevelbench",
                     description="bilevel optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None,
                       help="output path prefix (overrides [run] out)")

    p_sweep = sub.add_parser("sweep", help="schedule sweep over eps values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--eps", required=True,
                         help="comma-separated eps values")
    p_sweep.add_argument("--out", default=None, help="summary CSV path")
    p_sweep.add_argument("--execute", action="store_true",
                         help="actually run each admissible eps")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True,
                          help="|".join([*SUITES, "all"]))

    p_plot = sub.add_parser("plot", help="plot a trace metric to SVG")
    p_plot.add_argument("traces", nargs="+")
    p_plot.add_argument("--metric", required=True)
    p_plot.add_argument("-o", "--out", required=True)
    p_plot.add_argument("--logy", action="store_true")
    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    prefix = args.out or cfg.out
    if prefix is None:
        print("error: no output prefix (use --out or [run] out)", file=sys.stderr)
        return EXIT_USAGE
    result = run_experiment(cfg, prefix)
    for info in result.metadata["seeds"]:
        reason = f": {info['reason']}" if "reason" in info else ""
        print(f"seed {info['seed']}: {info['status']}{reason} "
              f"({info['wall_seconds']:.2f}s)")
    print(f"wrote {len(result.trace_paths)} trace file(s) and "
          f"{result.metadata_path}")
    return EXIT_RUN_FAILURE if result.failed else EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    try:
        eps_list = [float(v) for v in args.eps.split(",") if v]
    except ValueError:
        print(f"error: bad eps list {args.eps!r}", file=sys.stderr)
        return EXIT_USAGE
    summary = sweep_eps(cfg, eps_list, execute=args.execute)
    text = summary.to_csv()
    if args.out:
        write_atomic(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results, ok = run_suite(args.suite)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    print(f"{'PASS' if ok else 'FAIL'} suite={args.suite} "
          f"({sum(r.passed for r in results)}/{len(results)} checks)")
    return EXIT_OK if ok else EXIT_VERIFY_FAILURE


def _cmd_plot(args) -> int:
    plot(args.traces, args.metric, args.out, logy=args.logy)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "verify": _cmd_verify, "plot": _cmd_plot}
    try:
        return handlers[args.command](args)
    except (ConfigurationError, PlotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
