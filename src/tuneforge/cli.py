"""Command-line front end: profile / screen / joint / compile / tune / export.

Each command is a thin wrapper over the campaign pipeline. Exit codes:
0 success, 1 usage error, 2 analysis error, 3 adapter failure.
"""

from __future__ import annotations

import argparse
import sys

from .campaign import Campaign, DOCUMENT_FILE
from .docgen import EXPORT_FORMAT, export_knowledge, render_text
from .errors import (AdapterError, AnalysisError, CompileError, DocumentError,
                     ParameterError, TuneforgeError)
from .executor import STATUS_CONVERGED
from .harness import ShellAdapter
from .sensitivity import DEFAULT_TAU_S
from .simulator import SimulatorAdapter, SimulatorModel
from .space import load_declarations

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANALYSIS = 2
EXIT_ADAPTER = 3


def make_adapter(spec: str, space):
    """Build an adapter from 'sim:<model-file>' or 'shell:<command template>'."""
    if spec.startswith("sim:"):
        return SimulatorAdapter(space, SimulatorModel.load(spec[len("sim:"):]))
    if spec.startswith("shell:"):
        return ShellAdapter(space, spec[len("shell:"):])
    raise ParameterError(f"adapter must be sim:<model-file> or shell:<command>, got {spec!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", required=True, help="parameter space declaration file")
    p.add_argument("--workloads", required=True, help="workload declaration file")
    p.add_argument("--campaign", required=True, help="campaign directory")
    p.add_argument("--seed", type=int, default=0)


def _add_adapter(p: argparse.ArgumentParser) -> None:
    p.add_argument("--adapter", required=True,
                   help="sim:<model-file> or shell:<command template>")
    p.add_argument("--parallelism", type=int, default=1,
                   help="benchmark runs in flight at once; the shell: adapter always "
                        "runs one at a time")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tuneforge",
        description="Profile configuration sensitivity and compile executable tuning documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="stage 1: single-parameter sensitivity sweep")
    _add_common(p)
    _add_adapter(p)
    p.add_argument("--levels", type=int, default=5, help="levels per parameter (3-9)")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--tau-s", type=float, default=DEFAULT_TAU_S, dest="tau_s")

    p = sub.add_parser("screen", help="stage 2: pairwise interaction screening")
    _add_common(p)
    _add_adapter(p)

    p = sub.add_parser("joint", help="stage 3: component-wise joint optimization")
    _add_common(p)
    _add_adapter(p)
    p.add_argument("--repetitions", type=int, default=3)

    p = sub.add_parser("compile", help="stage 4: compile the procedural document")
    _add_common(p)
    p.add_argument("--print", action="store_true", dest="do_print",
                   help="render the document as text to stdout")

    p = sub.add_parser("tune", help="mode 1: execute the document against a deployment")
    _add_common(p)
    _add_adapter(p)
    p.add_argument("--budget", type=int, default=120, help="benchmark-step budget")

    p = sub.add_parser("export", help="mode 2: emit the knowledge-injection file")
    _add_common(p)
    p.add_argument("--out", default=None, help="output path (default: campaign dir)")

    p = sub.add_parser("status", help="show campaign stage and budget accounting")
    _add_common(p)
    return parser


def _print_sensitivity_table(report) -> None:
    print(f"{'rank':>4}  {'parameter':<28} {'CV':>8}  {'shape':<14} selected")
    for prof in sorted(report.profiles, key=lambda p: p.rank):
        print(f"{prof.rank:>4}  {prof.parameter:<28} {prof.aggregate_cv:>8.4f}  "
              f"{prof.shape:<14} {'*' if prof.selected else ''}")


def run_command(args: argparse.Namespace) -> int:
    space, workloads = load_declarations(args.space, args.workloads)
    campaign = Campaign(args.campaign, space, workloads, args.seed)

    if args.command == "status":
        print(f"campaign {campaign.state.campaign_id}: stage {campaign.state.stage}")
        for line in campaign.budget_summary():
            print(line)
        return EXIT_OK

    if args.command == "profile":
        adapter = make_adapter(args.adapter, space)
        with campaign.lock():
            report = campaign.profile(adapter, levels_per_param=args.levels,
                                      repetitions=args.repetitions, tau_s=args.tau_s,
                                      parallelism=args.parallelism)
        _print_sensitivity_table(report)
        print(f"selected {len(report.top_k())} of {len(report.profiles)} parameters "
              f"(tau_s={args.tau_s})")
        return EXIT_OK

    if args.command == "screen":
        adapter = make_adapter(args.adapter, space)
        with campaign.lock():
            report = campaign.screen(adapter, parallelism=args.parallelism)
        confirmed = report.confirmed_pairs()
        print(f"screened {len({r.pair for r in report.records})} pairs; "
              f"{len(confirmed)} confirmed")
        for (a, b), eta2 in sorted(confirmed.items()):
            print(f"  {a} x {b}: eta^2 = {eta2:.3f}")
        return EXIT_OK

    if args.command == "joint":
        adapter = make_adapter(args.adapter, space)
        with campaign.lock():
            result = campaign.joint(adapter, repetitions=args.repetitions,
                                    parallelism=args.parallelism)
        for comp in result.graph.components:
            kind = "joint" if len(comp) > 1 else "independent"
            print(f"  component {{{', '.join(comp)}}}: {kind}")
        for opt in result.optima:
            print(f"  {opt.workload_id} {opt.component}: "
                  f"{opt.improvement_vs_default:+.1%} over default")
        for line in campaign.budget_summary():
            print(line)
        return EXIT_OK

    if args.command == "compile":
        with campaign.lock():
            doc = campaign.compile()
        print(f"compiled {len(doc.skills)} skills into {campaign.path(DOCUMENT_FILE)}")
        for line in campaign.budget_summary():
            print(line)
        if args.do_print:
            print(render_text(doc))
        return EXIT_OK

    if args.command == "tune":
        adapter = make_adapter(args.adapter, space)
        with campaign.lock():
            session = campaign.tune(adapter, budget=args.budget, seed=args.seed)
        reused = sum("reused_from" in e.inputs for e in session.trace)
        print(f"session {session.status}: {session.trials_used} trials "
              f"({reused} steps reused), {session.passes} passes", file=sys.stderr)
        if session.status == STATUS_CONVERGED:
            print(f"final metric: {session.final_metric}", file=sys.stderr)
            for name, value in sorted(session.final_config.assignments.items()):
                print(f"{name}={value}")
            return EXIT_OK
        print(f"diagnostic: {session.diagnostic}", file=sys.stderr)
        return EXIT_ANALYSIS

    if args.command == "export":
        campaign.require_stage("compiled", "export")
        export = export_knowledge(campaign.document())
        out = args.out or campaign.path(f"export_{EXPORT_FORMAT}.json")
        export.save(out)
        print(f"wrote {out} ({len(export.top_k)} parameters, "
              f"{len(export.interactions)} interaction annotations)")
        return EXIT_OK

    raise ParameterError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except ParameterError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (AnalysisError, CompileError, DocumentError) as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return EXIT_ANALYSIS
    except AdapterError as e:
        print(f"adapter failure: {e}", file=sys.stderr)
        return EXIT_ADAPTER
    except TuneforgeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
