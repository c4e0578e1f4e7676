"""CLI of the speculative-taint analyzer.

Targets::

    gadget:round          unXpec round program (--n-loads, --condition-accesses,
                          --train-iters select the parameterisation)
    gadget:setup          unXpec setup/warming program (expected clean)
    spectre:round         classic Spectre-v1 round program
    workload:<profile>    synthetic SPEC-like workload (--instructions, --seed)
    <path>.s              textual assembly, parsed by repro.isa.asm

Attack targets default their secret declaration to the gadget layout's
secret word; files and workloads use ``--secret lo:hi`` (repeatable,
hex accepted).  Exit status: 0 when the program is clean, 1 when findings
were reported (lint semantics), 2 on usage errors.  ``--crossval`` runs
the gadget/workload/fig3 cross-validation suite instead and exits 0 only
if every static verdict matches ground truth.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from ...common.argtypes import positive_int
from ...common.errors import ReproError
from .analyzer import AnalyzerConfig, SpecCTAnalyzer


def _parse_range(text: str) -> Tuple[int, int]:
    try:
        lo, hi = text.split(":", 1)
        return (int(lo, 0), int(hi, 0))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi (e.g. 0x18280:0x18288), got {text!r}"
        ) from exc


def _resolve_target(args: argparse.Namespace):
    """(program, default_secret_ranges, replay_memory) for the target.

    ``replay_memory`` is the concrete victim memory image witness replay
    runs against (attack targets provide their data structures — the OOB
    table entry is what makes the concrete leak fire); None for targets
    without one (files, workloads), which replay against zeroed memory.
    """
    target: str = args.target
    if target.startswith("gadget:"):
        from ...attack.gadgets import GadgetParams, UnxpecGadget

        gadget = UnxpecGadget(
            params=GadgetParams(
                n_loads=args.n_loads,
                condition_accesses=args.condition_accesses,
                train_iters=args.train_iters,
            )
        )
        which = target.split(":", 1)[1]
        if which == "round":
            return gadget.build_round(), gadget.secret_ranges(), gadget.memory_image(1)
        if which == "setup":
            return gadget.build_setup(), gadget.secret_ranges(), gadget.memory_image(1)
        raise ReproError(f"unknown gadget program {which!r} (want round or setup)")
    if target == "spectre:round":
        from ...attack.spectre import SpectreV1Attack

        attack = SpectreV1Attack()
        return attack.build_round(), attack.secret_ranges(), attack.memory_image(3)
    if target.startswith("workload:"):
        from ...attack.layout import DEFAULT_LAYOUT
        from ...workloads import get_profile, synthesize

        profile = get_profile(target.split(":", 1)[1])
        workload = synthesize(
            profile, instructions=args.instructions, seed=args.seed
        )
        return workload.program, (DEFAULT_LAYOUT.secret_range,), None
    # Anything else: a path to textual assembly.
    from ...isa.asm import assemble

    with open(target) as fh:
        text = fh.read()
    return assemble(text, name=target), (), None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.specct",
        description="Speculative-taint static analyzer for ISA programs.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        help="gadget:round | gadget:setup | spectre:round | "
        "workload:<profile> | path to a .s file",
    )
    parser.add_argument(
        "--crossval",
        action="store_true",
        help="run the gadget/workload/fig3 cross-validation suite instead",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller cross-validation corpus"
    )
    parser.add_argument(
        "--no-dynamic",
        action="store_true",
        help="cross-validation without the (slower) simulator sign check",
    )
    parser.add_argument(
        "--window",
        type=positive_int,
        default=AnalyzerConfig.window,
        help="speculation window depth in instructions (default: %(default)s)",
    )
    parser.add_argument(
        "--secret",
        action="append",
        type=_parse_range,
        default=None,
        metavar="LO:HI",
        help="secret byte range (repeatable; overrides the target's default)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--explore",
        action="store_true",
        help="run the multi-path explorer (path-sensitive findings, "
        "infeasible-path pruning, witness traces) instead of the fixpoint",
    )
    parser.add_argument(
        "--max-paths",
        type=positive_int,
        default=None,
        help="explorer: path/fork budget (default: %s)" % "1024",
    )
    parser.add_argument(
        "--max-steps",
        type=positive_int,
        default=None,
        help="explorer: total instruction-step budget (default: %s)" % "100000",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="explorer: concretely validate each witness with the dynamic "
        "taint interpreter (against the target's memory image, if it has one)",
    )
    parser.add_argument(
        "--n-loads", type=int, default=1, help="gadget: in-branch transient loads"
    )
    parser.add_argument(
        "--condition-accesses",
        type=int,
        default=1,
        help="gadget: f(N) pointer-chase depth",
    )
    parser.add_argument(
        "--train-iters", type=int, default=16, help="gadget: training invocations"
    )
    parser.add_argument(
        "--instructions", type=int, default=400, help="workload: program size"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload: master seed")
    args = parser.parse_args(argv)

    if args.crossval:
        from .crossval import cross_validate

        report = cross_validate(
            quick=args.quick, seed=args.seed, window=args.window,
            with_dynamic=not args.no_dynamic,
        )
        if args.format == "json":
            import json

            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render_text())
        return 0 if report.ok else 1

    if not args.target:
        parser.error("a target is required unless --crossval is given")
    try:
        program, default_ranges, replay_memory = _resolve_target(args)
    except (ReproError, OSError) as exc:
        print(f"specct: {exc}", file=sys.stderr)
        return 2
    ranges = args.secret if args.secret is not None else list(default_ranges)

    if args.explore:
        from .explorer import ExplorerConfig, SpecExplorer, replay_findings

        overrides = {"window": args.window}
        if args.max_paths is not None:
            overrides["max_paths"] = args.max_paths
        if args.max_steps is not None:
            overrides["max_steps"] = args.max_steps
        ereport = SpecExplorer(
            program, ranges, ExplorerConfig(**overrides)
        ).explore()
        replay = None
        if args.replay:
            replay = replay_findings(ereport, program, memory=replay_memory)
        if args.format == "json":
            import json

            payload = ereport.to_dict()
            if replay is not None:
                payload["replay"] = [
                    {
                        "kind": kind,
                        "pc": pc,
                        "transient": transient,
                        "confirmed": ok,
                    }
                    for (kind, pc, transient), ok in sorted(replay.items())
                ]
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(ereport.render_text())
            if replay is not None:
                confirmed = sum(1 for ok in replay.values() if ok)
                print(
                    f"witness replay: {confirmed}/{len(replay)} finding(s) "
                    "confirmed by the dynamic interpreter"
                )
                for (kind, pc, transient), ok in sorted(replay.items()):
                    mode = "transient" if transient else "architectural"
                    verdict = "CONFIRMED" if ok else "not reproduced"
                    print(f"  {kind} @ {program.name}:{pc} ({mode}): {verdict}")
        return 0 if ereport.clean else 1

    report = SpecCTAnalyzer(
        program, ranges, AnalyzerConfig(window=args.window)
    ).analyze()
    print(report.to_json() if args.format == "json" else report.render_text())
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
