"""``python -m repro.obs`` — observability command line.

Subcommands::

    # profile any script and print the top-k kernel table
    python -m repro.obs report --exec train_script.py -- --epochs 5
    python -m repro.obs report --module repro.run -- --help

    # re-print the table from a saved profile dump
    python -m repro.obs report profile.json --top 10

    # one-shot Prometheus text of the in-process registry (debugging)
    python -m repro.obs metrics

``report --exec`` runs the target under :func:`repro.obs.profile.profile_mode`
with ``sys.argv`` rebound to whatever follows ``--``, then prints the
kernel table (and optionally ``--json`` dumps it for later re-reporting).
"""

from __future__ import annotations

import argparse
import json
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.obs", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="print a top-k kernel table")
    report.add_argument("path", nargs="?", default=None,
                        help="profile JSON written by dump_profile / --json")
    report.add_argument("--exec", dest="script", default=None, metavar="SCRIPT",
                        help="run SCRIPT under profile_mode, then report")
    report.add_argument("--module", dest="module", default=None, metavar="MOD",
                        help="run python module MOD under profile_mode, then report")
    report.add_argument("--top", type=int, default=15, help="rows to print (default 15)")
    report.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                        help="also dump the raw profile table as JSON")

    sub.add_parser("metrics", help="print the registry's Prometheus text")
    return parser


def _load_stats(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and "ops" in payload:
        return payload["ops"]
    raise SystemExit(f"{path}: not a repro-obs profile dump (missing 'ops')")


def _run_profiled(args) -> tuple[dict, int]:
    """Run the target under profile_mode: its op stats and its exit code.

    ``python -m`` entry points end in ``raise SystemExit(main())``; the
    exit is caught here so the report still prints, and its code is
    returned for ``main`` to pass on.
    """
    import runpy

    from repro.obs.profile import profile_mode, profile_snapshot

    old_argv = sys.argv
    sys.argv = [args.script or args.module] + list(args.args)
    code = 0
    try:
        with profile_mode():
            try:
                if args.script is not None:
                    runpy.run_path(args.script, run_name="__main__")
                else:
                    runpy.run_module(args.module, run_name="__main__", alter_sys=False)
            except SystemExit as exit_:
                code = _exit_code(exit_.code)
            # Snapshot before patches come off so nothing trickles in after.
            return profile_snapshot(), code
    finally:
        sys.argv = old_argv


def _exit_code(code) -> int:
    """The process exit status ``SystemExit(code)`` stands for."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    print(code, file=sys.stderr)  # what the interpreter does with a message
    return 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Everything after the first ``--`` belongs to the profiled target
    # verbatim; argparse's REMAINDER would misfile the first token into
    # the optional ``path`` positional, so split it off by hand.
    target_args: list = []
    if "--" in argv:
        split = argv.index("--")
        argv, target_args = argv[:split], argv[split + 1:]
    args = build_parser().parse_args(argv)
    args.args = target_args

    if args.command == "metrics":
        from repro.obs.registry import render_prometheus

        sys.stdout.write(render_prometheus())
        return 0

    if args.script is not None and args.module is not None:
        raise SystemExit("report: --exec and --module are mutually exclusive")

    code = 0
    if args.script is not None or args.module is not None:
        stats, code = _run_profiled(args)
    elif args.path is not None:
        stats = _load_stats(args.path)
    else:
        raise SystemExit("report: give a profile JSON path, --exec SCRIPT or --module MOD")

    from repro.obs.profile import format_report

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"kind": "repro-obs-profile", "ops": stats}, fh, indent=2)
            fh.write("\n")
    try:
        print(format_report(stats, top=args.top))
    except BrokenPipeError:  # e.g. `... report | head`; the table is best-effort
        sys.stderr.close()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
