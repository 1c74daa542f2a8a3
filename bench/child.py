"""Run one invlab CLI command in this process and record when it ran.

    python3 bench/child.py --timing FILE [--probe | --spans FILE] -- <invlab args>

The timing file gets JSON with ``entry``, the monotonic clock on entry into
the experiment function, and ``end``, the clock when ``write_report``
returned.  The launching process reads the clock just before it starts this
one, and the clock is system-wide, so set-up time is ``entry`` minus that.
``--probe`` stops at entry and exits 0 without running the experiment.
``--spans`` installs the tracer before the CLI runs and writes its spans.
The exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


class _Probed(Exception):
    """Raised at entry into the experiment function in probe mode."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--timing", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import invlab.cli as cli

    if Path(cli.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"invlab imported from {cli.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if args.spans:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    stamps = {}
    command = cli_args[0]
    run = cli._EXPERIMENTS[command]
    write_report = cli.write_report

    def timed_run(*a, **kw):
        stamps["entry"] = time.monotonic()
        if args.probe:
            raise _Probed
        return run(*a, **kw)

    def timed_write_report(*a, **kw):
        result = write_report(*a, **kw)
        stamps["end"] = time.monotonic()
        return result

    cli._EXPERIMENTS[command] = timed_run
    cli.write_report = timed_write_report
    try:
        code = cli.main(cli_args)
    except _Probed:
        code = 0
    Path(args.timing).write_text(json.dumps(stamps))
    if tracer is not None:
        Path(args.spans).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
