"""Run ``repro-experiments serve``, optionally with layer spans recorded.

The service-mixed workload starts the campaign service through this
launcher so that a traced run can wrap the server's layers (parse,
admission, journal, engine, codec) before the server imports them into
use. On exit -- SIGTERM drains the service and ``main`` returns -- the
recorded spans are written to ``DIR/spans-server.jsonl``::

    python benchmarks/suite/serve.py [--trace-dir DIR] -- serve --cache-dir C --port 0
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import cli


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="record layer spans and write them here on exit")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER,
                        help="arguments for repro-experiments, after --")
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    if args.trace_dir is None:
        return cli.main(serve_args)

    import spans

    recorder = spans.Recorder()
    with spans.installed(recorder):
        code = cli.main(serve_args)
    recorder.write(args.trace_dir / "spans-server.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
