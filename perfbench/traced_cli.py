"""Runs one sigeom CLI command with the layer tracer installed.

    python3 perfbench/traced_cli.py --dump AGG.json --spans SPANS.jsonl --job I -- ARGS...

ARGS are the arguments of `sigeom`.  The tracer's aggregates, with the
number of PrecisionLossWarning raised, go to AGG.json, the spans are
appended to SPANS.jsonl, and the exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from worker import import_sigeom  # noqa: E402


def main() -> int:
    split = sys.argv.index("--")
    ap = argparse.ArgumentParser()
    ap.add_argument("--dump", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--job", type=int, default=-1)
    args = ap.parse_args(sys.argv[1:split])

    sg = import_sigeom(with_cli=True)
    tracer = Tracer()
    tracer.install(sg)
    tracer.job = args.job
    rc = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = sg.cli.main(sys.argv[split + 1:])
    except SystemExit as exc:  # argparse rejects its own usage errors this way
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        agg = tracer.aggregates()
        agg["precision_warnings"] = sum(
            w.category.__name__ == "PrecisionLossWarning" for w in caught)
        with open(args.dump, "w") as fh:
            json.dump(agg, fh)
        tracer.dump_spans(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
