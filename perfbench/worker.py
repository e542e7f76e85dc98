"""Host process for the in-process workloads (classify-sweep, mesh-emit).

    python3 perfbench/worker.py --workload W --seed N --tmp DIR [--setup-only]
                                [--trace --spans PATH]

It imports sigeom from the checkout's src/, generates the first block of
jobs and prints one JSON "ready" line; with --setup-only it stops there.
Then, for every "next" line on stdin, it runs the next job of the stream and
prints one JSON result line, with the time of a speed probe run right after
the job (perfbench/probe.py); "end" makes it print a summary line (peak RSS
and, with --trace, the layer aggregates) and exit.  Only the job itself is
inside the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import jobs as joblib  # noqa: E402
from probe import probe_ns  # noqa: E402


def import_sigeom(with_cli: bool):
    if not (SRC / "sigeom" / "__init__.py").is_file():
        sys.exit(f"worker: no sigeom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sigeom

    if with_cli:
        import sigeom.cli  # noqa: F401
    if not Path(sigeom.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"worker: sigeom imported from {sigeom.__file__}, not from {SRC}")
    return sigeom


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  VmHWM counts only the
    memory since exec; getrusage's maxrss would also count the peak of the
    harness that spawned this worker."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_profile(sg, job: dict):
    fam, p = job["family"], job["params"]
    if fam == "bessel":
        return sg.bessel_profile(p["lambda"], p["c1"], p["c2"])
    if fam == "log":
        return sg.log_profile(p["lambda"], p["c"])
    if fam == "power":
        return sg.power_profile(p["lambda"], p["mu"], p["c"])
    if fam == "constk":
        return sg.constant_k_profile(p["k0"], p["c1"], p["c2"])
    if fam == "consth":
        return sg.constant_h_profile(p["h0"], p["c1"], p["c2"])
    return sg.expression_profile(p["f"])


FLUX_POINTS = 5  # per axis: the flux check samples a 5 x 5 sub-grid


def _subsample(a) -> list[float]:
    return [float(a[round(i * (a.size - 1) / (FLUX_POINTS - 1))]) for i in range(FLUX_POINTS)]


def run_classify(sg, job: dict) -> dict:
    kind = (sg.RevolutionKind.TIMELIKE_MERIDIAN if job["meridian"] == "timelike"
            else sg.RevolutionKind.SPACELIKE_MERIDIAN)
    s = sg.RevolutionSurface(make_profile(sg, job), kind, tuple(job["u"]), tuple(job["v"]))
    g = sg.make_grid(s, *job["grid"])
    k = job["kind"]
    if k in ("eig1", "eig2"):
        r = (sg.check_eigen_i if k == "eig1" else sg.check_eigen_ii)(s, g)
        return {"verdict": r.verdict.value, "lam": list(r.lam), "residual": list(r.residual_sup)}
    if k == "curv":
        r = sg.verify_constant_curvature(s, g)
        return {"is_constant_k": r.is_constant_k, "k0": r.k0,
                "is_constant_h": r.is_constant_h, "h0": r.h0}
    flux, closed = ((sg.laplacian_i, sg.coord_laplacians_i) if k == "flux1"
                    else (sg.laplacian_ii, sg.coord_laplacians_ii))
    fields = sg.coordinate_fields(s)
    pairs = []
    for u in _subsample(g.u):
        for v in _subsample(g.v):
            for fld, want in zip(fields, closed(s, u, v)):
                pairs.append([flux(s, fld, u, v), want])
    return {"pairs": pairs}


def run_mesh(sg, job: dict, out: str) -> dict:
    return {"rc": sg.cli.main(joblib.surface_argv(job, job["action"], out))}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    sg = import_sigeom(with_cli=args.workload == "mesh-emit")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(sg)
    stream = joblib.JobStream(args.workload, args.seed)
    import numpy

    print(json.dumps({
        "ready": True,
        "digest": joblib.digest(stream.block(0)),
        "sigeom_file": sg.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }), flush=True)
    if args.setup_only:
        return

    ext = {"mesh": "obj"}
    index = 0
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "end":
            break
        if cmd != "next":
            sys.exit(f"worker: unknown command {cmd!r}")
        job = stream.job(index)
        if tracer is not None:
            tracer.job = index
        out = str(Path(args.tmp) / f"job-{index}.{ext.get(job.get('action'), 'csv')}")
        result, error = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter_ns()
            try:
                if args.workload == "classify-sweep":
                    result = run_classify(sg, job)
                else:
                    result = run_mesh(sg, job, out)
            except Exception as exc:  # a job's failure is a measured outcome
                error = f"{type(exc).__name__}: {exc}"
            ns = time.perf_counter_ns() - t0
        precision = sum(w.category.__name__ == "PrecisionLossWarning" for w in caught)
        probe = probe_ns()
        print(json.dumps({"i": index, "ns": ns, "probe_ns": probe, "result": result,
                          "error": error, "out": out if args.workload == "mesh-emit" else None,
                          "precision_warnings": precision}), flush=True)
        index += 1

    rss_mb = peak_rss_mb()
    if tracer is not None and args.spans:
        tracer.dump_spans(args.spans)
    print(json.dumps({"end": True, "rss_mb": rss_mb,
                      "trace": tracer.aggregates() if tracer else None}), flush=True)


if __name__ == "__main__":
    main()
