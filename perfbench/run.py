"""Benchmark of sigeom: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json records why each one exists):

  classify-sweep  in-process library jobs: first- and second-form eigen
                  fits, constant-curvature checks and flux-vs-closed-form
                  Laplacians, each on a fresh profile, surface and grid
  cli-jobs        one `python -m sigeom ...` subprocess per job: figures,
                  Bessel tables, surface reports and expected errors
  mesh-emit       in-process `sigeom.cli.main` jobs writing OBJ meshes and
                  Laplacian/curvature CSV tables

Each workload is a closed loop with one client: the next job starts when
the previous one has finished and its output has been checked.  Jobs come
from perfbench/jobs.py, generated from --seed; the program only receives the
generated inputs.  A run is a fixed number of whole job blocks, --seconds
times the workload's nominal block rate (BLOCKS_PER_S) and at least MIN_JOBS
jobs, so its job mix and, for given code, its count of failed jobs do not
depend on the seed or on the machine's speed; only its wall time does.

Every end-to-end timing is reported at a fixed machine speed: it is scaled
by the speed probe of perfbench/probe.py, run after every job and every
set-up sample, so that the shared host's drift moves it less.  The unscaled
wall-clock values are printed and recorded beside it.

Every job's output is checked against perfbench/oracles.py.  `failed`
counts the jobs whose output is wrong or that ended in an unexpected
exception or exit code; `correct` is false when such a failure happens on a
job inside the package's documented accuracy range (every job except the
Bessel-type classify-sweep jobs whose s*u exceeds 10, see jobs.STRATA).

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the workload untraced for half of --seconds and traced for the other half
(perfbench/tracer.py) and prints the per-layer metrics, per job, plus
`trace_overhead.<metric>`: traced minus untraced for every end-to-end metric.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (environment, job
properties, every failure, the span table) goes to .perfbench/results/,
and the spans of a traced run to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import jobs as joblib  # noqa: E402
from probe import REF_NS, probe_ns  # noqa: E402

SETUP_SAMPLES = 9  # measured worker start-ups per run, after one warm-up
MIN_JOBS = 100  # per run, so that ten jobs lie beyond the 90th percentile
MIN_JOBS_TRACED = 50  # per half of a traced run
HARD_STOP_S = 150.0  # no new job starts after this, whatever is left
# Job blocks per second of --seconds: each workload's rate on a 2-core Intel
# Xeon VM (Python 3.11, numpy 2.4) while its shared host was busy, rounded
# down, so that the jobs of a run take about --seconds even then.
BLOCKS_PER_S = {"classify-sweep": 0.6, "cli-jobs": 0.2, "mesh-emit": 0.16}
UNDOCUMENTED_STRATA = ("mid", "beyond")  # failures here do not clear `correct`


class Run:
    """Outcome of one measured loop over a job stream."""

    def __init__(self) -> None:
        self.jobs: list[dict] = []
        self.latency_ms: list[float] = []
        self.probe_ns: list[int] = []  # speed probe run after each job
        self.out_bytes_per_job: list[int] = []
        self.failures: list[dict] = []
        self.rss_mb = 0.0
        self.precision_warnings = 0
        self.trace: dict = {}

    def record(self, job: dict, ns: int, probe: int, out_bytes: int, reason: str | None) -> None:
        self.jobs.append(job)
        self.latency_ms.append(ns / 1e6)
        self.probe_ns.append(probe)
        self.out_bytes_per_job.append(out_bytes)
        if reason is not None:
            self.failures.append({"index": len(self.jobs) - 1, "stratum": job.get("stratum"),
                                  "job": job, "reason": reason})

    @property
    def correct(self) -> bool:
        return all(f["stratum"] in UNDOCUMENTED_STRATA for f in self.failures)


def subprocess_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def worker_cmd(workload: str, seed: int, tmp: Path, trace: bool, spans: Path | None,
               setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    return cmd


def read_json_line(proc: subprocess.Popen, what: str) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"helper process ended before sending its {what} line")
    return json.loads(line)


class Setup(NamedTuple):
    """One set-up time and the speed probe right after it."""

    seconds: float
    probe: float


def setup_sample(workload: str, seed: int, tmp: Path, trace: bool) -> tuple[Setup, dict]:
    """Seconds from spawning a worker to its ready line: interpreter start,
    `import sigeom` (and the tracer, when traced) and job generation; with
    the median of three speed probes taken right after it."""
    want = joblib.digest(joblib.JobStream(workload, seed).block(0))
    t0 = time.perf_counter()
    with open(tmp / "worker.err", "a") as err:
        proc = subprocess.Popen(worker_cmd(workload, seed, tmp, trace, None, True),
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, text=True, cwd=ROOT)
    try:
        ready = read_json_line(proc, "ready")
        dt = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if ready.get("digest") != want:
        raise RuntimeError(f"worker generated job digest {ready.get('digest')}, expected {want}")
    return Setup(dt, statistics.median(probe_ns() for _ in range(3))), ready


class SetupSampler:
    """SETUP_SAMPLES set-up times, taken between jobs and spread evenly over
    the measuring time, so that their median reflects the whole run rather
    than the machine's state during its first seconds."""

    def __init__(self, workload: str, seed: int, tmp: Path, total: int):
        self.args = (workload, seed, tmp)
        self.total = total
        self.samples: list[Setup] = []
        _, self.ready = setup_sample(*self.args, trace=False)  # warm-up, not counted

    def take(self) -> None:
        self.samples.append(setup_sample(*self.args, trace=False)[0])

    def poll(self, i: int) -> None:
        if len(self.samples) < SETUP_SAMPLES and \
                i >= self.total * len(self.samples) / SETUP_SAMPLES:
            self.take()

    def finish(self) -> list[Setup]:
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return self.samples


def measure_setup(workload: str, seed: int, tmp: Path, trace: bool) -> list[Setup]:
    """SETUP_SAMPLES consecutive set-up times after one warm-up."""
    return [setup_sample(workload, seed, tmp, trace)[0] for _ in range(SETUP_SAMPLES + 1)][1:]


# ----------------------------------------------------------------------
# in-process workloads


def guarded(check, *args) -> tuple[str | None, int]:
    """Run a check; output too malformed for it to read is a failed job."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", 0


def check_inprocess(workload: str, job: dict, rec: dict) -> tuple[str | None, int]:
    """(failure reason or None, output bytes) of one worker result."""
    import oracles

    if rec["error"] is not None:
        return f"exception {rec['error']}", 0
    if workload == "classify-sweep":
        return oracles.check_classify(job, rec["result"]), len(json.dumps(rec["result"]))
    path = Path(rec["out"])
    if rec["result"]["rc"] != 0:
        return f"exit code {rec['result']['rc']}", 0
    try:
        text = path.read_text()
    except FileNotFoundError:
        return "no output file", 0
    finally:
        path.unlink(missing_ok=True)
    return oracles.check_surface_output(text, job), len(text.encode())


def run_inprocess(workload: str, seed: int, tmp: Path, total: int,
                  trace: bool, spans: Path | None, deadline: float,
                  sampler: SetupSampler | None) -> Run:
    run = Run()
    stream = joblib.JobStream(workload, seed)
    with open(tmp / "worker.err", "a") as err:
        proc = subprocess.Popen(worker_cmd(workload, seed, tmp, trace, spans, False),
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                                text=True, cwd=ROOT)
    try:
        read_json_line(proc, "ready")
        i = 0
        while i < total and time.monotonic() < deadline:
            if sampler is not None:
                sampler.poll(i)
            proc.stdin.write("next\n")
            proc.stdin.flush()
            rec = read_json_line(proc, "result")
            if rec["i"] != i:
                raise RuntimeError(f"worker answered job {rec['i']}, expected {i}")
            job = stream.job(i)
            reason, nbytes = guarded(check_inprocess, workload, job, rec)
            run.record(job, rec["ns"], rec["probe_ns"], nbytes, reason)
            run.precision_warnings += rec["precision_warnings"]
            i += 1
        proc.stdin.write("end\n")
        proc.stdin.flush()
        summary = read_json_line(proc, "summary")
        run.rss_mb = summary["rss_mb"]
        run.trace = summary["trace"] or {}
    finally:
        proc.stdin.close()
        proc.stdout.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return run


def run_length(workload: str, seconds: float, min_jobs: int) -> int:
    """Jobs in a run: whole blocks, about `seconds` long at the nominal rate."""
    block = joblib.JobStream(workload, 0).block_size
    blocks = max(round(seconds * BLOCKS_PER_S[workload]), -(-min_jobs // block))
    return blocks * block


# ----------------------------------------------------------------------
# cli-jobs


def cli_argv(job: dict, out_dir: Path) -> list[str]:
    kind = job["kind"]
    if kind == "figure":
        return ["figure", job["id"], "--out-dir", str(out_dir)]
    if kind == "table":
        a, b = job["range"]
        argv = ["bessel", "--kind", job["bessel"], "--range", f"{a!r}:{b!r}", "--n", str(job["n"])]
        if job["bessel"] == "jp":
            argv += ["--p", repr(job["p"])]
        if job["to_file"]:
            argv += ["--out", str(out_dir / "table.csv")]
        return argv
    if kind == "surface":
        return joblib.surface_argv(job, job["action"], None)
    return list(job["argv"])


def check_cli(job: dict, rc: int, out_dir: Path, stdout: str) -> tuple[str | None, int]:
    """(failure reason or None, bytes written to stdout and files) of one job."""
    import oracles

    nbytes = len(stdout.encode()) + sum(p.stat().st_size for p in out_dir.iterdir())
    if rc != job["expect_rc"]:
        return f"exit code {rc}, expected {job['expect_rc']}", nbytes
    kind = job["kind"]
    if kind == "error":
        return None, nbytes
    if kind == "figure":
        return oracles.check_figure(job["id"], out_dir), nbytes
    if kind == "table":
        text = (out_dir / "table.csv").read_text() if job["to_file"] else stdout
        return oracles.check_table(text, job), nbytes
    return oracles.check_surface_output(stdout, job), nbytes


def run_cli(seed: int, tmp: Path, total: int, trace: bool,
            spans: Path | None, deadline: float, sampler: SetupSampler | None) -> Run:
    run = Run()
    stream = joblib.JobStream("cli-jobs", seed)
    env = subprocess_env()
    spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        i = 0
        while i < total and time.monotonic() < deadline:
            if sampler is not None:
                sampler.poll(i)
            job = stream.job(i)
            job_dir = tmp / f"cli-{i}"
            out_dir = job_dir / "out"
            out_dir.mkdir(parents=True)
            argv = cli_argv(job, out_dir)
            if trace:
                cmd = [sys.executable, str(HERE / "traced_cli.py"),
                       "--dump", str(job_dir / "agg.json"), "--spans", str(spans),
                       "--job", str(i), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "sigeom", *argv]
            spawner.stdin.write(json.dumps({
                "cmd": cmd, "cwd": str(ROOT), "env": env,
                "stdout": str(job_dir / "stdout"), "stderr": str(job_dir / "stderr"),
            }) + "\n")
            spawner.stdin.flush()
            done_job = read_json_line(spawner, "job")
            stdout = (job_dir / "stdout").read_text()
            reason, nbytes = guarded(check_cli, job, done_job["rc"], out_dir, stdout)
            run.record(job, done_job["ns"], done_job["probe_ns"], nbytes, reason)
            run.rss_mb = max(run.rss_mb, done_job["maxrss_kb"] / 1024.0)
            if trace:
                import tracer

                agg = json.loads((job_dir / "agg.json").read_text())
                run.precision_warnings += agg.pop("precision_warnings")
                tracer.merge(run.trace, agg)
            shutil.rmtree(job_dir)
            i += 1
    finally:
        spawner.stdin.close()
        spawner.stdout.close()
        spawner.wait(timeout=60)
    return run


def run_workload(workload: str, seed: int, tmp: Path, total: int,
                 trace: bool, spans: Path | None, deadline: float,
                 sampler: SetupSampler | None = None) -> Run:
    if workload == "cli-jobs":
        return run_cli(seed, tmp, total, trace, spans, deadline, sampler)
    return run_inprocess(workload, seed, tmp, total, trace, spans, deadline, sampler)


# ----------------------------------------------------------------------
# metrics


def end_to_end(run: Run, setup: list[Setup], block: int, scaled: bool = True) -> dict[str, float]:
    """Throughputs are the median over job blocks of work done per second
    busy in jobs, so that a few seconds of a slower machine move them less;
    a block has the same job mix in every run.  With `scaled`, each job's
    latency and each set-up time is multiplied by REF_NS over the time of
    the speed probe taken right after it."""
    n = len(run.latency_ms)
    blocks = [slice(k, k + block) for k in range(0, n - block + 1, block)] or [slice(0, n)]
    latency = run.latency_ms
    if scaled:
        latency = [ms * REF_NS / probe for ms, probe in zip(latency, run.probe_ns)]
    busy = [sum(latency[b]) / 1e3 for b in blocks]
    setup_s = [s.seconds * (REF_NS / s.probe if scaled else 1.0) for s in setup]
    return {
        "setup_s": statistics.median(setup_s),
        "jobs_per_s": statistics.median(len(latency[b]) / t for b, t in zip(blocks, busy)),
        "job_p50_ms": statistics.median(latency),
        "job_p90_ms": statistics.quantiles(latency, n=10, method="inclusive")[8],
        "pass_frac": (n - len(run.failures)) / n,
        "peak_rss_mb": run.rss_mb,
        "out_mb_per_s": statistics.median(sum(run.out_bytes_per_job[b]) / 1e6 / t
                                          for b, t in zip(blocks, busy)),
    }


def import_times(env: dict, samples: int = 3) -> dict[str, float]:
    """Cumulative import time of numpy and of sigeom (which includes numpy),
    from `python -X importtime`, median of `samples` fresh interpreters."""
    got: dict[str, list[float]] = {"numpy": [], "sigeom": []}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sigeom"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        proc.check_returncode()
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in got:
                got[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {f"import.{k}_ms": statistics.median(v) for k, v in got.items()}


def per_layer(run: Run) -> dict[str, float]:
    t = run.trace
    jobs = len(run.jobs)
    self_ns, calls = t.get("self_ns", {}), t.get("calls", {})

    def ms(*names: str) -> float:
        return sum(self_ns.get(n, 0) for n in names) / 1e6 / jobs

    def count(*names: str) -> float:
        return sum(calls.get(n, 0) for n in names) / jobs

    jets = [f"bessel.{k}_jet" for k in ("j0", "y0", "i0", "k0", "jp")]
    values = [f"bessel.bessel_{k}" for k in ("j0", "y0", "i0", "k0", "j")]
    series_calls = sum(calls.get(n, 0) for n in jets + values)
    dd = t.get("dd_elems", 0)
    jet_evaluate = t.get("jet_evaluate_calls", 0)
    jet_evals = t.get("jet_profile_evals", 0)
    return {
        "ddouble.ops": dd / jobs,
        "ddouble.ops_per_jet": dd / series_calls if series_calls else 0.0,
        "bessel.jet_calls": count(*jets),
        "bessel.jet_ms": ms(*jets),
        "bessel.precision_warnings": run.precision_warnings / jobs,
        "bessel.value_calls": count(*values),
        "bessel.value_ms": ms(*values),
        "autodiff.jet_calls": count("autodiff.jet"),
        "autodiff.jet_ms": ms("autodiff.jet"),
        "profiles.evaluate_calls": count("profiles.evaluate"),
        "profiles.jet_evals": jet_evals / jobs,
        "profiles.cache_hit_ratio":
            max(0, jet_evaluate - jet_evals) / jet_evaluate if jet_evaluate else 0.0,
        "surfaces.flux_lap_calls": count("surfaces.laplacian_i", "surfaces.laplacian_ii"),
        "surfaces.flux_lap_ms": ms("surfaces.laplacian_i", "surfaces.laplacian_ii"),
        "surfaces.coord_lap_calls":
            count("surfaces.coord_laplacians_i", "surfaces.coord_laplacians_ii"),
        "surfaces.coord_lap_ms": ms("surfaces.coord_laplacians_i", "surfaces.coord_laplacians_ii"),
        "surfaces.curvature_ms": ms("surfaces.curvatures"),
        "surfaces.mesh_ms": ms("surfaces.mesh"),
        "classify.grid_points": t.get("grid_points", 0) / jobs,
        "classify.fit_ms": ms("classify.check_eigen_i", "classify.check_eigen_ii",
                              "classify.verify_constant_curvature",
                              "classify.solve_radial_eigen_ode", "classify.eigen_system_residual"),
        "cli.parse_ms": ms("cli.parse_profile_spec"),
        "cli.write_obj_ms": ms("cli.write_obj"),
        "cli.self_ms": ms("cli.main"),
        "cli.emit_bytes": sum(run.out_bytes_per_job) / jobs if calls.get("cli.main") else 0.0,
    }


def span_table(trace: dict) -> dict[str, dict]:
    return {name: {"calls": trace["calls"].get(name, 0), "total_ms": trace["total_ns"][name] / 1e6,
                   "self_ms": trace["self_ns"][name] / 1e6}
            for name in sorted(trace.get("total_ns", {}))}


# ----------------------------------------------------------------------
# workload properties and environment


def properties(run: Run) -> dict:
    n = len(run.jobs)

    def share(pred) -> float:
        return sum(1 for j in run.jobs if pred(j)) / n

    def size(j: dict) -> str:
        if "grid" not in j:
            return "none"
        pts = j["grid"][0] * j["grid"][1]
        return ("<=21^2" if pts <= 441 else "<=101^2" if pts <= 11000 else
                "<=201^2" if pts <= 45000 else "<=401^2")

    mix: dict[str, int] = {}
    for j in run.jobs:
        mix[size(j)] = mix.get(size(j), 0) + 1
    return {
        "jobs": n,
        "su_gt_25_share": share(lambda j: (j.get("x_max") or 0.0) > joblib.CONTRACT_X),
        "grid_mix": {k: v / n for k, v in sorted(mix.items())},
        "c2_nonzero_share": share(lambda j: j.get("params", {}).get("c2", 0.0) != 0.0
                                  and j.get("family") == "bessel"),
        "expr_share": share(lambda j: j.get("family") == "expr"),
        "failures_by_stratum": {s: sum(1 for f in run.failures if f["stratum"] == s)
                                for s in ("doc", "mid", "beyond", None)},
    }


def environment(ready: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "sigeom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "sigeom_file": ready["sigeom_file"],
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": ready["python"],
        "numpy": ready["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# ----------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    deadline = started + HARD_STOP_S

    if not (SRC / "sigeom" / "__init__.py").is_file():
        print(f"perfbench: no sigeom package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    block = joblib.JobStream(args.workload, args.seed).block_size
    tmp = STATE / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    spans = None
    try:
        total = run_length(args.workload, args.seconds, MIN_JOBS)
        sampler = SetupSampler(args.workload, args.seed, tmp, total)
        ready = sampler.ready
        if not args.trace:
            run = run_workload(args.workload, args.seed, tmp, total, False, None, deadline,
                               sampler)
            setup = sampler.finish()
            values = end_to_end(run, setup, block)
            wall = end_to_end(run, setup, block, scaled=False)
            runs = [run]
        else:
            (STATE / "spans").mkdir(parents=True, exist_ok=True)
            spans = STATE / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.unlink(missing_ok=True)
            setup = measure_setup(args.workload, args.seed, tmp, trace=False)
            setup_t = measure_setup(args.workload, args.seed, tmp, trace=True)
            half = run_length(args.workload, args.seconds / 2.0, MIN_JOBS_TRACED)
            plain = run_workload(args.workload, args.seed, tmp, half, False, None, deadline)
            run = run_workload(args.workload, args.seed, tmp, half, True, spans, deadline)
            runs = [plain, run]
            base, traced = end_to_end(plain, setup, block), end_to_end(run, setup_t, block)
            wall = end_to_end(plain, setup, block, scaled=False)
            values = per_layer(run)
            values.update(import_times(subprocess_env()))
            values.update({f"trace_overhead.{k}": traced[k] - base[k] for k in base})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(len(r.jobs) for r in runs)
    failed = sum(len(r.failures) for r in runs)
    correct = all(r.correct for r in runs)
    props = properties(run)
    # measured only with the tracer installed
    props["profiles.cache_hit_ratio"] = values.get("profiles.cache_hit_ratio")
    env = environment(ready)
    digest = joblib.digest(run.jobs)
    failures = [dict(f, run="traced" if r is run and args.trace else "untraced")
                for r in runs for f in r.failures]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted}  job digest {digest}")
    print("environment " + json.dumps(env))
    print("properties " + json.dumps(props))
    for f in failures[:20]:
        print(f"failed {f['run']} job {f['index']} ({f['job'].get('kind')}, "
              f"{f['job'].get('family')}, stratum {f['stratum']}): {f['reason']}")
    fail_frac = failed / attempted
    print(f"fail_frac {fail_frac:.6g}  (failed {failed} of {attempted}; correct={correct})")
    spans_by_name = span_table(run.trace) if args.trace else {}
    for name, row in spans_by_name.items():
        print(f"span {name:34s} calls {row['calls']:9d}  total {row['total_ms']:10.2f} ms  "
              f"self {row['self_ms']:10.2f} ms")
    speed = REF_NS / statistics.median(p for r in runs for p in r.probe_ns)
    print(f"machine speed {speed:.4g} x reference (median probe); unscaled "
          + "  ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")

    (STATE / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "job_digest": digest, "environment": env, "properties": props,
        "correct": correct, "attempted": attempted, "failed": failed, "fail_frac": fail_frac,
        "metrics": metrics, "unscaled": wall, "speed": speed, "failures": failures,
        "spans": spans_by_name, "latency_ms": run.latency_ms, "probe_ns": run.probe_ns,
        "out_bytes": run.out_bytes_per_job,
        "wall_s": time.monotonic() - started,
    }
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
