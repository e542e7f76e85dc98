"""Seeded job lists for the three benchmark workloads.

Every workload is a sequence of fixed-composition blocks.  A block's slots
(job kind, profile family, grid size, s*u stratum) never change; the seed
and the block index only draw the parameters inside each slot and the order
of the slots.  A run therefore has the same job mix whatever the seed, and
the spread between seeds comes from parameter values alone.

The one exception is classify-sweep's Bessel-type jobs past the documented
s*u range ("mid" and "beyond" below), where the package is known to give
wrong verdicts: their parameters come from a design that depends on the
block index only, so a run of a given length meets the same such cases, and
counts the same failures, whatever the seed.

This module uses only the standard library so that the harness and the
worker that hosts the program generate identical jobs from the same seed.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("classify-sweep", "cli-jobs", "mesh-emit")

# s*u strata of Bessel-type jobs.  "doc" is the range over which the package
# documents its series accuracy ([0.1, 10]); "mid" runs up to 25, the range
# the series are expected to hold; "beyond" is past it, where ROADMAP item 2
# records wrong verdicts.  Failures in "mid" and "beyond" are counted in
# fail_frac but do not clear the run's `correct` flag.
STRATA = {"doc": (2.0, 10.0), "mid": (10.0, 25.0), "beyond": (25.0, 60.0)}
CONTRACT_X = 25.0

G21, G101, G401 = (21, 21), (101, 101), (401, 401)


def _block_rng(workload: str, seed: int | str, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _sym(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform magnitude in [lo, hi] with a random sign."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _v_range(rng: random.Random) -> list[float]:
    return [rng.uniform(-1.5, -0.2), rng.uniform(0.2, 1.5)]


def _u_range(rng: random.Random, lo: tuple[float, float], width: tuple[float, float]) -> list[float]:
    u_lo = rng.uniform(*lo)
    return [u_lo, min(u_lo + rng.uniform(*width), 10.0)]


def _meridian(rng: random.Random) -> str:
    return rng.choice(("timelike", "spacelike"))


# ----------------------------------------------------------------------
# profile draws: each returns (family, params, u_range, extra job fields)


def _x_max(rng: random.Random, stratum: str, frac: float | None) -> float:
    lo, hi = STRATA[stratum]
    return lo + (hi - lo) * (rng.random() if frac is None else frac)


def _bessel(rng: random.Random, modified: bool, c1_zero: bool, c2_zero: bool, stratum: str,
            frac: float | None = None) -> dict:
    x_max = _x_max(rng, stratum, frac)
    u = _u_range(rng, (0.3, 2.0), (1.5, 5.0))
    s = x_max / u[1]
    lam = -s * s if modified else s * s
    c1 = 0.0 if c1_zero else _sym(rng, 0.5, 2.0)
    c2 = 0.0 if c2_zero else _sym(rng, 0.5, 2.0)
    return {
        "family": "bessel",
        "params": {"lambda": lam, "c1": c1, "c2": c2},
        "u": u,
        "x_max": x_max,
        "stratum": stratum,
    }


def _expr_bessel(rng: random.Random, modified: bool, stratum: str,
                 frac: float | None = None) -> dict:
    x_max = _x_max(rng, stratum, frac)
    u = _u_range(rng, (0.3, 2.0), (1.5, 5.0))
    s = x_max / u[1]
    c = _sym(rng, 0.5, 2.0)
    fn = "i0" if modified else "j0"
    return {
        "family": "expr",
        "params": {"f": f"{c!r}*{fn}({s!r}*u)", "fn": fn, "c": c, "s": s},
        "u": u,
        "x_max": x_max,
        "stratum": stratum,
    }


def _expr_log(rng: random.Random) -> dict:
    a = _sym(rng, 0.5, 3.0)
    c = rng.uniform(-2.0, 2.0)
    return {
        "family": "expr",
        "params": {"f": f"{a!r}*ln(u)+{c!r}", "fn": "ln", "a": a, "c": c},
        "u": _u_range(rng, (0.2, 1.5), (1.0, 6.0)),
    }


def _log(rng: random.Random) -> dict:
    return {
        "family": "log",
        "params": {"lambda": _sym(rng, 0.5, 5.0), "c": rng.uniform(-2.0, 2.0)},
        "u": _u_range(rng, (0.2, 1.5), (1.0, 6.0)),
    }


def _power(rng: random.Random) -> dict:
    lam = _sym(rng, 0.5, 3.0)
    a = rng.uniform(-2.0, 3.0)
    while abs(a) < 0.2 or abs(a - 1.0) < 0.2:
        a = rng.uniform(-2.0, 3.0)
    return {
        "family": "power",
        "params": {"lambda": lam, "mu": a * lam, "c": _sym(rng, 0.5, 2.0)},
        "u": _u_range(rng, (0.3, 1.5), (1.0, 5.0)),
    }


def _constk(rng: random.Random) -> dict:
    k0 = rng.uniform(0.2, 4.0)
    c1 = rng.uniform(-1.0, 2.0)
    open_lo = (-c1 / k0) ** 0.5 if c1 < 0.0 else 0.0
    u_lo = max(0.2, 1.2 * open_lo + 0.05)
    return {
        "family": "constk",
        "params": {"k0": k0, "c1": c1, "c2": rng.uniform(-2.0, 2.0)},
        "u": [u_lo, min(u_lo + rng.uniform(1.0, 5.0), 10.0)],
    }


def _consth(rng: random.Random, c1_zero: bool = False) -> dict:
    return {
        "family": "consth",
        "params": {
            "h0": _sym(rng, 0.2, 3.0),
            "c1": 0.0 if c1_zero else rng.uniform(-2.0, 2.0),
            "c2": rng.uniform(-2.0, 2.0),
        },
        "u": _u_range(rng, (0.3, 1.5), (1.0, 5.0)),
    }


_FLUX1_FAMILIES = (
    lambda r: _bessel(r, r.random() < 0.5, False, r.random() < 0.5, "doc"),
    _log,
    _consth,
    _constk,
    _power,
    lambda r: _expr_bessel(r, r.random() < 0.5, "doc"),
)
# the second-form operator needs f' f'' != 0 on the whole surface
_FLUX2_FAMILIES = (_log, _power, _constk, lambda r: _consth(r, c1_zero=True))


def _surface_job(rng: random.Random, kind: str, grid: tuple[int, int], prof: dict) -> dict:
    job = {"kind": kind, "grid": list(grid), "meridian": _meridian(rng), "v": _v_range(rng)}
    job.update(prof)
    job.setdefault("stratum", None)
    job.setdefault("x_max", None)
    return job


def classify_block(seed: int, block: int) -> list[dict]:
    """32 jobs: 21 Bessel-type eigen fits (11 with s*u in "doc", 7 in "mid",
    3 "beyond"), 6 second-form fits, 3 curvature checks, 3 flux checks.

    Two thirds of the jobs run the series, with the 101^2 fits in the middle
    of the latency distribution and the 401^2 fits in its top fifth, so that
    both the median and the 90th percentile fall inside a group of series
    jobs rather than on the edge between two groups.
    """
    rng = _block_rng("classify-sweep", seed, block)
    # The "mid" and "beyond" slots draw everything from this seed-free
    # generator, so the failures they show do not vary with the seed.
    design = _block_rng("classify-sweep", "design", block)
    undocumented = set()
    # s*u sweeps each slot's stratum evenly from block to block (a golden-
    # ratio sequence from a start drawn per slot), so every run of a few
    # blocks sees the same spread of series lengths, whatever the seed.
    slot = iter(range(64))

    def frac(stratum: str) -> float:
        key = seed if stratum == "doc" else "design"
        start = random.Random(f"classify-sweep:{key}:slot{next(slot)}").random()
        return (start + block * 0.6180339887498949) % 1.0

    def mark(stratum: str, draw):
        if stratum != "doc":
            undocumented.add(draw)
        return draw

    def bes(modified: bool, c1_zero: bool, c2_zero: bool, stratum: str):
        f = frac(stratum)
        return mark(stratum, lambda r: _bessel(r, modified, c1_zero, c2_zero, stratum, f))

    def expr(modified: bool, stratum: str):
        f = frac(stratum)
        return mark(stratum, lambda r: _expr_bessel(r, modified, stratum, f))

    J, I = False, True
    slots = [
        ("eig1", G21, bes(J, False, True, "doc")),
        ("eig1", G21, bes(I, False, False, "beyond")),
        ("eig1", G21, bes(J, True, False, "mid")),
        ("eig1", G101, bes(J, False, False, "doc")),
        ("eig1", G101, bes(I, False, True, "doc")),
        ("eig1", G101, bes(I, True, False, "doc")),
        ("eig1", G101, bes(J, True, False, "doc")),
        ("eig1", G101, bes(J, False, True, "doc")),
        ("eig1", G101, expr(J, "doc")),
        ("eig1", G101, expr(I, "doc")),
        ("eig1", G101, bes(I, False, True, "mid")),
        ("eig1", G101, bes(J, False, True, "mid")),
        ("eig1", G101, bes(I, False, False, "mid")),
        ("eig1", G101, expr(J, "mid")),
        ("eig1", G101, bes(J, False, True, "beyond")),
        ("eig1", G401, bes(J, False, True, "doc")),
        ("eig1", G401, bes(I, True, False, "doc")),
        ("eig1", G401, expr(J, "doc")),
        ("eig1", G401, bes(J, False, False, "mid")),
        ("eig1", G401, expr(I, "mid")),
        ("eig1", G401, bes(I, False, True, "beyond")),
        ("eig2", G21, _log),
        ("eig2", G401, _log),
        ("eig2", G101, _power),
        ("eig2", G401, _power),
        ("eig2", G21, _expr_log),
        ("curv", G21, _constk),
        ("curv", G401, _constk),
        ("curv", G101, _consth),
        ("flux1", G21, _FLUX1_FAMILIES[block % 6]),
        ("flux1", G101, _FLUX1_FAMILIES[(block + 3) % 6]),
        ("flux2", G401, _FLUX2_FAMILIES[block % 4]),
    ]
    jobs = []
    for kind, grid, draw in slots:
        src = design if draw in undocumented else rng
        jobs.append(_surface_job(src, kind, grid, draw(src)))
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# profile specs for the CLI


def _num(x: float) -> str:
    return repr(float(x))


def profile_spec(job: dict) -> str:
    """The CLI `--profile` string of a surface job."""
    fam, p = job["family"], job["params"]
    if fam == "expr":
        return f"expr:f={p['f']}"
    keys = {
        "bessel": ("lambda", "c1", "c2"),
        "log": ("lambda", "c"),
        "power": ("lambda", "mu", "c"),
        "constk": ("k0", "c1", "c2"),
        "consth": ("h0", "c1", "c2"),
    }[fam]
    return f"{fam}:" + ",".join(f"{k}={_num(p[k])}" for k in keys)


def surface_argv(job: dict, action: str, out: str | None) -> list[str]:
    argv = [
        "surface",
        "--profile", profile_spec(job),
        "--kind", job["meridian"],
        "--u", f"{_num(job['u'][0])}:{_num(job['u'][1])}",
        "--v", f"{_num(job['v'][0])}:{_num(job['v'][1])}",
        "--action", action,
    ]
    if job["grid"] != list(G21):
        argv += ["--grid", f"{job['grid'][0]}x{job['grid'][1]}"]
    if out is not None:
        argv += ["--out", out]
    return argv


# ----------------------------------------------------------------------
# cli-jobs


def _table(rng: random.Random, kind: str, to_file: bool, n: tuple[int, int]) -> dict:
    if kind == "i0":
        a, b = rng.uniform(-10.0, 0.0), rng.uniform(1.0, 20.0)
    elif kind == "jp":
        a = rng.uniform(0.05, 3.0)
        b = rng.uniform(a + 1.0, 20.0)
    else:
        lo = 0.05 if kind in ("y0", "k0") else 0.0
        a = rng.uniform(lo, 5.0)
        b = min(a + rng.uniform(1.0, 20.0), CONTRACT_X)
    job = {"kind": "table", "bessel": kind, "range": [a, b], "n": rng.randint(*n),
           "to_file": to_file, "expect_rc": 0}
    if kind == "jp":
        job["p"] = _sym(rng, 0.0, 2.0) + rng.choice((-1.0, 1.0)) * 0.3
    return job


def _cli_surface(rng: random.Random, action: str, prof: dict) -> dict:
    job = _surface_job(rng, "surface", G21, prof)
    job.update(action=action, expect_rc=0)
    return job


def _parse_error(rng: random.Random) -> dict:
    lam = _num(rng.uniform(0.5, 4.0))
    argv = rng.choice([
        ["surface", "--profile", f"bessel:lambda={lam},c1=1", "--action", "classify1"],
        ["surface", "--profile", f"bessel:lambda=x{lam},c1=1,c2=0", "--action", "classify1"],
        ["surface", "--profile", f"cone:a={lam}", "--action", "curvature"],
        ["surface", "--profile", f"log:lambda={lam},c=0", "--action", "mesh", "--grid", "1x5"],
    ])
    return {"kind": "error", "argv": argv, "expect_rc": 2}


def _domain_error(rng: random.Random) -> dict:
    hi = _num(rng.uniform(1.0, 10.0))
    argv = rng.choice([
        ["bessel", "--kind", "y0", "--range", f"-1:{hi}"],
        ["bessel", "--kind", "k0", "--range", f"0:{hi}"],
        ["surface", "--profile", "log:lambda=-2,c=0", "--u", f"0:{hi}", "--action", "curvature"],
    ])
    return {"kind": "error", "argv": argv, "expect_rc": 3}


def _parabolic_error(rng: random.Random) -> dict:
    spec = f"lin:a={_num(_sym(rng, 0.5, 3.0))},b={_num(rng.uniform(-2.0, 2.0))}"
    return {"kind": "error", "argv": ["surface", "--profile", spec, "--action", "classify2"],
            "expect_rc": 4}


def cli_block(seed: int, block: int) -> list[dict]:
    """21 jobs: the six figures, six Bessel tables, six surface reports on
    the default 21^2 grid and three expected errors.  The three long Y0, K0
    and J_p tables are the dearest jobs, about a seventh of the mix, so the
    90th percentile falls among them."""
    rng = _block_rng("cli-jobs", seed, block)
    short, long = (50, 100), (350, 400)
    jobs = [{"kind": "figure", "id": fid, "expect_rc": 0}
            for fid in ("1a", "1b", "2a", "2b", "3a", "3b")]
    jobs += [
        _table(rng, "j0", True, short),
        _table(rng, "y0", True, long),
        _table(rng, "i0", True, short),
        _table(rng, "k0", False, long),
        _table(rng, "jp", False, long),
        _table(rng, "jp", True, short),
        _cli_surface(rng, "classify1", _bessel(rng, False, False, False, "doc")),
        _cli_surface(rng, "classify1", _expr_bessel(rng, True, "doc")),
        _cli_surface(rng, "classify2", _log(rng)),
        _cli_surface(rng, "classify2", _power(rng)),
        _cli_surface(rng, "curvature", _constk(rng)),
        _cli_surface(rng, "curvature", _consth(rng)),
        _parse_error(rng),
        _domain_error(rng),
        _parabolic_error(rng),
    ]
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# mesh-emit


def _jitter(rng: random.Random, grid: tuple[int, int]) -> list[int]:
    """Grid sizes within 5% of the slot's nominal size."""
    return [max(5, round(n * rng.uniform(0.95, 1.05))) for n in grid]


def mesh_block(seed: int, block: int) -> list[dict]:
    """25 jobs in five groups, listed from cheapest to dearest: nine
    curvature tables and 101^2 jobs; six 151^2 first-form tables around the
    median; six 141^2 second-form tables and 151^2 to 201^2 meshes; three
    201^2 second-form tables of one family around the 90th percentile; one
    401^2 mesh.  Each percentile falls inside a group of like jobs, not on
    the edge between two groups, so it does not jump from run to run."""
    rng = _block_rng("mesh-emit", seed, block)

    def bessel(r):
        return _bessel(r, r.random() < 0.5, False, r.random() < 0.5, "doc")

    def expr(r):
        return _expr_bessel(r, r.random() < 0.5, "doc")

    slots = [
        ("curvature", (101, 21), bessel),
        ("curvature", (201, 21), expr),
        ("curvature", (251, 21), bessel),
        ("curvature", (401, 21), _constk),
        ("curvature", (151, 21), _consth),
        ("curvature", (301, 21), _log),
        ("curvature", (401, 21), _power),
        ("mesh", (101, 101), _log),
        ("laplacian1", (101, 101), expr),
        ("laplacian1", (151, 151), _log),
        ("laplacian1", (151, 151), _consth),
        ("laplacian1", (151, 151), _constk),
        ("laplacian1", (151, 151), _power),
        ("laplacian1", (151, 151), _log),
        ("laplacian1", (151, 151), _consth),
        ("laplacian2", (141, 141), _power),
        ("laplacian2", (141, 141), lambda r: _consth(r, c1_zero=True)),
        ("mesh", (101, 201), _constk),
        ("mesh", (201, 101), _power),
        ("mesh", (151, 151), bessel),
        ("mesh", (151, 151), expr),
        ("laplacian2", (201, 201), _log),
        ("laplacian2", (201, 201), _log),
        ("laplacian2", (201, 201), _log),
        ("mesh", (401, 401), _consth),
    ]
    jobs = []
    for action, grid, draw in slots:
        job = _surface_job(rng, "surface", tuple(_jitter(rng, grid)), draw(rng))
        job.update(action=action, expect_rc=0)
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


BLOCKS = {"classify-sweep": classify_block, "cli-jobs": cli_block, "mesh-emit": mesh_block}


class JobStream:
    """The endless job sequence of one workload and seed, block by block."""

    def __init__(self, workload: str, seed: int):
        self._block = BLOCKS[workload]
        self._seed = seed
        self._blocks: list[list[dict]] = []

    def block(self, b: int) -> list[dict]:
        while len(self._blocks) <= b:
            self._blocks.append(self._block(self._seed, len(self._blocks)))
        return self._blocks[b]

    def job(self, index: int) -> dict:
        n = len(self.block(0))
        return self.block(index // n)[index % n]

    @property
    def block_size(self) -> int:
        return len(self.block(0))


def digest(jobs: list[dict]) -> str:
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
