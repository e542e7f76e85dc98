"""Self-check of the benchmark's output checker: wrong outputs must be flagged.

    python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import oracles  # noqa: E402


def _first(kind: str, family: str, stratum: str | None = None) -> dict:
    for b in range(10):
        for job in jobs.classify_block(0, b):
            if job["kind"] == kind and job["family"] == family and job["stratum"] == stratum:
                return job
    raise LookupError((kind, family, stratum))


def _bessel_result(job: dict, lam3: float, verdict: str = "NullTwoType") -> dict:
    return {"verdict": verdict, "lam": [0.0, 0.0, lam3], "residual": [0.0, 0.0, 0.0]}


def test_right_bessel_verdict_passes():
    job = _first("eig1", "bessel", "doc")
    assert oracles.check_classify(job, _bessel_result(job, oracles.eigen_lambda(job))) is None


def test_wrong_verdict_is_flagged():
    job = _first("eig1", "bessel", "doc")
    lam = oracles.eigen_lambda(job)
    assert oracles.check_classify(job, _bessel_result(job, lam, "NoEigenRelation")) is not None
    log_job = _first("eig2", "log")
    want = oracles.eigen_lambda(log_job)
    wrong = {"verdict": "NoEigenRelation", "lam": [want, want, 0.0], "residual": [0, 0, 0]}
    assert oracles.check_classify(log_job, wrong) is not None
    power_job = _first("eig2", "power")
    wrong = {"verdict": "SIMinimal", "lam": [1.0, 1.0, 0.0], "residual": [0, 0, 0]}
    assert oracles.check_classify(power_job, wrong) is not None


def test_lambda_off_by_one_millionth_is_flagged():
    job = _first("eig1", "bessel", "doc")
    lam = oracles.eigen_lambda(job)
    assert oracles.check_classify(job, _bessel_result(job, lam * (1.0 + 1e-6))) is not None
    log_job = _first("eig2", "log")
    want = oracles.eigen_lambda(log_job) * (1.0 - 1e-6)
    off = {"verdict": "SIMinimal", "lam": [want, want, 0.0], "residual": [0, 0, 0]}
    assert oracles.check_classify(log_job, off) is not None


def _obj_text(job: dict, nu: int, nv: int) -> str:
    """An OBJ in the package's layout, built from the oracle's own surface."""
    us = np.linspace(job["u"][0], job["u"][1], nu)
    vs = np.linspace(job["v"][0], job["v"][1], nv)
    z = oracles.derivs(job["family"], job["params"], us)[0]
    lines = []
    for i, u in enumerate(us):
        for v in vs:
            x, y = u * np.sinh(v), u * np.cosh(v)
            if job["meridian"] != "timelike":
                x, y = y, x
            lines.append(f"v {x:.17g} {y:.17g} {z[i]:.17g}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a, b = i * nv + j + 1, (i + 1) * nv + j + 1
            lines.append(f"f {a} {b} {b + 1}")
            lines.append(f"f {a} {b + 1} {a + 1}")
    return "\n".join(lines) + "\n"


def test_truncated_obj_is_flagged():
    job = dict(_first("eig2", "log"), action="mesh", grid=[7, 6])
    text = _obj_text(job, 7, 6)
    assert oracles.check_surface_output(text, job) is None
    lines = text.splitlines(keepends=True)
    assert oracles.check_surface_output("".join(lines[:-3]), job) is not None
    assert oracles.check_surface_output("".join(lines[:20]), job) is not None


def test_shifted_vertex_is_flagged():
    job = dict(_first("eig2", "log"), action="mesh", grid=[7, 6])
    lines = _obj_text(job, 7, 6).splitlines()
    x, y, z = map(float, lines[9].split()[1:])
    lines[9] = f"v {x:.17g} {y:.17g} {z * (1 + 1e-6) + 1e-6:.17g}"
    assert oracles.check_surface_output("\n".join(lines) + "\n", job) is not None


def test_flux_disagreement_is_flagged():
    job = _first("flux1", "log")
    good = {"pairs": [[1.0, 1.0 + 1e-9], [0.0, 0.0]]}
    bad = {"pairs": [[1.0, 1.0 + 1e-4], [0.0, 0.0]]}
    assert oracles.check_classify(job, good) is None
    assert oracles.check_classify(job, bad) is not None
