"""Structured experiment reports and their JSON serialization.

Reports are plain dataclasses; emit_report writes stable-key-ordered JSON
so reruns with identical arguments produce byte-identical files (modulo
the timestamp, which --deterministic suppresses).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

VERSION = "0.1.0"


def wilson_ci_95(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95% confidence."""
    if trials <= 0:
        return (0.0, 1.0)
    z = 1.959963984540054
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def newcombe_diff_ci_95(
    successes_a: int, trials_a: int, successes_b: int, trials_b: int
) -> tuple[float, float]:
    """Newcombe score interval for the difference p_a - p_b."""
    la, ua = wilson_ci_95(successes_a, trials_a)
    lb, ub = wilson_ci_95(successes_b, trials_b)
    pa = successes_a / trials_a if trials_a else 0.0
    pb = successes_b / trials_b if trials_b else 0.0
    lo = (pa - pb) - math.sqrt((pa - la) ** 2 + (ub - pb) ** 2)
    hi = (pa - pb) + math.sqrt((ua - pa) ** 2 + (pb - lb) ** 2)
    return (lo, hi)


@dataclass
class JlpReport:
    kind: str
    n: int
    r: int
    epsilon: float
    trials: int
    family: str
    failure_count: int
    failure_rate: float
    wilson_ci_95: tuple[float, float]
    distortion_quantiles: dict
    seed: int


@dataclass
class TailCurve:
    name: str
    thresholds: list
    empirical_exceedance: list
    bound_values: list
    trials: int
    seed: int
    meta: dict = field(default_factory=dict)


@dataclass
class RipReport:
    kind: str
    n: int
    r: int
    k: int
    delta_k: float
    worst_support: list
    seeds_evaluated: int
    delta_quantiles: dict
    seed: int


@dataclass
class AttackReport:
    target_kind: str
    pair_name: str
    n: int
    trials: int
    distinguisher_name: str
    successes_on_A: int
    successes_on_Atilde: int
    fired_tilde_on_A: int
    fired_tilde_on_Atilde: int
    advantage: float
    wilson_ci: tuple[float, float]
    predicted_rate: float | None
    abstain_rate_A: float
    abstain_rate_Atilde: float
    seed: int


@dataclass
class CutReport:
    vertex_set: list
    estimate: float
    exact: float
    w: float
    seed: int


@dataclass
class BenchReport:
    kind: str
    sizes: list
    median_ns: list
    doubling_ratios: list
    reps: int
    warmups: int
    seed: int


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def report_to_dict(report, seed=None, argv=None, deterministic: bool = False) -> dict:
    body = _jsonable(report)
    envelope = {
        "version": VERSION,
        "seed": seed if seed is not None else body.get("seed"),
        "argv": list(argv) if argv is not None else None,
        "report_type": type(report).__name__,
        "report": body,
    }
    if not deterministic:
        envelope["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return envelope


def emit_report(report, path, seed=None, argv=None, deterministic: bool = False) -> None:
    """Write a report as stable-key-ordered JSON to path, or to stdout when
    path is None."""
    payload = report_to_dict(report, seed=seed, argv=argv, deterministic=deterministic)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
        return
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
