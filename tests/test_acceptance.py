"""Acceptance suite: six go/no-go checks at fixed tolerances.

Each test prints one ``[acceptance N] name: PASS|FAIL`` line straight to
the terminal (bypassing capture) and then asserts, so a red run still
shows the verdict table.
"""

from __future__ import annotations

import itertools
import json
import time

import numpy as np

from migtensor import pipeline
from migtensor.analysis import gini
from migtensor.config import load_config
from migtensor.residence import MonthCalendar, detect_all, residence_matrix
from migtensor.solver import FitConfig, fit, load_model, save_model
from migtensor.synth import PlantedComponent, SynthSpec, write_synthetic
from migtensor.tensor import load_tensor, save_tensor

from conftest import Event, make_tensor, random_tensor, residence_rows, table_of


def report(capsys, number, name, failures):
    with capsys.disabled():
        verdict = "PASS" if not failures else "FAIL"
        print(f"[acceptance {number}] {name}: {verdict}")


def finish(capsys, number, name, failures, started, limit_s):
    elapsed = time.perf_counter() - started
    if elapsed > limit_s:
        failures.append(f"runtime {elapsed:.1f}s exceeds {limit_s}s")
    report(capsys, number, name, failures)
    assert not failures, failures


def all_pairs_gini(v):
    """O(M^2) double-loop definition, vectorized over the full pair grid."""
    total = float(np.sum(v))
    if total == 0:
        return 0.0
    diff_sum = float(np.abs(v[:, None] - v[None, :]).sum())
    return diff_sum / (2.0 * v.size * total)


def test_1_gini_oracle_equivalence(capsys):
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1001)
    for trial in range(1000):
        n = int(rng.integers(1, 201))
        v = rng.uniform(0.0, 10.0, n)
        v[rng.uniform(size=n) < 0.25] = 0.0
        if v.sum() == 0:
            v[int(rng.integers(0, n))] = rng.uniform(0.1, 5.0)
        got, want = gini(v), all_pairs_gini(v)
        if abs(got - want) > 1e-12:
            failures.append(f"trial {trial}: |{got} - {want}| > 1e-12")
            break
    for n in range(1, 201):
        c = float(rng.uniform(0.1, 100.0))
        if gini(np.full(n, c)) != 0.0:
            failures.append(f"uniform length {n} not exactly 0")
            break
        one_hot = np.zeros(n)
        one_hot[int(rng.integers(0, n))] = 1.0
        if gini(one_hot) != (n - 1) / n:
            failures.append(f"one-hot length {n} not exactly (n-1)/n")
            break
    finish(capsys, 1, "gini oracle equivalence", failures, started, 5.0)


def test_2_solver_monotonicity(capsys):
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2002)
    for trial in range(50):
        n = int(rng.integers(3, 11))
        dims = (n, n, int(rng.integers(3, 13)))
        tensor = random_tensor(rng, dims, int(rng.integers(5, 201)))
        rank = min(int(rng.integers(1, 5)), n, dims[2])
        cfg = FitConfig(rank=rank, max_iters=25, rel_tol=1e-300,
                        seed=trial, restarts=1,
                        prior_shape=1.0, prior_rate=0.0)
        _, trace = fit(tensor, cfg)
        worst = float(np.max(np.diff(trace.objectives), initial=0.0))
        if worst > 1e-9:
            failures.append(f"trial {trial}: objective rose by {worst:.3e}")
    finish(capsys, 2, "solver monotonicity", failures, started, 30.0)


def _cosine(a, b):
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b) / (na * nb)


def test_3_planted_factor_recovery(capsys):
    started = time.perf_counter()
    failures = []
    N, M, K = 20, 24, 3
    O = np.zeros((N, K))
    D = np.zeros((N, K))
    T = np.zeros((M, K))
    for k in range(K):
        O[2 * k:2 * k + 2, k] = 0.5
        D[10 + 2 * k:12 + 2 * k, k] = 0.5
        T[8 * k:8 * k + 8, k] = 1.0 / 8.0
    lam = 1920.0  # rate 60 per active cell, comfortably over the 50 floor

    rng = np.random.default_rng(3003)
    cells = {}
    for k in range(K):
        for i in np.flatnonzero(O[:, k]):
            for j in np.flatnonzero(D[:, k]):
                for t in np.flatnonzero(T[:, k]):
                    count = int(rng.poisson(lam * O[i, k] * D[j, k] * T[t, k]))
                    if count:
                        cells[(int(i), int(j), int(t))] = count
    tensor = make_tensor((N, N, M), cells)

    model, _ = fit(tensor, FitConfig(rank=K, restarts=10, seed=0))
    best = None
    for perm in itertools.permutations(range(K)):
        cosines = [
            [_cosine(planted[:, k], fitted[:, perm[k]]) for k in range(K)]
            for planted, fitted in ((O, model.O), (D, model.D), (T, model.T))
        ]
        score = float(np.sum(cosines))
        if best is None or score > best[0]:
            best = (score, cosines)
    for mode, row in zip(("O", "D", "T"), best[1]):
        for k, value in enumerate(row):
            if value < 0.9:
                failures.append(f"{mode} component {k}: cosine {value:.3f} < 0.9")
    finish(capsys, 3, "planted factor recovery", failures, started, 60.0)


SEASONAL_REGISTRY = ["GB", "KW", "FR", "ES", "US", "DE", "IT", "SA", "AE", "MX", "CA", "NL"]


def _seasonal_workspace(root, fit_overrides=None):
    (root / "registry.txt").write_text("\n".join(SEASONAL_REGISTRY) + "\n")
    spec = SynthSpec(
        users=500,
        components=(PlantedComponent("GB", "KW", (11, 23, 35), 50.0),),
        noise_rate=5.0,  # 10 percent of the planted intensity
        seed=0,
        epoch_year=2013, epoch_month=1, months=36,
    )
    from migtensor.ingestion import load_registry
    write_synthetic(spec, load_registry(root / "registry.txt"), root / "events.csv")
    config = {
        "epoch": {"year": 2013, "month": 1},
        "months": 36,
        "registry": "registry.txt",
        "input": "events.csv",
        "out_dir": "out",
        "window_k": 1,
        # the small rate prior keeps component mass off the masked diagonal,
        # where pure ML has a flat direction whenever a component's origin
        # and destination columns concentrate on the same country
        "fit": dict({"rank": 5, "seed": 0, "prior_rate": 0.1},
                    **(fit_overrides or {})),
    }
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def test_4_end_to_end_seasonal_pattern(capsys, tmp_path):
    started = time.perf_counter()
    failures = []
    config = load_config(_seasonal_workspace(tmp_path))
    pipeline.run_pipeline(config, echo=None)
    summary = json.loads((tmp_path / "out" / "reports" / "summary.json").read_text())
    top = summary["components"][0]
    profile = np.array(top["time_profile"])
    december = {11, 23, 35}
    largest = {int(i) for i in np.argsort(-profile)[:3]}
    if largest != december:
        failures.append(f"three largest months {sorted(largest)} != {sorted(december)}")
    if top["top_origins"][0][0] != "GB":
        failures.append(f"top origin {top['top_origins'][0][0]} != GB")
    if top["top_destinations"][0][0] != "KW":
        failures.append(f"top destination {top['top_destinations'][0][0]} != KW")
    finish(capsys, 4, "end-to-end seasonal pattern", failures, started, 120.0)


def test_5_window_semantics(capsys, registry):
    started = time.perf_counter()
    failures = []

    def check(label, ok):
        if not ok:
            failures.append(label)

    def detect(filled, k):
        """(month, origin, destination) of each detected move."""
        return [(m, o, d) for _, m, o, d in detect_all(residence_rows([filled], len(filled)), k).tolist()]

    cal = MonthCalendar(2014, 1, 5)

    def residence(events):
        return residence_matrix(table_of(events, registry), cal)[0].tolist()

    def ev(month, country, hours=0):
        from datetime import datetime, timedelta, timezone
        year, mo = cal.year_month(month)
        base = datetime(year, mo, 1, tzinfo=timezone.utc)
        return Event("u", base + timedelta(hours=hours), country=country)

    fr, es = registry.index["FR"], registry.index["ES"]

    filled = residence([ev(0, "FR", h) for h in range(3)] + [ev(0, "ES", 10 + h) for h in range(2)])
    check("majority month", filled[0] == fr)

    filled = residence([ev(0, "ES")] + [ev(1, "FR", h) for h in range(2)]
                       + [ev(1, "ES", 10 + h) for h in range(2)])
    check("tie breaks to previous month", filled[1] == es)

    filled = residence([ev(0, "FR"), ev(3, "ES")])
    check("forward fill", filled == [fr, fr, fr, es, es])

    moves = detect([fr, fr, es, es], 1)
    check("k=1 single change", moves == [(2, fr, es)])
    moves = detect([fr, fr, es, es], 2)
    check("k=2 single change", moves == [(2, fr, es)])
    check("k=2 alternating", detect([fr, es, fr, es], 2) == [])

    rng = np.random.default_rng(5005)
    M = 24
    for trial in range(200):
        filled = [int(c) for c in rng.integers(0, 3, size=M)]
        counts = [len(detect(filled, k)) for k in (1, 2, 3, 4, 5)]
        if any(a < b for a, b in zip(counts, counts[1:])):
            failures.append(f"monotonicity broken on trial {trial}: {counts}")
            break
    finish(capsys, 5, "window semantics", failures, started, 10.0)


def test_6_determinism_and_round_trips(capsys, tmp_path):
    started = time.perf_counter()
    failures = []
    config_path = _seasonal_workspace(tmp_path, fit_overrides={"restarts": 2, "max_iters": 120})
    config = load_config(config_path)

    def snapshot():
        out = tmp_path / "out"
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    pipeline.run_pipeline(config, echo=None)
    first = snapshot()
    pipeline.run_pipeline(config, echo=None)
    second = snapshot()
    if first != second:
        changed = [name for name in first if first.get(name) != second.get(name)]
        failures.append(f"reruns differ in {changed}")

    tensor = load_tensor(tmp_path / "out" / "tensor.txt")
    save_tensor(tensor, tmp_path / "tensor_copy.txt")
    if (tmp_path / "tensor_copy.txt").read_bytes() != (tmp_path / "out" / "tensor.txt").read_bytes():
        failures.append("tensor file round-trip not byte-exact")
    if load_tensor(tmp_path / "tensor_copy.txt") != tensor:
        failures.append("tensor round-trip changed contents")

    model = load_model(tmp_path / "out" / "model.txt")
    save_model(model, tmp_path / "model_copy.txt")
    if (tmp_path / "model_copy.txt").read_bytes() != (tmp_path / "out" / "model.txt").read_bytes():
        failures.append("model file round-trip not byte-exact")
    reloaded = load_model(tmp_path / "model_copy.txt")
    for name, a, b in (("O", model.O, reloaded.O), ("D", model.D, reloaded.D),
                       ("T", model.T, reloaded.T), ("weights", model.weights, reloaded.weights)):
        if not (a == b).all():
            failures.append(f"model round-trip changed {name}")
    finish(capsys, 6, "determinism and round-trips", failures, started, 120.0)
