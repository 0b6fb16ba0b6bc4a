"""Benchmark of the topoindex CLI: seeded closed-loop workloads.

    python3 perfbench/run.py --workload sweep2d --seed 1 --seconds 36 --trace 0

The workloads, the metrics and how a run measures them are described in
``README.md`` next to this file.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402

SETUP_REPEATS = 11
MIN_BEYOND_TAIL = 10


def import_cli():
    """The checkout's own topoindex.cli; exits 1 when src/ is missing."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from topoindex import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import topoindex from {ROOT / 'src'}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: topoindex imported from {cli.__file__}, not from src/")
    return cli


class Client:
    """Sends requests one at a time and tallies outcomes."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.csv_built = 0
        self.csv_emitted = 0

    def send(self, req) -> None:
        start = perf_counter()
        try:
            code, report = self.cli.run(req.argv)
            if code == 0 and req.wants_csv and report.csv is not None:
                payload = report.csv
                self.csv_emitted += 1
            else:
                payload = report.to_json()
        except Exception as exc:  # a traceback is exit 1 at the CLI
            self.latencies.append(perf_counter() - start)
            self.attempted += 1
            self.failures.append({"argv": req.argv, "exit": 1, "error": type(exc).__name__})
            return
        self.latencies.append(perf_counter() - start)
        self.attempted += 1
        self.csv_built += report.csv is not None
        if code != 0:
            self.failures.append({"argv": req.argv, "exit": code,
                                  "error": report.invariants["error"]["type"]})
            return
        try:
            reason = req.check(payload)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed report: {exc!r}"
        if reason:
            self.failures.append({"argv": req.argv, "exit": 0, "error": "wrong", "detail": reason})

    def round(self, reqs) -> float:
        start = perf_counter()
        for req in reqs:
            self.send(req)
        return perf_counter() - start


def run_rounds(seconds: float, next_round, play) -> list[float]:
    """Plays rounds 0, 1, ... while the next one is expected to end within
    `seconds`."""
    start = perf_counter()
    times: list[float] = []
    while not times or perf_counter() - start + statistics.median(times) <= seconds:
        times.append(play(next_round(len(times))))
    return times


def tail(values: list[float], pct: float) -> tuple[float, float]:
    """Latency at the fixed tail percentile, lowered if fewer than ten
    requests would lie beyond it; returns (percentile, value)."""
    n = len(values)
    pct = min(pct, 100.0 * max(0, n - MIN_BEYOND_TAIL) / n)
    return pct, float(np.percentile(values, pct))


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed), "--setup-probe"],
                              cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe exited {proc.returncode}")
    return statistics.median(times)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = head.read_text().strip() if head.is_file() else None
    if commit and commit.startswith("ref: "):
        ref_file = ROOT / ".git" / commit[5:]
        commit = ref_file.read_text().strip() if ref_file.is_file() else None
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": commit, "src_lines": src_lines}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, cli, workload, rng) -> tuple:
    setup_s = measure_setup(args.workload, args.seed)
    Client(cli).send(_warmup(workload))
    client = Client(cli)
    rounds = run_rounds(args.seconds, lambda i: workload.make_round(rng, i), client.round)
    pct, tail_s = tail(client.latencies, workload.tail_pct)
    info = {"round_s": rounds, "tail_pct": pct}
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "run_s": metric(statistics.median(rounds), "s"),
        "latency_p50_s": metric(statistics.median(client.latencies), "s"),
        "latency_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return [client], info, metrics


def trace_rounds(cli, workload, rng, seconds: float):
    """Plays each round untraced, then traced; returns the tracer, both
    clients, the traced/untraced round-time ratios and the requests played."""
    tracer = Tracer()
    Client(cli).send(_warmup(workload))
    plain, observed = Client(cli), Client(cli)
    ratios, played = [], []

    def pair(reqs):
        played.extend(reqs)
        untraced_s = plain.round(reqs)
        tracer.install()
        try:
            start = perf_counter()
            for req in reqs:
                tracer.request_id = observed.attempted
                observed.send(req)
            traced_s = perf_counter() - start
        finally:
            tracer.uninstall()
        ratios.append(traced_s / untraced_s)
        return untraced_s + traced_s

    run_rounds(seconds, lambda i: workload.make_round(rng, i), pair)
    return tracer, plain, observed, ratios, played


def pairing_3d_peak_mb(cli, played) -> float:
    """Allocation peak of the first 3D pairing played, from an extra
    untimed request under tracemalloc, which slows it several times over."""
    argv = next((req.argv for req in played if "--mass" in req.argv), None)
    if argv is None:
        return 0.0
    tracemalloc.start()
    try:
        cli.run(argv)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


# Per-layer metrics: per-request means over the traced rounds unless the
# unit says otherwise.  The names follow the library's modules.
PER_LAYER = {
    "model.h.calls": "1/req", "model.h.s": "s/req", "model.check_trs.s": "s/req",
    "linalg.eigh.calls": "1/req", "linalg.eigh.s": "s/req",
    "berry.occupied_frame.calls": "1/req", "berry.occupied_frame.self_s": "s/req",
    "berry.occupied_frame.kpoints": "1/req", "berry.frames_per_request": "1/req",
    "gauge.smooth3d.self_s": "s/req", "gauge.transport.calls": "1/req",
    "windex.unitary_field.s": "s/req", "windex.winding3d.self_s": "s/req",
    "z2.strong_weak.self_s": "s/req",
    "gauge.smooth2d.calls": "1/req", "gauge.smooth2d.self_s": "s/req",
    "z2.sewing_field.self_s": "s/req", "z2.kane_mele_nu.self_s": "s/req",
    "z2.wannier.self_s": "s/req", "z2.boundary.self_s": "s/req",
    "linalg.pfaffian.calls": "1/req", "linalg.pfaffian.s": "s/req", "berry.curvature.s": "s/req",
    "spectral.edge_parity.self_s": "s/req", "spectral.ribbon_csv.self_s": "s/req",
    "model.ribbon_eval.calls": "1/req", "model.ribbon_eval.s": "s/req",
    "numpy.eigh.calls": "1/req", "numpy.eigh.s": "s/req", "numpy.eigh.n3": "1/req",
    "cli.run.self_s": "s/req", "cli.to_json.s": "s/req",
    "cli.csv.built": "1/req", "cli.csv.useful_ratio": "ratio",
    "fail.exit2": "ratio", "fail.exit3": "ratio", "fail.wrong": "ratio",
    "nctorus.pairing_3d.s": "s/req", "nctorus.pairing_3d.sites": "1/req",
    "nctorus.pairing_3d.peak_mb": "MB", "nctorus.pairing_1d.s": "s/req",
    "nctorus.toeplitz_index.s": "s/req",
    "trace.overhead_frac": "ratio",
}


def traced(args, cli, workload, rng) -> tuple:
    tracer, plain, observed, ratios, played = trace_rounds(cli, workload, rng, args.seconds)
    _write_spans(args, tracer)
    n = observed.attempted
    values = {}
    for name, st in tracer.stats.items():
        values[f"{name}.calls"] = st.calls / n
        values[f"{name}.s"] = st.total_s / n
        values[f"{name}.self_s"] = st.self_s / n
    occupied = tracer.stats["berry.occupied_frame"]
    framed = len({span[5] for span in tracer.spans if span[1] == "berry.occupied_frame"})
    values["berry.occupied_frame.kpoints"] = occupied.work / n
    values["berry.frames_per_request"] = occupied.calls / framed if framed else 0.0
    values["numpy.eigh.n3"] = tracer.stats["numpy.eigh"].work / n
    values["nctorus.pairing_3d.sites"] = tracer.stats["nctorus.pairing_3d"].work / n
    values["nctorus.pairing_3d.peak_mb"] = pairing_3d_peak_mb(cli, played)
    clients = [plain, observed]
    attempted = sum(d.attempted for d in clients)
    built = sum(d.csv_built for d in clients)
    values["cli.csv.built"] = built / attempted
    # nothing built means nothing wasted
    values["cli.csv.useful_ratio"] = sum(d.csv_emitted for d in clients) / built if built else 1.0
    failures = [f for d in clients for f in d.failures]
    for kind, code in (("exit2", 2), ("exit3", 3), ("wrong", 0)):
        values[f"fail.{kind}"] = sum(f["exit"] == code for f in failures) / attempted
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    info = {"rounds": len(ratios), "traced_requests": n}
    return clients, info, {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def _warmup(workload) -> Request:
    return Request(workload.warmup, lambda payload: None)


def _write_spans(args, tracer: Tracer) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-{args.seed}.jsonl"
    with path.open("w") as fh:
        for span_id, name, start, end, parent, rid in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                 "parent": parent, "request": rid}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import, generate inputs and serve one warm-up request, then exit")
    args = parser.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    if args.setup_probe:
        workload.make_round(rng, 0)
        Client(cli).send(_warmup(workload))
        return 0

    run = traced if args.trace else end_to_end
    clients, info, metrics = run(args, cli, workload, rng)
    failures = [f for d in clients for f in d.failures]
    attempted = sum(d.attempted for d in clients)
    info.update(requests=attempted, failures=failures, environment=environment())
    print("# perfbench " + json.dumps(info, sort_keys=True))
    # Every drawn request succeeds at the baseline, so any failure,
    # exit 2 and 3 included, is a regression.
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
