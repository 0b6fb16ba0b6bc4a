"""Every request the benchmark sends parses: flags, options and model parameters."""

import importlib.util
import random
import sys
from pathlib import Path

from topoindex.cli import parse

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_every_benchmark_request_parses():
    argvs = []
    for workload in _workloads().values():
        argvs.append(workload.warmup)
        for seed in (1, 2, 9001):
            rng = random.Random(seed)
            argvs += [req.argv for index in range(6) for req in workload.make_round(rng, index)]
    assert len(argvs) == 687
    for argv in argvs:
        parse(argv)  # raises a ValidationError for an input the command does not read
