"""CLI subcommands, exit codes, report determinism."""

import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from topoindex.cli import run
from topoindex.errors import InvalidParams


def invariants(argv):
    code, report = run(argv)
    return code, report.invariants


def test_chern_hopf():
    code, inv = invariants(["chern", "--model", "hopf-two-band", "--grid", "20"])
    assert code == 0
    assert inv["c1"] == 1
    assert inv["plaquette_sum_residue"] < 1e-6


def test_z2_kane_mele_topological():
    code, inv = invariants([
        "z2", "--model", "kane-mele", "--t", "1", "--lso", "0.06", "--lv", "0.1",
        "--grid", "12"])
    assert code == 0
    assert inv["nu"] == -1
    assert inv["wannier_verdict"] == -1
    assert inv["oracles_agree"]


def test_z2_3d_strong_phase():
    code, inv = invariants([
        "z2-3d", "--model", "fu-kane-mele-3d", "--m", "-2.0", "--grid", "8"])
    assert code == 0
    assert inv["nu0"] == -1


def test_cs_index_parity():
    code, inv = invariants([
        "cs-index", "--model", "fu-kane-mele-3d", "--m", "-2.0", "--grid", "24"])
    assert code == 0
    assert inv["parity_matches_nu"]
    assert inv["residue"] < 0.05


def test_cs_index_coarse_grid_exits_3():
    code, inv = invariants([
        "cs-index", "--model", "fu-kane-mele-3d", "--m", "-2.0", "--grid", "12"])
    assert code == 3
    assert inv["error"]["type"] == "ResidueTooLarge"


def test_boundary_index():
    code, inv = invariants([
        "boundary-index", "--model", "bhz", "--m", "2.0", "--grid", "12"])
    assert code == 0
    assert inv["boundary_index"] == -1


def test_edge_parity():
    code, inv = invariants([
        "edge-parity", "--model", "kane-mele", "--lso", "0.06", "--lv", "0.1"])
    assert code == 0
    assert inv["edge_parity"] == 1


def test_kgroup_pretty_format():
    code, inv = invariants([
        "kgroup", "--kq", "-1", "--space", "torus", "--dim", "3"])
    assert code == 0
    assert inv["pretty"] == "KQ^{-1}(T^3) = 3Z + Z2"
    assert inv["group"] == {"free": 3, "torsion2": 1}


def test_spectral_flow_from_config(tmp_path):
    samples = []
    for t in np.linspace(0.0, 1.0, 21):
        h = np.diag([t - 0.5, 2.0])
        samples.append([[[float(x.real), float(x.imag)] for x in row]
                        for row in h.astype(complex)])
    cfg = tmp_path / "path.json"
    cfg.write_text(json.dumps({"samples": samples, "level": 0.0}))
    code, inv = invariants(["spectral-flow", "--config", str(cfg)])
    assert code == 0
    assert inv["spectral_flow"] == 1


def test_nc_index_1d():
    code, inv = invariants(["nc-index", "--winding", "-2", "--cutoff", "64"])
    assert code == 0
    assert inv["toeplitz_index"] == -2
    assert inv["agree"]


def test_nc_index_1d_solves_only_block_sized_matrices(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    code, inv = invariants(["nc-index", "--winding", "3", "--cutoff", "512"])
    assert code == 0 and inv["toeplitz_index"] == 3 and inv["agree"]
    assert shapes == []  # scalar samples and 1x1 classes are closed-form


@pytest.mark.parametrize("cutoff", ["1025", "1000000"])
def test_nc_index_1d_cutoff_above_bound_exits_2(monkeypatch, cutoff):
    from topoindex import nctorus

    def never(*args, **kwargs):
        raise AssertionError("the rejected cutoff reached the pairing")

    monkeypatch.setattr(nctorus, "toeplitz_index", never)
    monkeypatch.setattr(nctorus, "nc_index_pairing_1d", never)
    code, inv = invariants(["nc-index", "--winding", "1", "--cutoff", cutoff])
    assert code == 2
    assert inv["error"]["type"] == "InvalidParams"
    assert "1024" in inv["error"]["message"]


def test_nc_index_1d_cutoff_at_bound():
    code, inv = invariants(["nc-index", "--winding", "-1", "--cutoff", "1024"])
    assert code == 0 and inv["toeplitz_index"] == -1 and inv["agree"]


@pytest.mark.parametrize("cutoff", ["9", "12", "0"])
def test_nc_index_3d_cutoff_out_of_range_exits_2(cutoff):
    code, inv = invariants(["nc-index", "--mass", "-2", "--cutoff", cutoff])
    assert code == 2
    assert inv["error"]["type"] == "InvalidParams"
    assert "8" in inv["error"]["message"]


def test_nc_index_3d_default_cutoff(monkeypatch):
    from topoindex import nctorus

    seen = []

    def fake(co, cutoff, residue_tol):
        seen.append(cutoff)
        return nctorus.PairingResult(raw=-8.0 + 0j, calibrated=1.0, rounded=1,
                                     residue=0.0, cutoff=cutoff)

    monkeypatch.setattr(nctorus, "nc_index_pairing_3d", fake)
    for argv, cutoff in ((["nc-index", "--mass", "-2"], 8),
                         (["nc-index", "--mass", "-2", "--cutoff", "3"], 3)):
        code, inv = invariants(argv)
        assert code == 0 and inv["pairing_3d"]["cutoff"] == cutoff
    assert seen == [8, 3]


def test_unknown_model_exits_2():
    code, inv = invariants(["z2", "--model", "not-a-model"])
    assert code == 2
    assert inv["error"]["type"] == "UnknownModel"


def test_bad_params_exit_2():
    code, inv = invariants(["z2", "--model", "kane-mele", "--params", "bogus"])
    assert code == 2


def test_adequacy_failure_exits_3():
    # a 3-winding loop at a cutoff below the required headroom is a user
    # error; an in-band ambiguous singular value is the adequacy case,
    # exercised via the gap-closed chern computation instead
    code, inv = invariants(["chern", "--model", "bhz", "--m", "0.0", "--grid", "8"])
    assert code == 3
    assert inv["error"]["type"] == "GapClosed"


def test_model_config_ingestion(tmp_path):
    from topoindex.model import builtin, to_json

    doc = to_json(builtin("kane-mele", t=1.0, lso=0.06, lv=0.1))
    cfg = tmp_path / "km.json"
    cfg.write_text(json.dumps(doc))
    code, inv = invariants(["z2", "--config", str(cfg), "--grid", "12"])
    assert code == 0
    assert inv["nu"] == -1


def test_report_is_canonical_and_deterministic():
    code1, rep1 = run(["z2", "--model", "kane-mele", "--grid", "8"])
    code2, rep2 = run(["z2", "--model", "kane-mele", "--grid", "8"])
    assert code1 == code2 == 0
    assert rep1.to_json(include_timing=False) == rep2.to_json(include_timing=False)
    doc = json.loads(rep1.to_json())
    assert doc["report_version"] == 1
    assert "wall_time_s" in doc


def test_audit_small_sweep_agrees():
    code, rep = run([
        "audit", "--model", "bhz", "--grid", "10", "--sweep", "m=1.5:2.5:2",
        "--width", "16"])
    assert code == 0
    assert rep.invariants["all_agree"]
    assert len(rep.invariants["points"]) == 2


def test_csv_output_payloads():
    from topoindex.cli import run as _run

    code, rep = _run(["chern", "--model", "hopf-two-band", "--grid", "8",
                      "--out", "csv"])
    assert code == 0
    assert rep.csv.splitlines()[0] == "k1,k2,curvature"
    code, rep = _run(["z2", "--model", "kane-mele", "--grid", "8", "--out", "csv"])
    assert code == 0
    assert rep.csv.splitlines()[0].startswith("k2,center0")


def test_readme_edge_parity_with_width():
    code, inv = invariants(["edge-parity", "--model", "kane-mele", "--lv", "0.1",
                            "--lso", "0.06", "--width", "24"])
    assert code == 0
    assert inv["ribbon_width"] == 24
    assert inv["edge_parity"] == 1


def test_edge_parity_at_kane_mele_dirac_point_exits_3():
    # lv = 3 sqrt(3) lso closes the gap at k_perp = 2 pi/3
    code, inv = invariants(["edge-parity", "--model", "kane-mele", "--lso", "0.06",
                            "--lv", repr(float(3.0 * np.sqrt(3.0) * 0.06)), "--width", "24"])
    assert code == 3
    assert inv["error"]["message"].endswith("bulk spectrum is gapless")


def test_z2_3d_without_time_reversal_exits_2(tmp_path):
    from topoindex.model import builtin, to_json

    doc = to_json(builtin("fu-kane-mele-3d", m=-2.0))
    doc["time_reversal"] = None
    cfg = tmp_path / "fkm-no-trs.json"
    cfg.write_text(json.dumps(doc))
    code, inv = invariants(["z2-3d", "--config", str(cfg), "--grid", "6"])
    assert code == 2
    assert inv["error"]["type"] == "InvalidParams"


def test_missing_config_exits_2(tmp_path):
    code, inv = invariants(["z2", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert inv["error"]["type"] == "SchemaError"


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"dim": 2, "bands": ')
    code, inv = invariants(["z2", "--config", str(cfg)])
    assert code == 2
    assert inv["error"]["type"] == "SchemaError"


def test_malformed_sweep_exits_2():
    code, inv = invariants(["audit", "--model", "bhz", "--grid", "8", "--sweep", "m=1:3"])
    assert code == 2
    assert inv["error"]["type"] == "InvalidParams"


@pytest.mark.parametrize("argv", [
    ["z2", "--model", "kane-mele", "--grid", "8"],
    ["cs-index", "--model", "fu-kane-mele-3d", "--m", "-2.0", "--grid", "24"],
    ["audit", "--model", "bhz", "--m", "2.0", "--grid", "10", "--width", "16"],
], ids=lambda argv: argv[0])
def test_command_builds_frames_once(monkeypatch, argv):
    from topoindex import berry, z2

    original = berry.occupied_frame
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(berry, "occupied_frame", counted)
    monkeypatch.setattr(z2, "occupied_frame", counted)
    code, _ = run(argv)
    assert code == 0
    assert len(calls) == 1


def test_cs_index_builds_one_sewing_field(monkeypatch):
    from topoindex import z2

    original = z2.sewing_field
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(z2, "sewing_field", counted)
    code, inv = invariants([
        "cs-index", "--model", "fu-kane-mele-3d", "--m", "-2.0", "--grid", "24"])
    assert code == 0 and inv["nu"] == -1 and inv["parity_matches_nu"]
    assert len(calls) == 1


def _readme_cli_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [line.split(None, 1)[1] for line in block.splitlines()
            if line.startswith("topoindex ")]


_AUDIT_SWEEP_MISREAD = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the Wannier-flow oracle misreads points "
                        "of the documented sweep, so the audit exits 3")


@pytest.mark.parametrize("line", [
    pytest.param(line, marks=_AUDIT_SWEEP_MISREAD)
    if line.startswith("audit") and "--sweep" in line else line
    for line in _readme_cli_examples()])
def test_readme_cli_example_exits_0(line):
    code, _ = run(shlex.split(line))
    assert code == 0


def test_readme_cli_examples_are_found():
    lines = _readme_cli_examples()
    assert len(lines) >= 10
    assert {line.split()[0] for line in lines} >= {"z2", "cs-index", "nc-index", "audit"}


@pytest.mark.parametrize("doc", [
    {"level": 0.0},
    {"samples": 3},
    {"samples": [[[1, 0]]]},
], ids=["no-samples", "samples-not-a-list", "malformed-matrix"])
def test_spectral_flow_bad_config_exits_2(tmp_path, doc):
    cfg = tmp_path / "path.json"
    cfg.write_text(json.dumps(doc))
    code, inv = invariants(["spectral-flow", "--config", str(cfg)])
    assert code == 2
    assert inv["error"]["type"] == "SchemaError"
    assert "$.samples" in inv["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["z2", "--model", "bhz", "--grid", "abc"],
    ["z2", "--model", "bhz", "--m", "abc"],
    ["z2", "--model", "bhz", "--params", "m=xyz"],
    ["edge-parity", "--model", "bhz", "--width", "abc"],
    ["edge-parity", "--model", "bhz", "--width", "nan"],
    ["z2", "--model", "bhz", "--params", "m=inf"],
], ids=["grid", "flag", "params", "width", "nan", "inf"])
def test_non_numeric_or_non_finite_values_exit_2(argv):
    code, inv = invariants(argv)
    assert code == 2
    assert inv["error"]["type"] == "InvalidParams"


def test_edge_parity_csv_rows(capsys):
    from topoindex.cli import main

    assert main(["edge-parity", "--model", "bhz", "--m", "2.0", "--width", "16",
                 "--out", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,energy,edge_weight"
    assert len(lines) == 1 + 81 * 16 * 4


def test_edge_parity_with_a_large_bhz_mass_is_trivial():
    code, inv = invariants(["edge-parity", "--model", "bhz", "--m", "1e6", "--width", "16"])
    assert code == 0
    assert inv["edge_parity"] == 0


def test_out_equals_csv_prints_the_csv(capsys):
    from topoindex.cli import main

    assert main(["chern", "--model", "hopf-two-band", "--grid", "8", "--out=csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k1,k2,curvature"
    assert len(lines) == 1 + 8 * 8


def test_reused_parser_keeps_no_params_between_runs(monkeypatch):
    from topoindex import cli

    argv = ["z2", "--model", "kane-mele", "--grid", "8"]
    code, with_params = run(argv + ["--params", "lv=0.5"])
    assert code == 0 and with_params.model["params"]["lv"] == 0.5
    code, reused = run(argv)
    assert code == 0
    monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
    code, fresh = run(argv)
    assert code == 0
    assert reused.to_json(include_timing=False) == fresh.to_json(include_timing=False)
    assert reused.model["params"]["lv"] == 0.1


@pytest.mark.parametrize("argv", [
    ["edge-parity", "--model", "kane-mele", "--width", "16"],
    ["z2", "--model", "kane-mele", "--grid", "8"],
    ["chern", "--model", "hopf-two-band", "--grid", "8"],
    ["z2", "--model", "kane-mele", "--grid", "8", "--out", "json"],
], ids=["edge-parity", "z2", "chern", "z2-out-json"])
def test_csv_is_built_only_for_out_csv(monkeypatch, argv):
    from topoindex import spectral

    calls = []
    monkeypatch.setattr(spectral, "ribbon_spectrum_csv", lambda *a, **k: calls.append(a))
    code, rep = run(argv)
    assert code == 0
    assert rep.csv is None
    assert calls == []


@pytest.mark.parametrize("command", ["edge-parity", "audit"])
@pytest.mark.parametrize("model,width", [
    (["--model", "bhz"], w) for w in ("16.9", "257", "1e9", "-3", "7")] + [
    (["--model", "atomic-limit", "--n", "64"], "17")])
def test_ribbon_width_outside_cap_or_non_integer_exits_2(monkeypatch, command, model, width):
    from topoindex import cli

    def never(*args, **kwargs):
        raise AssertionError("the rejected width reached the ribbon")

    monkeypatch.setattr(cli, "ribbonize", never)
    grid = ["--grid", "8"] if command == "audit" else []  # edge-parity reads no --grid
    code, inv = invariants([command] + model + grid + ["--width", width])
    assert code == 2
    assert inv["error"]["type"] == "InvalidParams"
    assert "--width" in inv["error"]["message"]


@pytest.mark.parametrize("model,width,expected", [
    (["--model", "bhz"], "256", 256), (["--model", "bhz"], "24.0", 24),
    (["--model", "atomic-limit", "--n", "64"], "16", 16)])
def test_ribbon_width_at_cap_or_integral_float_is_accepted(monkeypatch, model, width, expected):
    from topoindex import spectral

    monkeypatch.setattr(spectral, "edge_crossing_parity", lambda ribbon: 1)
    code, inv = invariants(["edge-parity"] + model + ["--width", width])
    assert code == 0 and inv["ribbon_width"] == expected


@pytest.mark.parametrize("command", ["edge-parity", "audit"])
def test_default_width_over_cap_names_the_default(monkeypatch, command):
    from topoindex import cli

    def never(*args, **kwargs):
        raise AssertionError("the rejected width reached the ribbon")

    monkeypatch.setattr(cli, "ribbonize", never)
    grid = ["--grid", "4"] if command == "audit" else []  # edge-parity reads no --grid
    code, inv = invariants([command, "--model", "atomic-limit", "--n", "64"] + grid)
    assert code == 2 and inv["error"]["type"] == "InvalidParams"
    assert "default --width 24 exceeds 16" in inv["error"]["message"]
    code, inv = invariants([command, "--model", "atomic-limit", "--n", "256", "--width", "8"]
                           + grid)
    assert code == 2 and "no ribbon width fits 256 bands" in inv["error"]["message"]


def test_wide_atomic_limit_runs_bulk_commands():
    code, inv = invariants(["chern", "--model", "atomic-limit", "--n", "128", "--grid", "4"])
    assert code == 0 and inv["c1"] == 0


@pytest.mark.parametrize("width", [[], ["--width", "100000"], ["--width", "16.9"]])
def test_audit_3d_builds_no_ribbon_and_ignores_width(monkeypatch, width):
    from topoindex import cli

    def never(*args, **kwargs):
        raise AssertionError("a 3D audit built a ribbon")

    monkeypatch.setattr(cli, "ribbonize", never)
    code, inv = invariants(["audit", "--model", "fu-kane-mele-3d", "--m", "-2.0",
                            "--grid", "20"] + width)
    assert code == 0 and inv["all_agree"] and inv["points"][0]["nu"] == -1


def test_audit_that_checked_no_point_exits_3():
    code, inv = invariants(["audit", "--model", "bhz", "--m", "1e-300", "--grid", "8",
                            "--width", "16"])
    assert code == 3 and inv["all_agree"] is False
    assert "skipped" in inv["points"][0]
    assert inv["error"] == {"type": "AdequacyError",
                            "message": "audit checked no point: all 1 sweep points were skipped"}


def test_audit_agreement_ignores_skipped_points():
    code, inv = invariants(["audit", "--model", "bhz", "--grid", "8", "--width", "16",
                            "--sweep", "m=-1e-300:2:2"])
    assert code == 0 and inv["all_agree"] is True
    assert "skipped" in inv["points"][0] and inv["points"][1]["agree"]


def _count_smooth_gauges(monkeypatch) -> list[str]:
    """Record every smooth_frames_2d/_3d call, at each module that binds them."""
    from topoindex import _gauge, berry, z2

    calls = []
    for name in ("smooth_frames_2d", "smooth_frames_3d"):
        original = getattr(_gauge, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (_gauge, berry, z2):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_audit_builds_one_smooth_gauge_per_2d_point(monkeypatch):
    calls = _count_smooth_gauges(monkeypatch)
    code, inv = invariants(["audit", "--model", "bhz", "--grid", "10", "--width", "16",
                            "--sweep", "m=1.5:2.5:2"])
    assert code == 0 and all(p["boundary_index"] == p["nu"] == -1 for p in inv["points"])
    assert calls == ["smooth_frames_2d"] * 2


@pytest.mark.parametrize("command", ["cs-index", "audit"])
def test_3d_commands_build_one_smooth_gauge(monkeypatch, command):
    # the winding and nu both read the one smooth cube; the only 2D gauge is
    # the base sheet that the cube gauge starts from
    calls = _count_smooth_gauges(monkeypatch)
    code, _ = invariants([command, "--model", "fu-kane-mele-3d", "--m", "-4.0", "--grid", "10"])
    assert code == 0
    assert sorted(calls) == ["smooth_frames_2d", "smooth_frames_3d"]


@pytest.mark.parametrize("argv,count", [
    (["z2-3d", "--model", "fu-kane-mele-3d", "--m", "-2.0", "--grid", "8"], 1),
    (["cs-index", "--model", "fu-kane-mele-3d", "--m", "-4.0", "--grid", "10"], 1)])
def test_sewing_matrices_are_built_once_per_frame_field(monkeypatch, argv, count):
    # the smooth gauge re-gauges w; it never rebuilds it from smooth frames.
    # z2-3d sews its four fixed-point sheets as one stack on a cubic grid
    from topoindex import z2

    calls, original = [], z2._sewing_matrices

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(z2, "_sewing_matrices", counted)
    code, _ = invariants(argv)
    assert code == 0 and len(calls) == count


@pytest.mark.parametrize("model,dim", [(["--model", "kitaev-chain"], 1),
                                       (["--model", "atomic-limit", "--dim", "1"], 1)])
def test_audit_rejects_a_1d_model(model, dim):
    code, inv = invariants(["audit"] + model + ["--grid", "16"])
    assert code == 2
    assert inv["error"] == {"type": "InvalidParams", "message": (
        f"audit cross-checks 2D and 3D models; {model[1]} is {dim}D")}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["z2", "-h"],
                                  ["audit", "--model", "bhz", "--grid", "x", "--help"]])
def test_help_returns_0_and_main_prints_the_usage(capsys, argv):
    from topoindex.cli import main

    code, report = run(argv)
    assert code == 0 and report.invariants == {}
    assert report.usage.startswith("usage: topoindex")
    assert main(argv) == 0
    assert capsys.readouterr().out == report.usage


def _fuzz_ribbon_commands():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    widths = st.one_of(
        st.integers(8, 24).map(str),
        st.integers(-20, 7).map(str),
        st.integers(257, 10**12).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["nan", "-inf", "1e400", "16.5", "abc", "8"]))
    models = st.sampled_from([
        ["--model", "bhz", "--m"], ["--model", "kane-mele", "--lv"],
        ["--model", "atomic-limit", "--n"]])
    values = st.one_of(st.floats(-12, 12).map(repr), st.sampled_from(["nan", "1e300", "x"]))

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(["edge-parity", "audit"]), models, values, widths)
    def check(command, model, value, width):
        argv = [command] + model + [value, "--width", width]
        if command == "audit":
            argv += ["--grid", "8"]
        code, _ = run(argv)
        assert code in (0, 2, 3)

    check()


def test_ribbon_commands_fuzz_exit_codes():
    _fuzz_ribbon_commands()


@pytest.mark.parametrize("argv", [
    ["nc-index", "--winding", "2.7", "--cutoff", "64"],
    ["nc-index", "--winding", "2", "--cutoff", "64.9"],
    ["nc-index", "--mass", "-2", "--cutoff", "2.5"],
    ["nc-index", "--winding", "20", "--cutoff", "64"],
    ["nc-index", "--winding", "1", "--cutoff", "1025"],
    ["nc-index", "--mass", "-2", "--cutoff", "9"],
], ids=["winding", "cutoff-1d", "cutoff-3d", "winding-beyond-cutoff", "cutoff-1d-cap",
        "cutoff-3d-cap"])
def test_nc_index_integer_flags_outside_their_range_exit_2(argv):
    code, inv = invariants(argv)
    assert code == 2 and inv["error"]["type"] == "InvalidParams"
    assert "must be an integer in" in inv["error"]["message"]


def test_nc_index_integral_float_flags_are_accepted():
    code, inv = invariants(["nc-index", "--winding", "-3.0", "--cutoff", "64.0"])
    assert code == 0 and inv["toeplitz_index"] == -3 and inv["pairing"]["cutoff"] == 64


def test_nc_index_mass_whose_inverse_symbol_vanishes_exits_2():
    code, inv = invariants(["nc-index", "--mass", "1e15", "--cutoff", "1"])
    assert code == 2 and inv["error"]["type"] == "InvalidParams"


@pytest.mark.parametrize("spec", [
    "lv=nan:1:2", "lv=inf:1:2", "lv=0:nan:2", "lv=0:1:0", "lv=0:1:1000000000000", "lv=0:1:2.5",
    "lv=0:1:257", "lv=-1e308:1e308:2", "lv=0:1"])
def test_bad_sweep_spec_exits_2_before_any_point(monkeypatch, spec):
    from topoindex import z2

    def never(*args, **kwargs):
        raise AssertionError("a rejected sweep reached a sweep point")

    monkeypatch.setattr(z2, "sewing_field", never)
    code, inv = invariants(["audit", "--model", "kane-mele", "--grid", "8", "--sweep", spec])
    assert code == 2 and inv["error"]["type"] == "InvalidParams"
    assert "--sweep" in inv["error"]["message"]


def test_sweep_count_cap_is_inclusive():
    from topoindex.cli import MAX_SWEEP_POINTS, _sweep_values

    assert MAX_SWEEP_POINTS == 256
    name, values = _sweep_values("lv=0:1:256.0")
    assert name == "lv" and len(values) == 256 and values[-1] == 1.0


def test_grid_over_the_entry_cap_exits_2():
    from topoindex.cli import _grid_from_arg
    from topoindex.model import MAX_GRID_ENTRIES

    assert MAX_GRID_ENTRIES == 2 ** 24
    assert _grid_from_arg("1024", 2, 4).sizes == (1024, 1024)  # 1024^2 * 4^2 = 2^24
    assert _grid_from_arg(None, 1, 1024).sizes == (12,)
    for arg, dim in (("1026", 2), ("1024,1026", 2), ("102", 3)):
        with pytest.raises(InvalidParams, match="above 16777216"):
            _grid_from_arg(arg, dim, 4)
    code, inv = invariants(["z2", "--model", "kane-mele", "--grid", "100000"])
    assert code == 2 and inv["error"]["type"] == "InvalidParams"
    assert "--grid 100000x100000" in inv["error"]["message"]


def _matrix_doc(rows):
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in rows]


@pytest.mark.parametrize("doc,error", [
    ({"samples": [_matrix_doc([[1, 0], [5, -1]]), _matrix_doc([[-1, 0], [5, -1]])]},
     "NonHermitian"),
    ({"samples": [_matrix_doc([[1, 0], [0, -1]]), _matrix_doc([[-1, 0], [0, -1]])],
      "level": float("nan")}, "SchemaError"),
    ({"samples": [_matrix_doc([[1, 0], [0, -1]]), _matrix_doc([[float("inf"), 0], [0, -1]])]},
     "SchemaError"),
    ({"samples": [_matrix_doc([[1]]), _matrix_doc([[1, 0], [0, -1]])]}, "SchemaError"),
], ids=["non-hermitian", "nan-level", "infinite-entry", "two-sizes"])
def test_spectral_flow_rejects_samples_it_cannot_count(tmp_path, doc, error):
    cfg = tmp_path / "path.json"
    cfg.write_text(json.dumps(doc))
    code, inv = invariants(["spectral-flow", "--config", str(cfg)])
    assert code == 2 and inv["error"]["type"] == error


def test_branch_unsafe_message_names_plain_grid_indices():
    code, inv = invariants(["cs-index", "--model", "fu-kane-mele-3d", "--grid", "4"])
    assert code == 3
    assert inv["error"] == {
        "type": "BranchUnsafe",
        "message": "unitary field varies too fast at (1, 2, 2) (axis 0, distance 1.97)"}


@pytest.mark.parametrize("mass", ["1e155", "1e200", "1e300", "-1e300", "1.7e308", "-1e308"])
def test_nc_index_huge_mass_exits_2_without_warnings(mass):
    # the singularity check and the closed-form inverse scale the symbol so
    # that no determinant overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, inv = invariants(["nc-index", "--mass", mass, "--cutoff", "2"])
    assert code == 2 and inv["error"] == {
        "type": "InvalidParams",
        "message": "symbol too large: no inverse coefficient is above 1e-12"}


def test_nc_index_near_singular_and_tiny_mass_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, inv = invariants(["nc-index", "--mass", "2.9999999", "--cutoff", "2"])
        assert code == 2 and inv["error"] == {
            "type": "InvalidParams",
            "message": "symbol is numerically singular (|det| = 1.00e-14)"}
        code, inv = invariants(["nc-index", "--mass", "1e-300", "--cutoff", "2"])
        assert code == 0 and inv["pairing_3d"]["rounded"] == -2


def _fuzz_nc_index_and_sweep():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def numbers(ints):
        return st.one_of(
            ints.map(str), st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.sampled_from(["nan", "-inf", "1e400", "2.5", "abc", "", "64.0"]))

    # the 3D pairing takes about a minute at its cap, cutoff 8, so only
    # cutoffs up to 2 are drawn among its valid ones
    cutoffs_3d = st.one_of(st.integers(-2, 2).map(str),
                           st.sampled_from(["1.0", "2.5", "9", "nan", "-inf", "1e400", "x"]))
    nc_index = st.one_of(
        st.tuples(st.just("--winding"), numbers(st.integers(-300, 300)),
                  numbers(st.integers(-8, 2048))),
        st.tuples(st.just("--mass"), numbers(st.integers(-5, 5)), cutoffs_3d))
    sweeps = st.one_of(
        st.builds("{}={}:{}:{}".format, st.sampled_from(["lv", "lso", "t", "bogus"]),
                  numbers(st.integers(-2, 2)), numbers(st.integers(-2, 2)),
                  numbers(st.integers(-2, 3))),
        st.text(max_size=12))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(nc_index)
    def check_nc_index(args):
        flag, value, cutoff = args
        code, _ = run(["nc-index", flag, value, "--cutoff", cutoff])
        assert code in (0, 2, 3)

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
    @hypothesis.given(sweeps)
    def check_sweep(spec):
        code, _ = run(["audit", "--model", "kane-mele", "--grid", "8", "--sweep", spec])
        assert code in (0, 2, 3)

    check_nc_index()
    check_sweep()


def test_nc_index_and_sweep_fuzz_exit_codes():
    _fuzz_nc_index_and_sweep()


def test_fuzz_strategies_raise_no_runtime_warning():
    # the same derandomized draws with every RuntimeWarning an error: an
    # overflow or invalid value inside the library fails the run
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _fuzz_ribbon_commands()
        _fuzz_nc_index_and_sweep()
        code, _ = run(["audit", "--model", "bhz", "--m", "1e300", "--grid", "8",
                       "--width", "16"])
    assert code in (0, 2, 3)


@pytest.mark.parametrize("argv", [
    ["kgroup", "--kq", "x"],
    ["kgroup", "--space", "klein"],
    ["z2", "--model", "kane-mele", "--out", "xml"],
    ["frobnicate", "--model", "kane-mele"],
    [],
], ids=["kgroup-int", "kgroup-space", "out-choice", "unknown-command", "no-command"])
def test_parser_errors_exit_2_with_a_report(argv):
    code, report = run(argv)
    assert code == 2 and report.command == argv
    assert report.invariants["error"]["type"] == "InvalidParams"
    assert json.loads(report.to_json())["invariants"] == report.invariants


@pytest.mark.parametrize("dim,code", [("-1", 2), ("0", 0), ("1024", 0), ("1025", 2),
                                      ("100000", 2)])
def test_kgroup_dim_range(dim, code):
    got, inv = invariants(["kgroup", "--kq", "-1", "--space", "torus", "--dim", dim])
    assert got == code
    if code == 2:
        assert inv["error"]["type"] == "InvalidParams"
        assert "--dim must be an integer in [0, 1024]" in inv["error"]["message"]


def test_z2_3d_solves_only_the_four_fixed_point_sheets(monkeypatch):
    from topoindex import berry, z2
    from topoindex.model import MomentumGrid, builtin

    built, solved, guarded = [], [], []

    def counted(fn, log, record):
        def wrapper(*args, **kwargs):
            log.append(record(*args))
            return fn(*args, **kwargs)
        return wrapper

    for module in (berry, z2):
        monkeypatch.setattr(module, "occupied_frame",
                            counted(berry.occupied_frame, built, lambda *a: "frame"))
    monkeypatch.setattr(z2, "sewing_field", counted(z2.sewing_field, built, lambda *a: "sewing"))
    monkeypatch.setattr(z2, "eigh", counted(z2.eigh, solved, lambda h: h.shape[:-2]))
    monkeypatch.setattr(berry, "eigvalsh", counted(berry.eigvalsh, guarded, lambda h: h.copy()))
    code, inv = invariants(["z2-3d", "--model", "fu-kane-mele-3d", "--m", "-2.0",
                            "--grid", "8,10,12"])
    assert code == 0 and inv["nu0"] == -1 and inv["weak"] == [1, 1, 1]
    assert built == []
    # one eigh per run of equal sheet shapes, in sheet order k3 = 0, k3 = pi,
    # k1 = pi, k2 = pi
    assert solved == [(2, 8, 10), (1, 10, 12), (1, 8, 12)]
    # the gap guard still sees every momentum of the cube once, in flat C-order chunks
    cube = builtin("fu-kane-mele-3d", m=-2.0).h(MomentumGrid((8, 10, 12)).points())
    assert all(h.ndim == 3 for h in guarded)
    assert np.array_equal(np.concatenate(guarded), cube.reshape(960, 4, 4))


def test_z2_solves_its_frames_in_one_eigh_per_chunk(monkeypatch):
    from topoindex import berry
    from topoindex.model import MomentumGrid, _grid_chunks, builtin

    shapes, original = [], berry.eigh

    def counted(h):
        shapes.append(h.shape[:-2])
        return original(h)

    monkeypatch.setattr(berry, "eigh", counted)
    code, inv = invariants(["z2", "--model", "kane-mele", "--grid", "24"])
    assert code == 0 and inv["nu"] == -1
    chunks = [(len(k),) for k in _grid_chunks(builtin("kane-mele"), MomentumGrid((24, 24)))]
    assert shapes == chunks and sum(n for n, in chunks) == 576 and len(chunks) < 24


def _gapless_off_the_sheets_doc():
    """A time-reversal invariant 4-band model, eps(k) (1 x tau_z) with
    eps = 1 - (sin k1 sin k2 sin k3)^2: gapped on every fixed-point sheet,
    gapless at k = (+-pi/2, +-pi/2, +-pi/2)."""
    from topoindex.model import SIGMA, BlochFamily, standard_theta, to_json

    gamma = np.kron(SIGMA[0], SIGMA[3])

    def ev(k):
        s = np.prod(np.sin(k), axis=-1)
        return (1.0 - s ** 2)[..., None, None] * gamma

    return to_json(BlochFamily(dim=3, bands=4, occupied=2, evaluate=ev,
                               time_reversal=standard_theta(4), hopping_range=2))


def test_z2_3d_guard_covers_momenta_off_the_sheets(tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(_gapless_off_the_sheets_doc()))
    code, inv = invariants(["z2-3d", "--config", str(cfg), "--grid", "8"])
    assert code == 3 and inv["error"]["type"] == "GapClosed"
    # the first gapless momentum in C order, grid index (2, 2, 2)
    assert "k=[-1.57079633 -1.57079633 -1.57079633]" in inv["error"]["message"]


def test_kgroup_spectral_flow_and_model_json_fuzz_exit_codes(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    text = st.text(alphabet="-.0123456789aehinx", max_size=5)
    floats = st.floats(allow_nan=True, allow_infinity=True)
    junk = st.one_of(st.none(), st.booleans(), floats, text, st.integers(-10 ** 9, 10 ** 9),
                     st.lists(st.integers(-2, 2), max_size=3), st.just({}))

    def matrix(size, values):
        row = st.lists(st.lists(values, min_size=2, max_size=2), min_size=size, max_size=size)
        return st.lists(row, min_size=size, max_size=size)

    def diagonal(size):
        return st.lists(st.floats(-3, 3), min_size=size, max_size=size).map(
            lambda d: [[[x if i == j else 0.0, 0.0] for j in range(len(d))]
                       for i, x in enumerate(d)])

    def mutated(valid, bad):
        """A valid document, or one with a single field replaced by a bad value."""
        return st.one_of(valid, st.sampled_from(sorted(bad)).flatmap(
            lambda key: st.builds(lambda doc, value: {**doc, key: value}, valid, bad[key])))

    # bad matrices: non-finite entries, integers beyond the float range, ragged rows
    bad_matrix = st.one_of(junk, matrix(2, st.one_of(floats, st.integers(-10 ** 400, 10 ** 400))),
                           st.lists(st.lists(st.lists(st.floats(-1, 1), max_size=3), max_size=3),
                                    max_size=3))

    # --space goes with --kq or --kr, and --dim with a torus or a sphere
    degree = st.tuples(st.sampled_from(["--kq", "--kr"]), st.integers(-20, 20).map(str))
    kgroup = st.one_of(
        st.tuples(degree, st.sampled_from(["torus", "sphere"]),
                  st.one_of(st.integers(-2, 1100).map(str), text)).map(
            lambda t: [*t[0], "--space", t[1], "--dim", t[2]]),
        degree.map(lambda t: [*t, "--space", "pt"]),
        st.tuples(st.just("--ko"), st.integers(-20, 20).map(str)).map(list),
        st.lists(st.one_of(
            st.sampled_from(["--kq", "--kr", "--ko", "--space", "--dim", "--out", "--grid"]),
            st.sampled_from(["torus", "sphere", "pt", "csv", "-1", "3", "100000", "2.5"]),
            st.integers(-10 ** 6, 10 ** 6).map(str), text), max_size=6))

    sizes = st.integers(1, 3)
    flow_docs = mutated(st.fixed_dictionaries(
        {"samples": sizes.flatmap(lambda n: st.lists(diagonal(n), min_size=1, max_size=4))},
        optional={"level": st.floats(-3, 3), "closed": st.booleans()}),
        {"samples": st.one_of(junk, st.lists(bad_matrix, min_size=1, max_size=2)),
         "level": junk, "closed": junk})

    def model_docs(dim, kramers):
        """Two bands, or four bands with Theta = i sigma_y (x) 1 when kramers."""
        bands = 4 if kramers else 2
        hopping = st.fixed_dictionaries({
            "R": st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
            "matrix": matrix(bands, st.floats(-1, 1))})
        onsite = diagonal(bands).map(lambda m: {"R": [0] * dim, "matrix": m})
        theta = np.kron([[0, 1], [-1, 0]], np.eye(bands // 2))
        bad_terms = st.lists(st.one_of(junk, st.fixed_dictionaries({
            "R": st.one_of(junk, st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=dim,
                                          max_size=dim)),
            "matrix": st.one_of(matrix(2, st.floats(-1, 1)), bad_matrix)})), min_size=1, max_size=2)
        return mutated(st.fixed_dictionaries({
            "dim": st.just(dim), "bands": st.just(bands), "occupied": st.just(bands // 2),
            "terms": st.lists(st.one_of(onsite, hopping), min_size=1, max_size=3),
            "time_reversal": st.just(_matrix_doc(theta) if kramers else None)}),
            {"dim": junk, "bands": st.one_of(junk, st.integers(-2, 10 ** 9)),
             "occupied": st.one_of(junk, st.integers(-1, 3)), "terms": st.one_of(junk, bad_terms),
             "time_reversal": bad_matrix, "name": junk})

    # (command, model dimension, Kramers pairs)
    commands = st.sampled_from([
        (["chern"], 2, False), (["z2"], 2, True), (["z2", "--lv", "0.1"], 2, True),
        (["z2-3d"], 3, True), (["edge-parity", "--width", "8"], 2, False),
        (["chern"], 1, False)])
    grids = {"edge-parity": []}  # edge-parity reads no --grid

    def check(argv):
        code, report = run(argv)
        assert code in (0, 2, 3), report.invariants

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(kgroup)
    def check_kgroup(args):
        check(["kgroup"] + args)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(st.one_of(flow_docs, junk))
    def check_spectral_flow(doc):
        cfg = tmp_path / "path.json"
        cfg.write_text(json.dumps(doc))
        check(["spectral-flow", "--config", str(cfg)])

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(commands.flatmap(lambda c: st.tuples(st.just(c[0]), model_docs(*c[1:]))))
    def check_model_json(case):
        command, doc = case
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(doc))
        check(command + ["--config", str(cfg)] + grids.get(command[0], ["--grid", "4"]))

    check_kgroup()
    check_spectral_flow()
    check_model_json()


@pytest.fixture
def km_json(tmp_path):
    from topoindex.model import builtin, to_json

    cfg = tmp_path / "km.json"
    cfg.write_text(json.dumps(to_json(builtin("kane-mele"))))
    return str(cfg)


@pytest.mark.parametrize("argv", [
    ["z2", "--model", "kane-mele", "--grid", "8", "--sweep", "lv=0:1:3"],
    ["chern", "--model", "hopf-two-band", "--grid", "8", "--sweep", "x=1:2:2"],
    ["edge-parity", "--model", "kane-mele", "--width", "16", "--grid", "8"],
    ["boundary-index", "--model", "bhz", "--grid", "8", "--out", "csv"],
    ["audit", "--model", "bhz", "--grid", "8", "--width", "16", "--out", "csv"],
    ["kgroup", "--space", "torus", "--dim", "2"],
    ["kgroup", "--ko", "1", "--space", "torus", "--dim", "3"],
    ["kgroup", "--kq", "1", "--kr", "2"],
    ["kgroup", "--kq", "1", "--space", "pt", "--dim", "5"],
    ["kgroup", "--kq", "-1", "--foo", "3"],
    ["nc-index", "--winding", "2", "--mass", "3"],
    ["nc-index", "--mass", "-2", "--cutoff", "2", "--foo", "1"],
    ["nc-index", "--winding", "1", "--model", "bhz"],
    ["z2", "--config", "KM", "--lv", "3"],
    ["audit", "--config", "KM", "--sweep", "lv=0.1:3:3"],
    ["z2", "--model", "bhz", "--config", "KM"],
    ["edge-parity", "--model", "kane-mele", "--params", "width=9"],
], ids=lambda argv: " ".join(argv))
def test_inputs_the_command_does_not_read_exit_2(km_json, argv):
    code, inv = invariants([km_json if a == "KM" else a for a in argv])
    assert code == 2 and inv["error"]["type"] == "InvalidParams"


@pytest.mark.parametrize("argv,code", [
    (["nc-index", "--mass", "-1e-3", "--cutoff", "2"], 0),
    (["z2", "--model", "bhz", "--m", "-1e-3", "--grid", "8"], 0),
    (["edge-parity", "--model", "bhz", "--width", "-1e1"], 2),
], ids=["nc-index-mass", "z2-bhz-m", "edge-parity-width"])
def test_negative_scientific_values_are_values(argv, code):
    got, inv = invariants(argv)
    assert got == code
    if code == 2:
        assert "--width must be an integer" in inv["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["edge-parity", "--model", "bhz", "--width=16"],
    ["z2", "--model", "bhz", "--m=1", "--grid", "8"],
    ["nc-index", "--winding=-1", "--cutoff=64"],
], ids=lambda argv: " ".join(argv))
def test_name_equals_value_options_read_like_spaced_ones(argv):
    spaced = [part for tok in argv for part in (tok.split("=", 1) if "=" in tok else [tok])]
    (code, report), (ref_code, ref) = run(argv), run(spaced)
    assert code == ref_code == 0
    report.command = ref.command
    assert report.to_json(include_timing=False) == ref.to_json(include_timing=False)


@pytest.mark.parametrize("argv,message", [
    (["edge-parity", "--model", "bhz", "--width="], "width must be a number"),
    (["z2", "--model", "bhz", "--q=1", "--grid", "8"], "z2 does not read --q"),
])
def test_name_equals_value_faults_exit_2(argv, message):
    code, inv = invariants(argv)
    assert code == 2 and inv["error"]["type"] == "InvalidParams"
    assert message in inv["error"]["message"]
