"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a PASS line on success (visible with pytest -s); the
assertions pin the tolerances, grids and runtime budgets directly.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from topoindex import ktable, nctorus
from topoindex.berry import chern_number, delta_p3, occupied_frame
from topoindex.cli import run
from topoindex.errors import AdequacyError
from topoindex.linalg import pfaffian
from topoindex.model import MomentumGrid, builtin, ribbonize
from topoindex.spectral import edge_crossing_parity
from topoindex.windex import UnitaryField, boundary_index_2d, degree_one_field, winding3d
from topoindex.z2 import (
    kane_mele_nu,
    sewing_field,
    wannier_center_flow,
)

LSO = 0.06
SWEEP_LV = np.linspace(0.012, 0.612, 20)
TRANSITION = 3.0 * np.sqrt(3.0) * LSO


def report(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion:02d} PASS - {detail}")


@pytest.fixture(scope="module")
def km_sweep():
    """Shared Kane-Mele sweep data for criteria 4 and 5: per point the
    bulk gap, the Pfaffian invariant and the Wannier verdict."""
    grid = MomentumGrid((24, 24))
    gap_grid = MomentumGrid((48, 48))
    rows = []
    for lv in SWEEP_LV:
        model = builtin("kane-mele", t=1.0, lso=LSO, lv=float(lv))
        gap = model.min_gap(gap_grid)
        nu = kane_mele_nu(sewing_field(model, grid))
        verdict = wannier_center_flow(model, grid).verdict
        rows.append({"lv": float(lv), "gap": gap, "nu": nu, "wannier": verdict,
                     "model": model})
    return rows


def test_criterion_01_hopf_chern_number():
    start = time.time()
    frame = occupied_frame(builtin("hopf-two-band"), MomentumGrid((20, 20)))
    c1 = chern_number(frame)
    elapsed = time.time() - start
    assert c1 == 1
    assert elapsed < 1.0
    report(1, f"monopole projector c1 = {c1} on 20x20 in {elapsed:.2f}s")


def test_criterion_02_trs_chern_vanishing():
    start = time.time()
    grid = MomentumGrid((12, 12))
    checked = 0
    for lv in np.linspace(0.0, 0.48, 5):
        model = builtin("kane-mele", t=1.0, lso=LSO, lv=float(lv))
        assert chern_number(occupied_frame(model, grid)) == 0
        checked += 1
    for m in np.linspace(1.0, 3.0, 5):
        model = builtin("bhz", m=float(m))
        assert chern_number(occupied_frame(model, grid)) == 0
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(2, f"total occupied Chern = 0 at {checked} sweep points in {elapsed:.1f}s")


def test_criterion_03_kgroup_golden_table():
    start = time.time()
    Z, Z2 = ktable.Z, ktable.Z2
    golden = [
        (ktable.kq(0, "sphere", 2), Z + Z2, "KQ(S^{1,2})"),
        (ktable.kq(0, "torus", 2), Z + Z2, "KQ(T^2)"),
        (ktable.kq(0, "sphere", 3), Z + Z2, "KQ(S^{1,3})"),
        (ktable.kq(0, "torus", 3), Z + 4 * Z2, "KQ(T^3)"),
        (ktable.kq(-1, "sphere", 3), Z2, "KQ^{-1}(S^{1,3})"),
        (ktable.kq(-1, "torus", 3), 3 * Z + Z2, "KQ^{-1}(T^3)"),
        (ktable.kq(-1, "sphere", 1), Z, "KQ^{-1}(S^1)"),
        (ktable.reduced("torus", 4, 2), Z2, "reduced KQ(T^2)"),
    ]
    for got, want, label in golden:
        assert got == want, label
    ko_row = [ktable.ko_point(i) for i in range(8)]
    assert ko_row == [Z, Z2, Z2, ktable.ZERO, Z, ktable.ZERO, ktable.ZERO, ktable.ZERO]
    for i in range(8):
        assert ktable.kr_sphere(i, 1) == ktable.ko_point(i) + ktable.ko_point(i - 1)
    elapsed = time.time() - start
    assert elapsed < 0.1
    report(3, f"all ten printed K-group values reproduced in {elapsed * 1e3:.1f}ms")


def test_criterion_04_kane_mele_phase_diagram(km_sweep):
    start = time.time()
    nus = [row["nu"] for row in km_sweep]
    flips = [i for i in range(len(nus) - 1) if nus[i] != nus[i + 1]]
    assert len(flips) == 1, f"expected one flip, got {flips}"
    flip_at = flips[0]
    assert km_sweep[flip_at]["lv"] < TRANSITION < km_sweep[flip_at + 1]["lv"]
    gap_min = int(np.argmin([row["gap"] for row in km_sweep]))
    assert abs(gap_min - flip_at) <= 1 or abs(gap_min - (flip_at + 1)) <= 1
    for row in km_sweep:
        assert row["nu"] == row["wannier"], f"oracle mismatch at lv={row['lv']}"
    assert nus[0] == -1 and nus[-1] == 1
    elapsed = time.time() - start
    report(4, f"nu flips -1 -> +1 between lv={km_sweep[flip_at]['lv']:.3f} and "
              f"{km_sweep[flip_at + 1]['lv']:.3f} (transition {TRANSITION:.3f}); "
              f"gap minimum within one step; Wannier agrees at all 20 points")


def test_criterion_04_runtime_budget(km_sweep):
    start = time.time()
    grid = MomentumGrid((24, 24))
    model = builtin("kane-mele", t=1.0, lso=LSO, lv=0.1)
    kane_mele_nu(sewing_field(model, grid))
    wannier_center_flow(model, grid)
    per_point = time.time() - start
    assert per_point * len(SWEEP_LV) < 60.0
    report(4, f"sweep projected runtime {per_point * len(SWEEP_LV):.1f}s < 60s")


def test_criterion_05_mod2_index_theorem_2d(km_sweep):
    start = time.time()
    evaluated, skipped = 0, []
    for row in km_sweep:
        ribbon = ribbonize(row["model"], open_axis=0, width=24)
        try:
            parity = edge_crossing_parity(ribbon)
        except AdequacyError:
            skipped.append(row)
            continue
        assert (parity == 1) == (row["nu"] == -1), f"mismatch at lv={row['lv']}"
        evaluated += 1
    elapsed = time.time() - start
    assert evaluated >= 16
    for row in skipped:
        assert abs(row["lv"] - TRANSITION) < 0.1, \
            "only near-critical points may fail edge isolation"
    assert elapsed < 300.0
    report(5, f"edge parity = [nu = -1] at {evaluated}/20 gapped points "
              f"({len(skipped)} near-critical skipped) in {elapsed:.0f}s")


def test_criterion_06_mod2_index_theorem_3d():
    start = time.time()
    grid = MomentumGrid((24, 24, 24))
    for mass, expected_nu in ((-2.0, -1), (-4.0, 1)):
        model = builtin("fu-kane-mele-3d", m=mass)
        sewing = sewing_field(model, grid)
        result = winding3d(UnitaryField(grid, sewing.smooth_w), residue_tol=0.05)
        assert result.residue < 0.05
        nu = kane_mele_nu(sewing)
        assert nu == expected_nu
        assert (-1) ** result.rounded == nu
    elapsed = time.time() - start
    assert elapsed < 600.0
    report(6, f"(-1)^winding = nu for both fu-kane-mele-3d phases at 24^3, "
              f"residues < 0.05, in {elapsed:.0f}s")


def test_criterion_07_boundary_circle_index():
    start = time.time()
    grid = MomentumGrid((16, 16))
    cases = []
    for lv in (0.05, 0.2, 0.4, 0.55):
        cases.append(builtin("kane-mele", t=1.0, lso=LSO, lv=lv))
    for m in (0.5, 2.0, -1.0, -2.5):
        cases.append(builtin("bhz", m=m))
    cases.append(builtin("atomic-limit", n=4, dim=2))
    for model in cases:
        sf = sewing_field(model, grid)
        assert boundary_index_2d(sf) == kane_mele_nu(sf), model.name
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(7, f"boundary-circle product = nu on {len(cases)} 2D models "
              f"in {elapsed:.0f}s")


def test_criterion_08_pfaffian_property_suite():
    start = time.time()
    rng = np.random.default_rng(2024)
    dims = list(range(2, 13, 2))
    for trial in range(200):
        n = dims[trial % len(dims)]
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = m - m.T
        pf = pfaffian(a)
        det = np.linalg.det(a)
        assert abs(pf * pf - det) <= 1e-8 * max(abs(det), 1e-300)
    for trial in range(200):
        n = dims[trial % len(dims)]
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = m - m.T
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = pfaffian(b @ a @ b.T)
        rhs = np.linalg.det(b) * pfaffian(a)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-300)
    from test_linalg import pfaffian_cofactor, random_skew
    for n in (2, 4, 6, 8):
        for _ in range(10):
            a = random_skew(rng, n)
            want = pfaffian_cofactor(a)
            assert abs(pfaffian(a) - want) <= 1e-10 * abs(want)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(8, f"pf^2 = det and pf(BAB^T) = det(B) pf(A) over 200 instances each, "
              f"cofactor oracle matched for dims <= 8, in {elapsed:.1f}s")


def test_criterion_09_winding_quadrature_convergence():
    start = time.time()
    residues = {}
    for n in (8, 12, 16, 24, 32):
        res = winding3d(degree_one_field(MomentumGrid((n, n, n))), residue_tol=0.5)
        residues[n] = res.residue
        assert abs(res.rounded) == 1
    assert residues[24] < 0.05
    for n in (8, 12, 16):
        assert residues[2 * n] < residues[n]
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(9, "degree-one map residues "
              + ", ".join(f"N={n}: {residues[n]:.4f}" for n in sorted(residues))
              + f" in {elapsed:.0f}s")


def test_criterion_10_delta_p3_equals_winding():
    start = time.time()
    grid = MomentumGrid((24, 24, 24))
    frame = occupied_frame(builtin("atomic-limit", n=4, dim=3), grid)
    fld = degree_one_field(grid)
    winding = winding3d(fld).value
    delta = delta_p3(frame, fld.values)
    assert abs(delta - winding) < 1e-2
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(10, f"delta P3 = {delta:+.4f} vs winding {winding:+.4f} "
               f"(diff {abs(delta - winding):.1e} < 1e-2) in {elapsed:.0f}s")


def test_criterion_11_nc_torus_algebra():
    start = time.time()
    for theta in (Fraction(1, 3), Fraction(2, 5), Fraction(3, 8)):
        rep = nctorus.clock_shift(theta.numerator, theta.denominator)
        u_m, v_m = rep.clock, rep.shift
        assert np.linalg.norm(u_m @ v_m - rep.omega * v_m @ u_m) < 1e-12
        x, y = nctorus.fixed_point_generators(theta)
        assert nctorus.theta_action(x).distance(x) < 1e-12
        assert nctorus.theta_action(y).distance(y) < 1e-12
        assert x.adjoint().distance((-1.0) * y) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(11, f"UV = wVU, Theta(x) = x, Theta(y) = y, x* = -y at three "
               f"rational angles to 1e-12 in {elapsed:.2f}s")


def test_criterion_12_toeplitz_index_and_pairing():
    start = time.time()
    for winding in range(-3, 4):
        co = nctorus.winding_loop_coeffs(winding)
        assert nctorus.toeplitz_index(co, 256) == winding
        pr = nctorus.nc_index_pairing_1d(co, 256)
        assert pr.rounded == winding
        assert pr.residue < 1e-6
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(12, f"Toeplitz kernel count = winding for -3..+3 at N=256, pairing "
               f"residues < 1e-6, in {elapsed:.1f}s")


# raw traces recorded with the per-triangle reference summation
RAW_3D_TREND = {4: -7.639181978324269, 6: -7.730971026345477, 8: -7.761913653527545}


def test_criterion_13_nc_pairing_3d_trend():
    start = time.time()
    co = nctorus.lattice_degree_one_coeffs(-2.0)
    values = []
    for cutoff in (4, 6, 8):
        pr = nctorus.nc_index_pairing_3d(co, cutoff, residue_tol=0.25)
        assert abs(pr.raw.real - RAW_3D_TREND[cutoff]) < 1e-10
        values.append(abs(pr.calibrated))
    assert values[0] < values[1] < values[2] < 1.0 + 1e-9
    assert abs(values[-1] - 1.0) < 0.25
    elapsed = time.time() - start
    assert elapsed < 900.0
    report(13, "3D pairing |value| = "
               + ", ".join(f"{v:.4f}" for v in values)
               + f" monotone toward 1, final residue {abs(values[-1] - 1.0):.3f}"
               f" < 0.25, in {elapsed:.0f}s")


def test_criterion_14_audit_determinism():
    argv = ["audit", "--model", "kane-mele", "--grid", "12",
            "--sweep", "lv=0.1:0.4:2", "--width", "16"]
    code1, rep1 = run(argv)
    code2, rep2 = run(argv)
    assert code1 == code2 == 0
    body1 = rep1.to_json(include_timing=False)
    body2 = rep2.to_json(include_timing=False)
    assert body1 == body2
    report(14, "repeated audit reports byte-identical excluding timing")
