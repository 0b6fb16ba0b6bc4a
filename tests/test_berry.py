"""Chern numbers, curvature fields and the Chern-Simons polarization."""

import numpy as np
import pytest

from topoindex import berry
from topoindex.berry import (
    berry_curvature_field,
    chern_number,
    delta_p3,
    gapped_hamiltonians,
    occupied_frame,
    polarization_p3,
)
from topoindex.cli import run
from topoindex.errors import GapClosed, GridTooCoarse, InvalidParams, NonHermitian
from topoindex.linalg import eigh, hermitian_deviation
from topoindex.model import (
    GAP_TOL,
    SIGMA,
    BlochFamily,
    MomentumGrid,
    builtin,
    load_model,
    to_json,
)
from topoindex.windex import degree_one_field, winding3d


def circle_distance_mod1(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


@pytest.fixture(scope="module")
def hopf_frame():
    return occupied_frame(builtin("hopf-two-band"), MomentumGrid((20, 20)))


def test_occupied_frame_orthonormal():
    km = builtin("kane-mele", t=1.0, lso=0.06, lv=0.1)
    frame = occupied_frame(km, MomentumGrid((8, 8)))
    ov = np.einsum("...im,...ik->...mk", np.conj(frame.frames), frame.frames)
    assert np.max(np.abs(ov - np.eye(2))) < 1e-12


def test_occupied_frame_constant_for_atomic_limit():
    atom = builtin("atomic-limit", n=4, dim=2)
    frame = occupied_frame(atom, MomentumGrid((6, 6)))
    assert np.max(np.abs(frame.frames - frame.frames[0, 0])) < 1e-12


def test_occupied_frame_detects_gap_closing():
    bhz = builtin("bhz", m=0.0)  # gap closes at the zone center
    with pytest.raises(GapClosed):
        occupied_frame(bhz, MomentumGrid((8, 8)))


def test_hopf_chern_number_is_one(hopf_frame):
    assert chern_number(hopf_frame) == 1
    assert chern_number(hopf_frame, axes=(1, 0)) == -1   # reversed orientation


def test_hopf_curvature_sums_to_2pi(hopf_frame):
    field = berry_curvature_field(hopf_frame)
    assert float(np.sum(field.values)) == pytest.approx(2.0 * np.pi, abs=1e-9)
    assert field.chern() == 1


def test_chern_grid_refinement_stable():
    hopf = builtin("hopf-two-band")
    for n in (12, 24):
        assert chern_number(occupied_frame(hopf, MomentumGrid((n, n)))) == 1


def test_constant_frame_curvature_vanishes():
    atom = builtin("atomic-limit", n=4, dim=2)
    field = berry_curvature_field(occupied_frame(atom, MomentumGrid((6, 6))))
    assert np.max(np.abs(field.values)) < 1e-12
    assert chern_number(occupied_frame(atom, MomentumGrid((6, 6)))) == 0


def test_trs_models_have_zero_total_chern():
    grid = MomentumGrid((12, 12))
    for name, params in (("kane-mele", {"lv": 0.1, "lso": 0.06}),
                         ("bhz", {"m": 2.0})):
        model = builtin(name, **params)
        assert chern_number(occupied_frame(model, grid)) == 0


def test_chern_gauge_invariance_under_column_mixing():
    km = builtin("kane-mele", t=1.0, lso=0.06, lv=0.1)
    grid = MomentumGrid((10, 10))
    frame = occupied_frame(km, grid)
    rng = np.random.default_rng(4)
    dressed = frame.frames.copy()
    for idx in grid.indices():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(m)
        dressed[idx] = dressed[idx] @ q
    frame.frames = dressed
    assert chern_number(frame) == 0


def test_kane_mele_spin_blocks_have_opposite_curvature():
    # at lv = 0 the spin blocks decouple into Haldane partners
    from topoindex.model import BlochFamily

    km = builtin("kane-mele", t=1.0, lso=0.06, lv=0.0)
    grid = MomentumGrid((12, 12))

    def block(offset):
        def ev(k, _off=offset):
            return km.h(k)[..., _off:_off + 2, _off:_off + 2]
        return BlochFamily(dim=2, bands=2, occupied=1, evaluate=ev,
                           time_reversal=None, hopping_range=1,
                           name=f"km-spin-{offset}")

    up = berry_curvature_field(occupied_frame(block(0), grid))
    dn = berry_curvature_field(occupied_frame(block(2), grid))
    assert up.chern() == -dn.chern() != 0
    assert np.max(np.abs(up.values + dn.values)) < 1e-9


def test_chern_number_3d_slice():
    fkm = builtin("fu-kane-mele-3d", m=-2.0)
    frame = occupied_frame(fkm, MomentumGrid((8, 8, 8)))
    assert chern_number(frame, axes=(0, 1), slice_index=0) == 0


def test_curvature_export_formats(hopf_frame):
    field = berry_curvature_field(hopf_frame)
    csv = field.to_csv()
    assert csv.splitlines()[0] == "k1,k2,curvature"
    assert len(csv.splitlines()) == 1 + 20 * 20
    import json
    doc = json.loads(field.to_json())
    assert len(doc["curvature"]) == 20


def test_p3_atomic_limit_vanishes():
    atom = builtin("atomic-limit", n=4, dim=3)
    frame = occupied_frame(atom, MomentumGrid((8, 8, 8)))
    assert circle_distance_mod1(polarization_p3(frame), 0.0) < 1e-6


@pytest.mark.parametrize("mass,expected", [(-2.0, 0.5), (-4.0, 0.0)])
def test_p3_fu_kane_mele_phases(mass, expected):
    fkm = builtin("fu-kane-mele-3d", m=mass)
    frame = occupied_frame(fkm, MomentumGrid((24, 24, 24)))
    assert circle_distance_mod1(polarization_p3(frame), expected) < 1e-2


def test_p3_requires_3d():
    atom = builtin("atomic-limit", n=4, dim=2)
    frame = occupied_frame(atom, MomentumGrid((6, 6)))
    with pytest.raises(InvalidParams):
        polarization_p3(frame)


def test_delta_p3_identity_gauge_is_zero():
    atom = builtin("atomic-limit", n=4, dim=3)
    grid = MomentumGrid((8, 8, 8))
    frame = occupied_frame(atom, grid)
    gauge = np.broadcast_to(np.eye(2, dtype=complex), grid.sizes + (2, 2)).copy()
    assert delta_p3(frame, gauge) == pytest.approx(0.0, abs=1e-12)


def test_delta_p3_abelian_winding_gauge_is_zero():
    atom = builtin("atomic-limit", n=4, dim=3)
    grid = MomentumGrid((8, 8, 8))
    frame = occupied_frame(atom, grid)
    phase = np.exp(1j * grid.points()[..., 0])[..., None, None]
    gauge = phase * np.diag([1.0, 0.0]) + np.diag([0.0, 1.0])
    assert abs(delta_p3(frame, gauge)) < 1e-10


@pytest.mark.parametrize("shape", [(8, 8, 8, 3, 3), (8, 8, 2, 2), (8, 8, 6, 2, 2)])
def test_delta_p3_rejects_a_gauge_array_of_the_wrong_shape(shape):
    frame = occupied_frame(builtin("atomic-limit", n=4, dim=3), MomentumGrid((8, 8, 8)))
    gauge = np.broadcast_to(np.eye(shape[-1], dtype=complex), shape)
    with pytest.raises(InvalidParams, match="gauge array shape"):
        delta_p3(frame, gauge)


def test_delta_p3_degree_one_gauge_matches_winding():
    grid = MomentumGrid((16, 16, 16))
    atom = builtin("atomic-limit", n=4, dim=3)
    frame = occupied_frame(atom, grid)
    fld = degree_one_field(grid)
    got = delta_p3(frame, fld.values)
    want = winding3d(fld, residue_tol=0.5).value
    assert abs(got - want) < 2e-2
    assert abs(round(got)) == 1


def _first_failure_per_point(model, grid):
    """Reference per-point loop: the first momentum (C order) whose matrix
    is not Hermitian or whose min |E| is at most GAP_TOL."""
    for idx in grid.indices():
        k = grid.point(idx)
        h = model.h(k)
        dev = hermitian_deviation(h)
        if dev > 1e-9 * max(1.0, float(np.linalg.norm(h))):
            return "NonHermitian", k, dev
        gap = float(np.min(np.abs(np.linalg.eigvalsh(h))))
        if gap <= GAP_TOL:
            return "GapClosed", k, gap
    return None


def test_occupied_frame_gap_closing_at_first_k_in_c_order():
    fkm = builtin("fu-kane-mele-3d", m=-1.0)  # closes at (pi, 0, 0) and its images
    grid = MomentumGrid((8, 8, 8))
    kind, k, _ = _first_failure_per_point(fkm, grid)
    assert kind == "GapClosed"
    with pytest.raises(GapClosed) as info:
        occupied_frame(fkm, grid)
    assert np.array_equal(info.value.k, k)


def _perturbed(model, where):
    """The model plus an anti-Hermitian term on the momenta where ``where``
    holds."""
    from dataclasses import replace

    bump = np.zeros((model.bands, model.bands), dtype=complex)
    bump[0, 1] = 1e-3

    def ev(k):
        mask = np.asarray(where(k), dtype=float)[..., None, None]
        return model.evaluate(k) + mask * bump

    return replace(model, evaluate=ev)


def test_occupied_frame_non_hermitian_load_model_input():
    loaded = load_model(to_json(builtin("fu-kane-mele-3d", m=-2.0)))
    model = _perturbed(loaded, lambda k: k[..., 1] > 0.5)
    grid = MomentumGrid((6, 6, 6))
    kind, _, dev = _first_failure_per_point(model, grid)
    assert kind == "NonHermitian"
    with pytest.raises(NonHermitian) as info:
        occupied_frame(model, grid)
    assert info.value.deviation == pytest.approx(dev, rel=1e-12)


def test_occupied_frame_gap_closing_before_non_hermitian_in_one_slab():
    # one chunk holds the whole 8^3 grid: the gap closes at k = (pi, 0, 0),
    # flat index 36; the perturbation starts later in the same chunk
    fkm = builtin("fu-kane-mele-3d", m=-1.0)
    model = _perturbed(fkm, lambda k: k[..., 1] > 0.5)
    grid = MomentumGrid((8, 8, 8))
    kind, k, _ = _first_failure_per_point(model, grid)
    assert kind == "GapClosed"
    with pytest.raises(GapClosed) as info:
        occupied_frame(model, grid)
    assert np.array_equal(info.value.k, k)


def test_occupied_frame_1d_grid():
    chain = builtin("kitaev-chain")
    grid = MomentumGrid((10,))
    frame = occupied_frame(chain, grid)
    for idx in grid.indices():
        ref = eigh(chain.h(grid.point(idx))).vectors[:, :2]
        assert np.max(np.abs(frame.frames[idx] - ref)) < 1e-12


def _guard_case(case):
    fkm = builtin("fu-kane-mele-3d", m=-1.0)
    if case == "gap":
        return fkm, MomentumGrid((8, 8, 8))
    if case == "non-hermitian":
        loaded = load_model(to_json(builtin("fu-kane-mele-3d", m=-2.0)))
        return _perturbed(loaded, lambda k: k[..., 1] > 0.5), MomentumGrid((6, 6, 6))
    return _perturbed(fkm, lambda k: k[..., 1] > 0.5), MomentumGrid((8, 8, 8))


@pytest.mark.parametrize("case", ["gap", "non-hermitian", "gap-before-non-hermitian"])
def test_gapped_hamiltonians_fail_like_occupied_frame(case):
    model, grid = _guard_case(case)
    with pytest.raises((GapClosed, NonHermitian)) as ref:
        occupied_frame(model, grid)
    with pytest.raises(type(ref.value)) as got:
        gapped_hamiltonians(model, grid)
    if isinstance(ref.value, GapClosed):
        assert np.array_equal(got.value.k, ref.value.k)
    else:
        assert got.value.deviation == ref.value.deviation


def test_gapped_hamiltonians_are_the_grid_hamiltonians():
    fkm = builtin("fu-kane-mele-3d", m=-2.0)
    grid = MomentumGrid((6, 8, 10))
    assert np.array_equal(gapped_hamiltonians(fkm, grid), fkm.h(grid.points()))


# --- chunks: 16 momenta of four bands each, so an 8^3 grid takes 32 ---

@pytest.fixture
def small_chunks(monkeypatch):
    from topoindex import model as model_module

    monkeypatch.setattr(model_module, "GRID_CHUNK_ENTRIES", 16 * 4 ** 2)


def _chunk_case(case):
    if case == "gap-later-chunk":    # first closing at flat index 36, chunk 2
        return builtin("fu-kane-mele-3d", m=-1.0), MomentumGrid((8, 8, 8))
    if case == "non-hermitian-later-chunk":   # from flat index 144, chunk 9
        loaded = load_model(to_json(builtin("fu-kane-mele-3d", m=-2.0)))
        return _perturbed(loaded, lambda k: k[..., 0] > 0.5), MomentumGrid((6, 6, 6))
    # the gap closes at flat index 36 (chunk 2), the perturbation starts at 48 (chunk 3)
    return (_perturbed(builtin("fu-kane-mele-3d", m=-1.0), lambda k: k[..., 1] > 1.0),
            MomentumGrid((8, 8, 8)))


@pytest.mark.parametrize("solve", [occupied_frame, gapped_hamiltonians])
@pytest.mark.parametrize("case", ["gap-later-chunk", "non-hermitian-later-chunk",
                                  "gap-then-non-hermitian-in-the-next-chunk"])
def test_chunked_guards_name_the_first_failure_in_c_order(small_chunks, case, solve):
    model, grid = _chunk_case(case)
    kind, k, value = _first_failure_per_point(model, grid)
    assert kind == ("NonHermitian" if case == "non-hermitian-later-chunk" else "GapClosed")
    ks = grid.points().reshape(-1, 3)
    first = {"gap-later-chunk": 36, "non-hermitian-later-chunk": 144}.get(case, 36)
    assert np.flatnonzero(np.all(ks == k, axis=1))[0] == first
    if case == "gap-then-non-hermitian-in-the-next-chunk":
        assert np.flatnonzero(ks[:, 1] > 1.0)[0] == 48
    with pytest.raises((GapClosed, NonHermitian)) as info:
        solve(model, grid)
    assert type(info.value).__name__ == kind
    if kind == "GapClosed":
        assert np.array_equal(info.value.k, k)
    else:
        assert info.value.deviation == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("sizes", [(10,), (8, 6), (6, 8, 10)])
def test_chunked_fields_equal_one_whole_grid_solve(small_chunks, sizes):
    model = {1: builtin("kitaev-chain"), 2: builtin("kane-mele"),
             3: builtin("fu-kane-mele-3d", m=-2.0)}[len(sizes)]
    grid = MomentumGrid(sizes)
    h = model.h(grid.points())
    frames = occupied_frame(model, grid).frames
    assert frames.tobytes() == eigh(h).vectors[..., : model.occupied].tobytes()
    assert gapped_hamiltonians(model, grid).tobytes() == h.tobytes()


def _two_band(q, m):
    """d(k) . sigma with d = (sin q k1, sin q k2, m + cos q k1 + cos q k2)."""
    def ev(k):
        c = np.cos(q * k)[..., None, None]
        s = np.sin(q * k)[..., None, None]
        return s[..., 0, :, :] * SIGMA[1] + s[..., 1, :, :] * SIGMA[2] + (
            m + c[..., 0, :, :] + c[..., 1, :, :]) * SIGMA[3]
    return BlochFamily(dim=2, bands=2, occupied=1, evaluate=ev, hopping_range=q)


@pytest.mark.parametrize("m,n,detail", [(-1.0, 4, "link determinant"),
                                        (1.0, 6, "plaquette phase")])
def test_chern_number_on_too_coarse_grids(m, n, detail):
    frame = occupied_frame(_two_band(2, m), MomentumGrid((n, n)))
    with pytest.raises(GridTooCoarse, match=detail):
        chern_number(frame)


def test_chern_number_rejects_a_non_integer_plaquette_sum(monkeypatch, hopf_frame):
    monkeypatch.setattr(berry, "plaquette_field", lambda *args: np.full((20, 20), 0.01))
    for chern in (chern_number, lambda frame: berry_curvature_field(frame).chern()):
        with pytest.raises(GridTooCoarse, match="plaquette sum 0.636620 is not an integer"):
            chern(hopf_frame)
    code, report = run(["chern", "--model", "hopf-two-band", "--grid", "20"])
    assert code == 3
    assert report.invariants["error"]["message"] == (
        "momentum grid too coarse: plaquette sum 0.636620 is not an integer")


def test_p3_on_a_too_coarse_grid():
    frame = occupied_frame(builtin("fu-kane-mele-3d", m=-2.0), MomentumGrid((4, 4, 4)))
    with pytest.raises(GridTooCoarse, match="smooth gauge still varies by 1.73 per step"):
        polarization_p3(frame)


def test_delta_p3_rejects_a_gauge_that_flips_every_step():
    grid = MomentumGrid((6, 6, 6))
    frame = occupied_frame(builtin("fu-kane-mele-3d", m=-2.0), grid)
    signs = (-1.0) ** np.indices(grid.sizes).sum(axis=0)
    with pytest.raises(GridTooCoarse, match="gauge map varies by 2.83 per grid step"):
        delta_p3(frame, signs[..., None, None] * np.eye(2))
