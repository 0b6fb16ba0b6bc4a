"""Spectral flow and edge-crossing parities."""

import tracemalloc
import warnings

import numpy as np
import pytest

from test_model import _rashba_kane_mele_doc
from topoindex import spectral
from topoindex.errors import EdgeBandIsolationFailed, EndpointGapless
from topoindex.model import RibbonFamily, builtin, direct_sum, load_model, ribbonize
from topoindex.spectral import (
    SpectralPath,
    _ribbon_bulk_gap,
    _ribbon_sectors,
    _sector_eigenpairs,
    _window_flags,
    edge_crossing_parity,
    ribbon_spectrum_csv,
    spectral_flow,
)


def sampled(fn, closed=False):
    """A path of fn(t) sampled at 17 evenly spaced t in [0, 1]."""
    return SpectralPath(samples=[np.asarray(fn(t), dtype=complex)
                                 for t in np.linspace(0.0, 1.0, 17)], closed=closed)


def test_flow_single_up_crossing():
    path = sampled(lambda t: np.diag([t - 0.5, 2.0]).astype(complex))
    assert spectral_flow(path) == 1


def test_flow_constant_gapped_path():
    path = sampled(lambda t: np.diag([0.4, -1.0]).astype(complex))
    assert spectral_flow(path) == 0


def test_flow_gapless_loop_rejected_then_shifted_is_zero():
    def gapless(t):
        return (np.cos(2 * np.pi * t) * np.array([[0, 1], [1, 0]])
                + np.sin(2 * np.pi * t) * np.array([[0, -1j], [1j, 0]])).astype(complex)

    with pytest.raises(EndpointGapless):
        spectral_flow(sampled(gapless, closed=True), level=1.0)

    def shifted(t):
        return gapless(t) + 3.0 * np.eye(2)

    assert spectral_flow(sampled(shifted, closed=True)) == 0


def test_flow_homotopy_invariance_under_small_perturbations():
    rng = np.random.default_rng(6)

    def base(t):
        return np.diag([t - 0.5, 1.5, -1.2]).astype(complex)

    gap = 0.5
    flow0 = spectral_flow(sampled(base))
    for _ in range(5):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        pert = (m + m.conj().T) / np.linalg.norm(m + m.conj().T) * (gap / 4 * 0.9)

        def perturbed(t, _p=pert):
            return base(t) + np.sin(np.pi * t) * _p

        assert spectral_flow(sampled(perturbed)) == flow0


def test_flow_concatenation_additivity():
    def h(t):
        return np.diag([2 * t - 0.5, 5.0]).astype(complex)  # crossing at t = 0.25

    p_full = sampled(h)
    p_a = sampled(lambda s: h(0.5 * s))
    p_b = sampled(lambda s: h(0.5 + 0.5 * s))
    assert spectral_flow(p_full) == spectral_flow(p_a) + spectral_flow(p_b) == 1


@pytest.mark.parametrize("params,expected", [
    ({"lso": 0.06, "lv": 0.1}, 1),
    ({"lso": 0.06, "lv": 0.4}, 0),
])
def test_kane_mele_edge_parity(params, expected):
    km = builtin("kane-mele", t=1.0, **params)
    assert edge_crossing_parity(ribbonize(km, 0, 24)) == expected


@pytest.mark.parametrize("mass,expected", [(2.0, 1), (-1.0, 0)])
def test_bhz_edge_parity(mass, expected):
    bhz = builtin("bhz", m=mass)
    assert edge_crossing_parity(ribbonize(bhz, 0, 24)) == expected


def test_atomic_edge_parity_zero():
    atom = builtin("atomic-limit", n=4, dim=2)
    assert edge_crossing_parity(ribbonize(atom, 0, 24)) == 0


def test_doubling_kills_edge_parity():
    km = builtin("kane-mele", t=1.0, lso=0.06, lv=0.1)
    doubled = direct_sum(km, km)
    assert edge_crossing_parity(ribbonize(doubled, 0, 24)) == 0


def test_ribbon_spectrum_csv_export():
    km = builtin("kane-mele", t=1.0, lso=0.06, lv=0.1)
    csv = ribbon_spectrum_csv(ribbonize(km, 0, 12), samples=11)
    lines = csv.splitlines()
    assert lines[0] == "k,energy,edge_weight"
    assert len(lines) == 1 + 11 * 48


def _staircase(dim: int, samples: int = 9) -> np.ndarray:
    """Ribbon momenta from 0 to (pi, .., pi), one axis at a time."""
    legs = []
    for axis in range(dim):
        leg = np.zeros((samples, dim))
        leg[:, :axis] = np.pi
        leg[:, axis] = np.linspace(0.0, np.pi, samples)
        legs.append(leg)
    return np.concatenate(legs)


SECTOR_CASES = [
    ("kane-mele", lambda: builtin("kane-mele", t=1.0, lso=0.06, lv=0.1), 2),
    ("bhz", lambda: builtin("bhz", m=2.0), 2),
    ("fkm-3d", lambda: builtin("fu-kane-mele-3d", m=-2.0), 1),
    ("spin-mixing-json", lambda: load_model(_rashba_kane_mele_doc()), 1),
    ("atomic", lambda: builtin("atomic-limit", n=4, dim=2), 4),
]


@pytest.mark.parametrize("make,count", [pytest.param(m, c, id=n) for n, m, c in SECTOR_CASES])
def test_ribbon_sector_count(make, count):
    ribbon = ribbonize(make(), 0, 12)
    sectors = _ribbon_sectors(ribbon.hoppings(_staircase(ribbon.dim)))
    assert len(sectors) == count
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(ribbon.bands))


@pytest.mark.parametrize("make", [pytest.param(m, id=n) for n, m, _ in SECTOR_CASES])
def test_sector_solve_matches_full_eigh(make):
    ribbon = ribbonize(make(), 0, 16)
    path = _staircase(ribbon.dim)
    window = 0.9 * _ribbon_bulk_gap(ribbon)
    screened = _sector_eigenpairs(ribbon, path, window)
    for k, (ev, vec), (ev_in, vec_in) in zip(path, _sector_eigenpairs(ribbon, path), screened):
        ev_ref, vec_ref = np.linalg.eigh(ribbon.evaluate(k))
        assert np.max(np.abs(ev - ev_ref)) < 1e-12
        assert np.allclose(np.conj(vec.T) @ vec, np.eye(len(ev)), atol=1e-12)
        keep = np.flatnonzero(np.abs(ev_ref) < window)
        # projector onto each cluster of in-window levels, split at gaps > 1e-6
        for cluster in np.split(keep, np.flatnonzero(np.diff(ev_ref[keep]) > 1e-6) + 1):
            if len(cluster) == 0:
                continue
            p = vec[:, cluster] @ np.conj(vec[:, cluster].T)
            p_ref = vec_ref[:, cluster] @ np.conj(vec_ref[:, cluster].T)
            assert np.max(np.abs(p - p_ref)) < 1e-10
        # the screened solve returns exactly the in-window part of the full one
        inside = np.abs(ev) < window
        assert np.array_equal(ev_in, ev[inside]) and np.array_equal(vec_in, vec[:, inside])


def _per_point_eigenpairs(ribbon, ks, window=np.inf):
    """Reference solver: one evaluate and one eigh per sector at each
    momentum, levels merged by a stable argsort, then cut to the window."""
    L, n = ribbon.transverse_sites, ribbon.bands
    sectors = [(n * np.arange(L)[:, None] + orbs).ravel()
               for orbs in _ribbon_sectors(ribbon.hoppings(ks))]
    for k in ks:
        h = ribbon.evaluate(k)
        ev = np.empty(h.shape[-1])
        vec = np.zeros_like(h)
        start = 0
        for rows in sectors:
            stop = start + len(rows)
            ev[start:stop], vec[rows, start:stop] = np.linalg.eigh(h[np.ix_(rows, rows)])
            start = stop
        order = np.argsort(ev, kind="stable")
        order = order[np.abs(ev[order]) < window]
        yield ev[order], vec[:, order]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EdgeBandIsolationFailed as exc:
        return type(exc).__name__


def _against_reference(monkeypatch, fn, *args, **kwargs):
    got = _outcome(fn, *args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(spectral, "_sector_eigenpairs", _per_point_eigenpairs)
        ref = _outcome(fn, *args, **kwargs)
    return got, ref


LV_C = 3 * np.sqrt(3) * 0.06


@pytest.mark.parametrize("name,params,width,expected", [
    ("kane-mele", {"lso": 0.06, "lv": 0.5 * LV_C}, 16, 1),
    ("kane-mele", {"lso": 0.06, "lv": 0.8 * LV_C}, 16, "EdgeBandIsolationFailed"),
    ("kane-mele", {"lso": 0.06, "lv": 0.3 * LV_C}, 25, 1),
    ("kane-mele", {"lso": 0.06, "lv": 2.0 * LV_C}, 25, 0),
    ("kane-mele", {"lso": 0.06, "lv": 0.1 * LV_C}, 32, 1),
    ("bhz", {"m": 0.1}, 16, "EdgeBandIsolationFailed"),
    ("bhz", {"m": 0.1}, 25, 1),
    ("bhz", {"m": 7.9556}, 25, "EdgeBandIsolationFailed"),
    ("bhz", {"m": 4.0}, 32, "EdgeBandIsolationFailed"),
    ("bhz", {"m": 10.0}, 25, 0),
    ("kane-mele", {"lso": 0.06, "lv": 0.1 * LV_C}, 8, 1),
    ("kane-mele", {"lso": 0.06, "lv": 0.5 * LV_C}, 8, "EdgeBandIsolationFailed"),
    ("kane-mele", {"lso": 0.06, "lv": 2.0 * LV_C}, 8, 0),
    ("kane-mele", {"lso": 0.08, "lv": 0.3 * LV_C}, 20, 1),
    ("kane-mele", {"lso": 0.06, "lv": 0.5 * LV_C}, 48, 1),
    ("bhz", {"m": 2.0}, 8, 1),
    ("bhz", {"m": -1.0}, 20, 0),
    ("bhz", {"m": 2.0}, 48, 1),
])
def test_edge_parity_matches_per_point_reference(monkeypatch, name, params, width, expected):
    ribbon = ribbonize(builtin(name, **params), 0, width)
    assert _against_reference(monkeypatch, edge_crossing_parity, ribbon) == (expected, expected)


def test_edge_parity_at_an_odd_width_matches_per_point_reference(monkeypatch):
    # 11 sites of one 4-orbital sector: the screen's window holds 8 rows
    ribbon = ribbonize(load_model(_rashba_kane_mele_doc()), 0, 11)
    assert _against_reference(monkeypatch, edge_crossing_parity, ribbon) == (1, 1)


@pytest.mark.parametrize("name,params,width,samples", [
    ("kane-mele", {"lso": 0.06, "lv": 0.1}, 12, 81),
    ("bhz", {"m": 2.0}, 17, 41),
    ("atomic-limit", {"n": 4, "dim": 2}, 8, 9),
])
def test_ribbon_csv_is_byte_identical_to_per_point_reference(monkeypatch, name, params,
                                                             width, samples):
    ribbon = ribbonize(builtin(name, **params), 0, width)
    got, ref = _against_reference(monkeypatch, ribbon_spectrum_csv, ribbon, samples)
    assert got == ref


def test_edge_parity_memory_does_not_grow_with_the_path():
    # one width-32 kane-mele matrix is 256 KB; the whole 161-point path
    # stacked at once would take about 84 MB
    ribbon = ribbonize(builtin("kane-mele", t=1.0, lso=0.06, lv=0.1), 0, 32)
    tracemalloc.start()
    try:
        assert edge_crossing_parity(ribbon) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _eigvalsh_flags(blocks, sites, window):
    """Reference screen: one dense eigvalsh per matrix of hopping blocks
    (..., 2R+1, m, m), flagging a level below window widened by 1e-6."""
    ribbon = RibbonFamily(sites, blocks.shape[-1], 1, None, blocks.shape[-3] // 2)
    levels = np.abs(np.linalg.eigvalsh(ribbon.assemble(blocks)))
    return np.any(levels < window * (1 + 1e-6), axis=-1)


def test_window_flags_include_every_eigvalsh_flag():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
                      st.integers(8, 19), st.integers(0, 2**32 - 1), st.booleans())
    def check(R, m, sectors, sites, seed, on_a_level):
        hypothesis.assume(R == 1 or sites % R)  # a partial last group of R sites
        rng = np.random.default_rng(seed)
        shape = (sectors, 4, R + 1, m, m)  # 4 momenta, offsets 0..R
        up = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        up *= rng.choice([0.0, 0.1, 1.0], size=(R + 1, 1, 1))  # some offsets vanish
        up[..., 0, :, :] += np.conj(np.swapaxes(up[..., 0, :, :], -1, -2))
        blocks = np.concatenate([np.conj(np.swapaxes(up[..., :0:-1, :, :], -1, -2)), up], axis=-3)
        levels = np.abs(np.linalg.eigvalsh(RibbonFamily(sites, m, 1, None, R).assemble(blocks)))
        # a window through a level of the first matrix (one not lost in its
        # rounding, 1e-6 of the largest), or below most levels
        through = levels[0, 0][levels[0, 0] > 1e-6 * levels.max()]
        window = rng.choice(through) if on_a_level and through.size else \
            float(np.quantile(levels, rng.uniform(0.0, 0.2)))
        flags = _window_flags(blocks, sites, window)
        assert flags.shape == (sectors, 4)
        assert np.all(flags | ~_eigvalsh_flags(blocks, sites, window))

    check()


def test_near_singular_pivot_is_flagged():
    # no level within 1 of zero, but the first pivot of H - lam is 1e-9
    window = 0.1
    on_site = np.array([[window * (1 + 1e-6) + 1e-9, 3.0], [3.0, -5.0]])
    hop = np.array([[0.1, 0.05j], [0.0, -0.1]])
    blocks = np.array([hop.conj().T, on_site, hop])[None]
    assert not _eigvalsh_flags(blocks, 12, window)[0]
    assert _window_flags(blocks, 12, window)[0]
    blocks[0, 1, 0, 0] += 1e-3  # the same ribbon with a sound pivot passes
    assert not _window_flags(blocks, 12, window)[0]


def test_overflowing_pivots_flag_every_momentum():
    blocks = np.zeros((5, 3, 1, 1), dtype=complex)
    blocks[:, 1] = np.linspace(-1e-300, 1e-300, 5)[:, None, None]
    blocks[:, 0] = blocks[:, 2] = 1e300  # the second pivot overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(_window_flags(blocks, 9, 0.1))


def test_huge_spin_orbit_ribbon_screen_warns_nothing_and_misses_nothing(monkeypatch):
    # lso = 1e300: its parity is not pinned here, only its agreement with eigh
    ribbon = ribbonize(builtin("kane-mele", lso=1e300), 0, 16)
    window = 0.9 * _ribbon_bulk_gap(ribbon)
    blocks = ribbon.hoppings(np.linspace(0.0, np.pi, 161)[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for orbs in _ribbon_sectors(blocks):
            sector = blocks[..., orbs[:, None], orbs]
            assert np.all(_window_flags(sector, 16, window) | ~_eigvalsh_flags(sector, 16, window))
        got, ref = _against_reference(monkeypatch, edge_crossing_parity, ribbon)
    assert got == ref


@pytest.mark.parametrize("make", [pytest.param(m, id=n) for n, m, _ in SECTOR_CASES])
def test_circulant_bulk_gap_matches_reperiodized_ribbon(make):
    ribbon = ribbonize(make(), 0, 10)
    gap = np.inf
    for k in np.append(np.linspace(0.0, np.pi, 32), [np.pi / 3, 2 * np.pi / 3]):
        kv = np.zeros(ribbon.dim)
        kv[0] = k
        gap = min(gap, np.min(np.abs(np.linalg.eigvalsh(ribbon.evaluate_periodic(kv)))))
    assert abs(_ribbon_bulk_gap(ribbon) - gap) < 1e-12


@pytest.mark.parametrize("model,width,reason", [
    (("kane-mele", {"lso": 0.06, "lv": 0.9 * 3 * np.sqrt(3) * 0.06}), 24, "ambiguous weight 0.57"),
    (("bhz", {"m": 0.1}), 16, "ambiguous weight 0.41"),
    (("bhz", {"m": 4.0}), 24, "bulk spectrum is gapless"),
    (("kane-mele", {"lso": 0.06, "lv": 1.0 * 3 * np.sqrt(3) * 0.06}), 24,
     "bulk spectrum is gapless"),
    (("kane-mele", {"lso": 0.06, "lv": 0.95 * 3 * np.sqrt(3) * 0.06}), 24,
     "below half the bulk correlation length"),
    (("kane-mele", {"lso": 0.06, "lv": 0.996 * 3 * np.sqrt(3) * 0.06}), 24,
     "below half the bulk correlation length"),
    (("kane-mele", {"lso": 0.06, "lv": 1.05 * 3 * np.sqrt(3) * 0.06}), 24,
     "below half the bulk correlation length"),
], ids=["kane-mele-0.9-critical", "bhz-m0.1", "bhz-m4-gapless", "kane-mele-critical-gapless",
        "kane-mele-0.95-narrow", "kane-mele-0.996-narrow", "kane-mele-1.05-narrow"])
def test_near_critical_edge_bands_refuse_to_isolate(model, width, reason):
    name, params = model
    with pytest.raises(EdgeBandIsolationFailed, match=reason):
        edge_crossing_parity(ribbonize(builtin(name, **params), 0, width))


@pytest.mark.parametrize("params,width,expected", [
    ({"lso": 0.06, "lv": 0.85 * 3 * np.sqrt(3) * 0.06}, 24, 1),
    pytest.param({"lso": 0.06, "lv": 1.09 * 3 * np.sqrt(3) * 0.06}, 24, 0,
                 id="kane-mele-1.09-resolved"),
])
def test_near_critical_kane_mele_edge_parity(params, width, expected):
    assert edge_crossing_parity(ribbonize(builtin("kane-mele", **params), 0, width)) == expected


def test_ribbon_csv_matches_dense_solve():
    km = builtin("kane-mele", t=1.0, lso=0.06, lv=0.1)
    ribbon = ribbonize(km, 0, 8)
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in ribbon_spectrum_csv(ribbon, samples=9).splitlines()[1:]])
    assert rows.shape == (9 * 32, 3)
    for i, k in enumerate(np.linspace(-np.pi, np.pi, 9)):
        block = rows[32 * i:32 * (i + 1)]
        ev, vec = np.linalg.eigh(ribbon.evaluate([k]))
        psi = np.abs(vec.reshape(8, 4, 32)) ** 2
        weight = psi[:2].sum(axis=(0, 1)) + psi[-2:].sum(axis=(0, 1))
        assert np.allclose(block[:, 0], k, atol=1e-10, rtol=0)
        assert np.allclose(block[:, 1], ev, atol=1e-10, rtol=0)
        # the split of a degenerate pair depends on the basis: compare cluster sums
        for cluster in np.split(np.arange(32), np.flatnonzero(np.diff(ev) > 1e-8) + 1):
            assert abs(block[cluster, 2].sum() - weight[cluster].sum()) < 1e-10
    # energies and cluster weights at k = 0, width 8, as recorded before the sector solve
    at_zero = rows[4 * 32 + 12:4 * 32 + 20]
    pinned = [(-1.3480440785, 0.655168914784), (-1.09967978678, 0.288725696911),
              (1.09967978678, 0.288725696911), (1.3480440785, 0.655168914784)]
    for pair, (energy, weight) in zip(at_zero.reshape(4, 2, 3), pinned):
        assert np.allclose(pair[:, 1], energy, atol=1e-10, rtol=0)
        assert abs(pair[:, 2].sum() - 2 * weight) < 1e-10



def _per_state_parity(ribbon, tables, gap):
    """Reference edge parity: states clustered by a while loop into
    (E, vector, weight) tuples and matched pair by pair with np.vdot."""
    L, n = ribbon.transverse_sites, ribbon.bands
    quarter = max(1, L // 4)
    states = []
    for ev, vec in tables:
        out, i = [], 0
        while i < len(ev):
            j = i
            while j + 1 < len(ev) and ev[j + 1] - ev[j] < 0.02 * gap:
                j += 1
            vs = vec[:, i:j + 1]
            if j > i:
                blocks = vs.reshape(L, n, j + 1 - i)[:quarter]
                vs = vs @ np.linalg.eigh(np.einsum("sna,snb->ab", np.conj(blocks), blocks))[1]
            for a in range(vs.shape[1]):
                weight = float(np.sum(np.abs(vs[:, a].reshape(L, n)[:quarter]) ** 2))
                out.append((float(np.mean(ev[i:j + 1])), vs[:, a], weight))
            i = j + 1
        states.append(out)
    levels, counts = (0.3 * gap, -0.3 * gap), [0, 0]
    for i in range(len(states) - 1):
        if not states[i + 1]:
            continue
        for e_a, v_a, w_a in states[i]:
            if any(abs(e_a - lvl) < 0.25 * gap for lvl in levels) and 0.4 < w_a <= 0.6:
                raise EdgeBandIsolationFailed(
                    f"state at E={e_a:.4f} has ambiguous weight {w_a:.2f}")
            if abs(e_a) > 0.6 * gap or w_a <= 0.6:
                continue
            overlaps = [abs(np.vdot(v_a, v_b)) for _, v_b, _ in states[i + 1]]
            j = int(np.argmax(overlaps))
            if overlaps[j] < 0.5:
                raise EdgeBandIsolationFailed(
                    f"edge band lost between path points {i} and {i + 1} "
                    f"(best overlap {overlaps[j]:.2f})")
            counts = [c + ((e_a - lvl) * (states[i + 1][j][0] - lvl) < 0.0)
                      for c, lvl in zip(counts, levels)]
    if counts[0] % 2 != counts[1] % 2:
        raise EdgeBandIsolationFailed(f"probe levels disagree on the crossing parity {counts}")
    return counts[0] % 2


def _synthetic_tables(rng, size):
    """In-window eigenpairs along a short path: drifting energies with
    near-degenerate pairs, slowly or suddenly rotating orthonormal columns
    leaning on the left quarter, and now and then an empty point."""
    m = int(rng.integers(0, 7))
    basis = rng.normal(size=(size, m)) + 1j * rng.normal(size=(size, m))
    basis[: size // 4] *= rng.choice([0.3, 1.7, 4.0, 8.0])
    energies = np.sort(rng.uniform(-0.89, 0.89, m))
    tables = []
    for _ in range(int(rng.integers(2, 12))):
        basis = basis + rng.choice([0.02, 0.1, 3.0]) * rng.normal(size=basis.shape)
        energies = np.clip(energies + rng.choice([0.02, 0.2]) * rng.normal(size=m), -0.89, 0.89)
        if m > 1 and rng.random() < 0.5:
            i = int(rng.integers(0, m - 1))
            energies[i + 1] = energies[i] + rng.uniform(0.0, 0.03)
        energies = np.sort(np.clip(energies, -0.89, 0.89))
        keep = slice(0, 0 if rng.random() < 0.1 else m)
        tables.append((energies[keep].copy(), np.linalg.qr(basis)[0][:, keep].copy()))
    return tables


def _outcome_text(fn, *args):
    try:
        return fn(*args)
    except EdgeBandIsolationFailed as exc:
        return str(exc)


def test_edge_state_tables_match_the_per_state_reference(monkeypatch):
    # unit gap, so the synthetic levels lie in the 0.9 window
    ribbon = ribbonize(builtin("bhz", m=2.0), 0, 8)
    monkeypatch.setattr(spectral, "_ribbon_bulk_gap", lambda ribbon: 1.0)
    rng = np.random.default_rng(11)
    kinds = set()
    for _ in range(300):
        tables = _synthetic_tables(rng, ribbon.transverse_sites * ribbon.bands)
        monkeypatch.setattr(spectral, "_sector_eigenpairs", lambda *args: iter(tables))
        got = _outcome_text(spectral._crossing_parity_on_path, ribbon, np.zeros((len(tables), 1)))
        assert got == _outcome_text(_per_state_parity, ribbon, tables, 1.0)
        kinds.add(got if isinstance(got, int) else
                  next(w for w in ("ambiguous", "lost", "disagree") if w in got))
    assert kinds == {0, 1, "ambiguous", "lost", "disagree"}
