"""Oracle, grid circulation checks, and exporters."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesphere import charts as CH
from liesphere import exprs as E
from liesphere import gridio as G
from liesphere import ribaucour as RB
from liesphere.charts import Domain
from reference import grid_exterior_derivative, parse_obj, ref_mesh, ref_obj_text


def test_oracle_constant_field_is_exact():
    orac = G.fd_jet_oracle(lambda p: 3.25, np.array([0.3, 0.4]), 1e-3)
    assert np.all(orac.grad == 0.0)
    assert np.all(orac.hess == 0.0)


def test_oracle_sine_derivatives():
    orac = G.fd_jet_oracle(lambda p: np.sin(p[0]), np.array([0.0, 0.0]), 1e-3)
    assert abs(orac.grad[0] - 1.0) < 1e-6
    assert abs(orac.hess[0]) < 1e-6


def test_oracle_convergence_order():
    pt = np.array([0.7, 0.2])
    exact = E.eval_at(E.parse_tau("exp(u)*cos(v)"), pt)
    orders = G.convergence_orders(lambda p: np.exp(p[0]) * np.cos(p[1]), exact, pt)
    for order in orders:
        assert 1.7 <= order <= 2.3


@pytest.mark.parametrize(
    "src", ["0", "2", "0.3*sin(u)", "0.1*cos(v)", "0.2*sin(u)+0.1*cos(v)"]
)
def test_oracle_agrees_on_shipped_fields(src):
    expr = E.parse_tau(src)
    pt = np.array([1.3, 2.1])
    exact = E.eval_at(expr, pt)
    orac = G.fd_jet_oracle(lambda p: float(E.eval_at(expr, p).value), pt, 1e-3)
    assert np.max(np.abs(orac.grad - exact.grad)) < 1e-6
    assert np.max(np.abs(orac.hess - exact.hess)) < 1e-5


def test_oracle_step_range_check():
    with pytest.raises(ValueError):
        G.fd_jet_oracle(lambda p: p[0], np.array([0.5, 0.5]), 1.0)


def test_grid_spacing_and_seams():
    dom = Domain()
    g = G.Grid(8, 8, dom)
    assert g.hu == pytest.approx(2 * np.pi / 8)
    assert g.us[0] == 0.0
    assert g.us[-1] < 2 * np.pi  # no duplicated seam
    dom2 = Domain((0, 1), (0, 1), (False, False))
    g2 = G.Grid(5, 5, dom2)
    assert g2.hu == pytest.approx(0.25)
    assert g2.us[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        G.Grid(3, 8, dom)


def test_a_grid_makes_its_points_a_slice_at_a_time():
    # bit for bit the meshed axes, flattened, and the one point of an index
    grid = G.Grid(13, 11, Domain((-3.0, 2.5), (0.1, 6.1), (True, False)))
    uu, vv = np.meshgrid(grid.us, grid.vs, indexing="ij")
    flat = np.stack([uu, vv], axis=-1).reshape(-1, 2)
    assert len(grid) == len(flat) and grid.points().tobytes() == flat.tobytes()
    for start in range(0, len(flat), 37):
        assert grid[start : start + 37].tobytes() == flat[start : start + 37].tobytes()
    assert grid[(100,)].tobytes() == flat[100].tobytes()
    wrapped = G.Wrapped(grid.domain, grid)
    assert wrapped[40:80].tobytes() == grid.domain.wrap(flat)[40:80].tobytes()


def test_exterior_derivative_of_exact_form_vanishes_at_second_order():
    def au(u, v):
        return 0.3 * np.exp(0.3 * u) * np.sin(v) + 2 * np.cos(2 * u) * np.cos(3 * v)

    def av(u, v):
        return np.exp(0.3 * u) * np.cos(v) - 3 * np.sin(2 * u) * np.sin(3 * v)

    dom = Domain((0.0, 2.0), (0.0, 2.0), (False, False))
    errs = []
    for n in (16, 32, 64):
        g = G.Grid(n, n, dom)
        p = g.points()
        fld = np.stack([au(p[..., 0], p[..., 1]), av(p[..., 0], p[..., 1])], axis=-1)
        _, meta = grid_exterior_derivative(g, fld)
        errs.append(meta["max_abs_density"])
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.0 < e0 / e1 < 5.0  # second-order refinement


def test_exterior_derivative_flags_non_closed_form(square_torus):
    # alpha of a non-Ribaucour representative stays > 1e-2 under refinement
    expr = E.parse_tau("sin(u)*sin(v)")
    prev = None
    for n in (32, 64):
        grid = G.Grid(n, n, square_torus.domain)
        pts = grid.points().reshape(-1, 2)
        frame = CH.eval_chart(square_torus, pts)
        tau = E.eval_at(expr, square_torus.domain.wrap(pts))
        res = RB.transform(frame, tau)
        comps = np.where(
            res.metric.singular[..., None], 0.0, res.alpha.value
        ).reshape(grid.shape + (2,))
        _, meta = grid_exterior_derivative(grid, comps)
        assert meta["max_abs_density"] > 1e-2
        prev = meta["max_abs_density"]
    assert prev > 1e-2


def test_exterior_derivative_of_area_form():
    dom = Domain((0, 1), (0, 1), (False, False))
    g = G.Grid(16, 16, dom)
    p = g.points()
    fld = np.stack([-p[..., 1] / 2.0, p[..., 0] / 2.0], axis=-1)
    dens, _ = grid_exterior_derivative(g, fld)
    assert np.nanmax(np.abs(dens[:15, :15] - 1.0)) < 1e-12


def test_obj_counts_and_roundtrip(tmp_path, square_torus):
    grid = G.Grid(8, 8, square_torus.domain)
    frame = CH.eval_chart(square_torus, grid.points().reshape(-1, 2))
    f4 = frame.f.value[:, :4]
    mesh = G.export_obj(tmp_path / "a.obj", f4, grid)
    text = (tmp_path / "a.obj").read_text(encoding="utf-8")
    verts, faces = parse_obj(text)
    assert mesh == G.MeshExport(vertices=64, faces=64, clipped=0, dropped=0)
    assert len(verts) == 64
    assert len(faces) == 64
    assert faces.shape[1] == 4
    np.testing.assert_array_equal(verts, G.stereographic(f4)[0])  # bit-identical round trip
    G.export_obj(tmp_path / "b.obj", f4, grid)
    assert (tmp_path / "b.obj").read_text(encoding="utf-8") == text  # deterministic


def test_nonperiodic_mesh_face_count(tmp_path):
    dom = Domain((0, 1), (0, 1), (False, False))
    grid = G.Grid(5, 7, dom)
    pts4 = np.zeros((35, 4))
    pts4[:, 0] = 1.0  # away from the pole
    mesh = G.export_obj(tmp_path / "m.obj", pts4, grid)
    verts, faces = parse_obj((tmp_path / "m.obj").read_text(encoding="utf-8"))
    assert mesh.vertices == len(verts) == 35
    assert mesh.faces == len(faces) == 4 * 6


def test_antipodal_projection_identity(square_torus, random_points):
    # the transform with tau = 0 maps f to -f; its stereographic image obeys
    # pi(-x) = -x_123 / (1 + x_4)
    frame = CH.eval_chart(square_torus, random_points)
    x = frame.f.value[:, :4]
    proj, _ = G.stereographic(-x)
    expected = -x[:, :3] / (1.0 + x[:, 3])[:, None]
    np.testing.assert_allclose(proj, expected, atol=1e-14)


def test_pole_clip_counts_and_drops_faces(tmp_path, capsys):
    dom = Domain((0, 1), (0, 1), (False, False))
    grid = G.Grid(4, 4, dom)
    pts4 = np.zeros((16, 4))
    pts4[:, 0] = 1.0
    pts4[5] = [0.0, 0.0, 0.0, 1.0]  # exactly the pole, at (1, 1)
    mesh = G.export_obj(tmp_path / "m.obj", pts4, grid)
    # the count is the report; the CLI prints it, the writer prints nothing
    assert capsys.readouterr().err == ""
    verts, faces = parse_obj((tmp_path / "m.obj").read_text(encoding="utf-8"))
    assert mesh.clipped == 1 and mesh.dropped == 0
    assert mesh.vertices == len(verts) == 15
    assert mesh.faces == len(faces) == 9 - 4  # four cells touch the clipped vertex
    assert faces.max() < 15


def test_pole_flip_switches_center():
    pts = np.array([[0.0, 0.0, 0.0, -1.0]])
    proj, near = G.stereographic(pts)
    np.testing.assert_allclose(proj, [[0.0, 0.0, 0.0]])
    _, near_flip = G.stereographic(pts, pole_flip=True)
    assert near_flip.all()


def test_csv_deterministic(tmp_path):
    grid = G.Grid(4, 4, Domain())
    cols = {"tau": np.arange(16.0), "a": np.linspace(0, 1, 16)}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    G.write_fields_csv(p1, grid, cols)
    G.write_fields_csv(p2, grid, cols)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "u,v,tau,a"


def test_canonical_json_deterministic(tmp_path):
    obj = {"b": 1.5, "a": [1, 2, {"z": True, "y": None}]}
    s1 = G.canonical_json(obj)
    s2 = G.canonical_json({"a": [1, 2, {"y": None, "z": True}], "b": 1.5})
    assert s1 == s2
    with pytest.raises(ValueError):
        G.canonical_json({"x": float("nan")})


# Special values the exporters must write exactly as f"{x:.17g}" does.
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, 1e300, -1.5, 0.1, 1 / 3]


def _special_values(rng, n):
    vals = rng.standard_normal(n)
    vals[rng.integers(0, n, size=n // 3)] = rng.choice(SPECIAL, size=n // 3)
    return vals


def test_obj_text_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(3)
    grid = G.Grid(100, 50, Domain())  # 5000 vertices and faces: more than one block
    pts4 = np.zeros((5000, 4))  # x4 = 0: the projection divides by exactly 1
    pts4[:, :3] = _special_values(rng, 3 * 5000).reshape(5000, 3)
    mesh = G.export_obj(tmp_path / "f.obj", pts4, grid)
    verts, faces, _, _ = ref_mesh(pts4, grid)
    np.testing.assert_array_equal(verts, pts4[:, :3])
    assert mesh.vertices == mesh.faces == 5000
    assert (tmp_path / "f.obj").read_text(encoding="utf-8") == ref_obj_text(verts, faces)


def test_export_obj_writes_obj_text(tmp_path, square_torus):
    grid = G.Grid(70, 66, square_torus.domain)  # 4620 vertices: two blocks
    f4 = CH.eval_chart(square_torus, grid.points().reshape(-1, 2)).f.value[:, :4]
    G.export_obj(tmp_path / "f.obj", f4, grid)
    text = ref_obj_text(*ref_mesh(f4, grid)[:2])
    assert (tmp_path / "f.obj").read_text(encoding="utf-8") == text
    clipped = G.export_obj(tmp_path / "none.obj", f4, grid, drop=np.ones(len(grid), bool))
    assert clipped == G.MeshExport(vertices=0, faces=0, clipped=0, dropped=len(grid))
    assert (tmp_path / "none.obj").read_text(encoding="utf-8") == "\n"


@pytest.mark.parametrize("periodic", [(True, True), (False, True), (False, False)])
def test_mesh_faces_match_the_cell_loop(tmp_path, periodic):
    grid = G.Grid(6, 5, Domain((0, 1), (0, 1), periodic))
    pts4 = np.zeros((30, 4))
    pts4[:, 0] = 1.0
    faces = []
    for i in range(6 if periodic[0] else 5):
        for j in range(5 if periodic[1] else 4):
            i1, j1 = (i + 1) % 6, (j + 1) % 5
            faces.append((i * 5 + j, i1 * 5 + j, i1 * 5 + j1, i * 5 + j1))
    G.export_obj(tmp_path / "m.obj", pts4, grid)
    np.testing.assert_array_equal(parse_obj((tmp_path / "m.obj").read_text())[1], faces)


@given(
    shape=st.tuples(st.integers(4, 9), st.integers(4, 9)),
    periodic=st.tuples(st.booleans(), st.booleans()),
    pole_flip=st.booleans(),
    poles=st.lists(st.tuples(st.integers(0, 80), st.sampled_from([1.0, -1.0])), max_size=6),
    drop_share=st.sampled_from([None, 0.0, 0.1, 0.5, 1.0]),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(deadline=None)  # examples: the tests/conftest.py profiles
def test_export_obj_matches_the_whole_grid_mesh(
    shape, periodic, pole_flip, poles, drop_share, rows, seed
):
    # passes of a few rows split the grid's rows of vertices and of cells; a
    # point exactly at either pole is clipped when it is the projection's
    grid = G.Grid(*shape, Domain((0, 1), (0, 1), periodic))
    rng = np.random.default_rng(seed)
    pts4 = rng.standard_normal((len(grid), 4))
    pts4 /= np.linalg.norm(pts4, axis=1, keepdims=True)
    for k, x4 in poles:
        pts4[k % len(grid)] = [0.0, 0.0, 0.0, x4]
    drop = None if drop_share is None else rng.random(len(grid)) < drop_share
    verts, faces, clipped, dropped = ref_mesh(pts4, grid, pole_flip=pole_flip, drop=drop)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(G, "_ROWS", rows)
        mesh = G.export_obj(Path(tmp) / "m.obj", pts4, grid, pole_flip=pole_flip, drop=drop)
        text = (Path(tmp) / "m.obj").read_text(encoding="utf-8")
    assert text == ref_obj_text(verts, faces)
    assert mesh == G.MeshExport(len(verts), len(faces), clipped, dropped)


def _export_obj_peak(tmp_path, n: int) -> int:
    """tracemalloc's peak of export_obj over what was held before the call, on
    the unit points of an n x n torus grid with 1% of them dropped."""
    grid = G.Grid(n, n, Domain())
    uv = grid[:]
    pts4 = np.cos(uv[:, [0, 0, 1, 1]] - [0.0, np.pi / 2, 0.0, np.pi / 2]) / np.sqrt(2.0)
    drop = np.random.default_rng(n).random(len(grid)) < 0.01
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        G.export_obj(tmp_path / f"m{n}.obj", pts4, grid, drop=drop)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_export_obj_memory_does_not_grow_with_the_grid(tmp_path):
    # the writer holds the (N,) masks and the running count of kept vertices,
    # no whole-grid projection, face or renumbering array
    small, large = (_export_obj_peak(tmp_path, n) for n in (128, 512))
    per_point = (large - small) / (512**2 - 128**2)
    assert per_point < 32, f"{per_point:.1f} B a grid point"


def test_csv_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(5)
    grid = G.Grid(80, 64, Domain())  # 5120 rows: more than one block
    cols = {"x": _special_values(rng, 5120), "y": _special_values(rng, 5120)}
    G.write_fields_csv(tmp_path / "f.csv", grid, cols)
    pts = grid.points().reshape(-1, 2)
    rows = ["u,v,x,y"] + [
        ",".join(f"{val:.17g}" for val in (*pts[k], cols["x"][k], cols["y"][k]))
        for k in range(5120)
    ]
    assert (tmp_path / "f.csv").read_text(encoding="utf-8") == "\n".join(rows) + "\n"


# Bit patterns a repeating column draws from: both zeros, NaNs of both signs
# and of different payloads, both infinities and subnormals.
_PATTERNS = [
    0x0000000000000000, 0x8000000000000000,  # 0.0, -0.0
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,  # quiet NaNs
    0x7FF0000000000001, 0xFFF4000000000000,  # signalling NaNs
    0x7FF0000000000000, 0xFFF0000000000000,  # inf, -inf
    0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x0000000000080000,  # subnormals
]
# Grids of _ROWS - 1, _ROWS, _ROWS + 1 and 2 _ROWS + 2 rows: the last pass is
# short, full, one row, or two rows.
_STRADDLE = [(5, 819), (4, 1024), (17, 241), (34, 241)]


def _repeating_column(kind, pool, n, rng):
    """``n`` bit patterns of ``kind``: drawn from ``pool``; in each pass of k
    rows, k // 2 distinct ones (``pool`` first, at least one) tiled over the
    pass and shuffled; or mostly distinct, with ``pool`` among them."""
    if kind == "few":
        return pool[rng.integers(len(pool), size=n)]
    passes = []
    for start in range(0, n, G._ROWS):
        k = min(G._ROWS, n - start)
        if kind == "half":
            fresh = rng.integers(2**64, size=k, dtype=np.uint64)
            distinct = list(dict.fromkeys([*pool.tolist(), *fresh.tolist()]))[: max(k // 2, 1)]
            passes.append(rng.permutation(np.resize(np.array(distinct, np.uint64), k)))
        else:
            col = rng.integers(2**64, size=k, dtype=np.uint64)
            col[rng.integers(k, size=len(pool))] = pool
            passes.append(col)
    return np.concatenate(passes)


def _assert_lines(path, lines):
    """``path`` holds ``lines``, each ended by a newline; a miss names its first line."""
    text = path.read_text(encoding="utf-8")
    got = text.split("\n")
    first = next((k for k, (a, b) in enumerate(zip(got, lines)) if a != b), None)
    assert first is None, (first, got[first], lines[first])
    assert text == "\n".join(lines) + "\n"


@given(
    shape=st.sampled_from(_STRADDLE),
    kinds=st.lists(st.sampled_from(["few", "half", "distinct"]), min_size=1, max_size=4),
    pool=st.lists(st.sampled_from(_PATTERNS) | st.integers(0, 2**64 - 1), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(deadline=None)  # examples: the tests/conftest.py profiles
def test_text_writers_match_per_value_formatting_on_repeating_columns(shape, kinds, pool, seed):
    # the writers format each distinct bit pattern of a pass once, where at
    # most half of the pass's values are distinct; the text is still f"{x:.17g}"
    # of every value, -0.0 apart from 0.0
    assert {nu * nv for nu, nv in _STRADDLE} == {G._ROWS - 1, G._ROWS, G._ROWS + 1, 2 * G._ROWS + 2}
    rng = np.random.default_rng(seed)
    grid = G.Grid(*shape, Domain())
    n, pool = len(grid), np.array(pool, np.uint64)
    cols = {f"c{j}": _repeating_column(kind, pool, n, rng).view(float) for j, kind in enumerate(kinds)}
    with tempfile.TemporaryDirectory() as tmp:
        G.write_fields_csv(Path(tmp) / "f.csv", grid, cols)
        pts = grid.points().reshape(-1, 2)
        rows = ["u,v," + ",".join(cols)] + [
            ",".join(f"{x:.17g}" for x in (*pts[k].tolist(), *(col[k] for col in cols.values())))
            for k in range(n)
        ]
        _assert_lines(Path(tmp) / "f.csv", rows)
        pts4 = np.zeros((n, 4))  # x4 = 0: the projection divides by exactly 1
        for j in range(3):
            pts4[:, j] = list(cols.values())[j % len(cols)]
        with np.errstate(invalid="ignore"):  # dividing quiets a signalling NaN, flagged invalid
            G.export_obj(Path(tmp) / "f.obj", pts4, grid)
            verts, faces, _, _ = ref_mesh(pts4, grid)
        _assert_lines(Path(tmp) / "f.obj", ref_obj_text(verts, faces).splitlines())
