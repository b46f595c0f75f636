"""Cap reflection, the T5 superlevel point sets and the level-set figure,
computed with whole-array clipping, equal exactly what the per-triangle
loops they replace computed."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_lab import overdet, svgfig
from extremal_lab.errors import NonTransversal
from extremal_lab.geom2d import (
    Annulus,
    Disk,
    Ellipse,
    Line,
    PeriodicStrip,
    Polygon,
    build_domain,
    cap_reflect,
)
from extremal_lab.geom2d.domain import _points_in_loops
from extremal_lab.geom2d.predicates import (
    CapComponent,
    CapReport,
    _positive_part,
    superlevel_triangle_components,
)

L_SHAPE = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
SPECS = {
    "disk": (Disk(1.0), 0.1),
    "ellipse": (Ellipse(2.0, 1.0), 0.1),
    "annulus": (Annulus(0.5, 1.0), 0.08),
    "l_shape": (L_SHAPE, 0.1),
    "bulged_strip": (PeriodicStrip(6.0, (1.0, 0.1)), 0.1),
}

# -- per-triangle references ---------------------------------------------------


def _ref_clip_triangle(p, s, tol):
    out = []
    for i in range(3):
        j = (i + 1) % 3
        if s[i] >= -tol:
            out.append(p[i])
        if (s[i] > tol and s[j] < -tol) or (s[i] < -tol and s[j] > tol):
            t = s[i] / (s[i] - s[j])
            out.append(p[i] + t * (p[j] - p[i]))
    return np.asarray(out)


def _ref_cap_reflect(mesh, line, tol=1e-10):
    work = mesh.unrolled()
    scale = float(
        max(
            work.vertices[:, 0].max() - work.vertices[:, 0].min(),
            work.vertices[:, 1].max() - work.vertices[:, 1].min(),
        )
    )
    tol_len = 1e-12 * scale
    cut_xs = (-mesh.period, 2.0 * mesh.period) if mesh.is_periodic_x else ()
    s_all = line.signed_distance(work.vertices)
    dvec = np.asarray(line.direction)
    be = work.boundary_edges
    s_a, s_b = s_all[be[:, 0]], s_all[be[:, 1]]
    meets = (np.minimum(s_a, s_b) <= tol) & (np.maximum(s_a, s_b) >= -tol)
    if np.any(meets):
        e = work.vertices[be[meets, 1]] - work.vertices[be[meets, 0]]
        e = e / np.hypot(e[:, 0], e[:, 1])[:, None]
        if np.any(np.abs(e[:, 0] * dvec[1] - e[:, 1] * dvec[0]) < 1e-6):
            raise NonTransversal("a boundary edge meets the cutting line at angle < 1e-6")
    boundary_keys = {(min(int(u), int(v)), max(int(u), int(v))) for u, v in be}
    domain_polys = work.boundary_polygons()

    report = CapReport(line=line)
    for tris in _ref_triangle_components(work, s_all, tol):
        pieces = []
        bnd_segs = []
        for t in tris:
            idx = work.triangles[t]
            poly = _ref_clip_triangle(work.vertices[idx], s_all[idx], tol_len)
            if len(poly) >= 3:
                pieces.append(poly)
            for i in range(3):
                u, v = int(idx[i]), int(idx[(i + 1) % 3])
                if (min(u, v), max(u, v)) not in boundary_keys:
                    continue
                pu, pv = work.vertices[u], work.vertices[v]
                su, sv = float(s_all[u]), float(s_all[v])
                if max(su, sv) <= tol_len:
                    continue
                if su < 0 or sv < 0:
                    t_cross = su / (su - sv)
                    cross_pt = pu + t_cross * (pv - pu)
                    if su > sv:
                        pv, sv = cross_pt, 0.0
                    else:
                        pu, su = cross_pt, 0.0
                bnd_segs.append((pu, pv))
        if not pieces:
            continue
        verts = np.vstack(pieces)
        heights = line.signed_distance(verts)
        if cut_xs:
            dist_cut = float(min(np.abs(verts[:, 0] - cx).min() for cx in cut_xs))
            bounded = dist_cut > 1e-9 * scale
        else:
            dist_cut, bounded = None, True
        if not bounded:
            report.components.append(CapComponent(False, None, None, None, dist_cut))
            continue
        graph = True
        ov_tol = 1e-9 * scale
        intervals = []
        orthogonal_ts = []
        for pu, pv in bnd_segs:
            ta, tb = float(line.along(pu)[0]), float(line.along(pv)[0])
            if abs(tb - ta) < ov_tol and float(np.hypot(*(pv - pu))) > 100 * ov_tol:
                orthogonal_ts.append(0.5 * (ta + tb))
                continue
            intervals.append((min(ta, tb), max(ta, tb)))
        if intervals:
            t_lo = min(lo for lo, _ in intervals + [(t, t) for t in orthogonal_ts])
            t_hi = max(hi for _, hi in intervals + [(t, t) for t in orthogonal_ts])
            for t in orthogonal_ts:
                if t_lo + ov_tol < t < t_hi - ov_tol:
                    graph = False
        intervals.sort()
        cur_end = -np.inf
        for lo, hi in intervals:
            if lo < cur_end - ov_tol:
                graph = False
                break
            cur_end = max(cur_end, hi)
        bpts = np.vstack([np.vstack(seg) for seg in bnd_segs]) if bnd_segs else np.empty((0, 2))
        if len(bpts):
            refl = bpts - 2.0 * line.signed_distance(bpts)[:, None] * line.normal[None, :]
            contained = bool(np.all(_points_in_loops(refl, domain_polys, tol=1e-10)))
        else:
            contained = True
        report.components.append(
            CapComponent(True, float(heights.max()), graph, contained, dist_cut)
        )
    return report


def _ref_triangle_components(mesh, values, level):
    """Union-find over the kept triangles: two are joined when they share a
    pair of base vertices whose larger value is above the level.  Components
    come ordered by their lowest triangle, each listed in ascending order."""
    ids, vals = mesh.dof_of_vertex.tolist(), values.tolist()
    parent, first = {}, {}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for t, tri in enumerate(mesh.triangles.tolist()):
        if max(vals[v] for v in tri) <= level:
            continue
        parent[t] = t
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            if max(vals[a], vals[b]) <= level:
                continue
            key = (min(ids[a], ids[b]), max(ids[a], ids[b]))
            if key in first:
                parent[find(t)] = find(first[key])
            else:
                first[key] = t
    groups = {}
    for t in parent:  # ascending, so groups come in order of their lowest triangle
        groups.setdefault(find(t), []).append(t)
    return [np.asarray(g) for g in groups.values()]


def _ref_superlevel_components(mesh, values, level):
    work = mesh.unrolled()
    vals = values if work is mesh else values[work.unroll_base]
    out = []
    for tris in _ref_triangle_components(work, vals, level):
        pts = []
        for t in tris:
            tri = work.triangles[t]
            for i in range(3):
                a_, b_ = int(tri[i]), int(tri[(i + 1) % 3])
                va, vb = float(vals[a_]), float(vals[b_])
                if va > level:
                    pts.append(work.vertices[a_])
                if (va > level) != (vb > level):
                    t_cross = (level - va) / (vb - va)
                    pts.append(
                        work.vertices[a_] + t_cross * (work.vertices[b_] - work.vertices[a_])
                    )
        out.append(np.unique(np.asarray(pts), axis=0))
    return out


def _ref_level_set_figure(vertices, triangles, values, loops, digest, n_levels=9):
    closed = [np.vstack([lp, lp[:1]]) for lp in loops]
    m = svgfig._equal_aspect_mapper(closed)
    body = []
    for lp in closed:
        px, py = m.map(lp[:, 0], lp[:, 1])
        body.append(svgfig._polyline(px, py, "#333333", 1.6))
    vmin, vmax = float(values.min()), float(values.max())
    if vmax <= vmin:
        return svgfig._document(body, digest)
    levels = vmin + (vmax - vmin) * (np.arange(1, n_levels + 1) / (n_levels + 1))
    for li, level in enumerate(levels):
        color = svgfig._PALETTE[li % len(svgfig._PALETTE)]
        for t in range(len(triangles)):
            pts = []
            for e in range(3):
                a, b = triangles[t, e], triangles[t, (e + 1) % 3]
                va, vb = values[a], values[b]
                if (va > level) != (vb > level):
                    w = (level - va) / (vb - va)
                    pts.append(vertices[a] + w * (vertices[b] - vertices[a]))
            if len(pts) == 2:
                p, q = pts
                px, py = m.map(np.array([p[0], q[0]]), np.array([p[1], q[1]]))
                body.append(svgfig._polyline(px, py, color, 0.9))
    return svgfig._document(body, digest)


# -- inputs --------------------------------------------------------------------


@pytest.fixture(scope="module")
def meshes():
    return {name: build_domain(spec, h) for name, (spec, h) in SPECS.items()}


def _outcome(fn, *args):
    try:
        return fn(*args).components
    except NonTransversal:
        return "NonTransversal"


@st.composite
def _lines(draw, mesh):
    v = mesh.vertices
    if draw(st.booleans()):  # through a vertex: signed distance exactly 0 there
        point = v[draw(st.integers(0, len(v) - 1))]
    else:
        lo, hi = v.min(axis=0) - 0.5, v.max(axis=0) + 0.5
        point = [draw(st.floats(lo[k], hi[k], allow_nan=False)) for k in range(2)]
    theta = draw(
        st.one_of(
            st.floats(0.0, 2 * math.pi, allow_nan=False),
            st.integers(0, 7).map(lambda k: k * math.pi / 4),  # along polygon edges
        )
    )
    return Line((float(point[0]), float(point[1])), (math.cos(theta), math.sin(theta)))


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _fields(mesh):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    rng = np.random.default_rng(7)
    return {
        "smooth": np.cos(1.3 * x) * np.exp(-0.4 * y * y) + 0.2 * y,
        # integers 0..4 with n_levels 3 put the levels 1, 2, 3 on nodal values
        "on_levels": rng.integers(0, 5, len(x)).astype(float),
        "constant": np.full(len(x), 0.25),
    }


# -- cap reflection ------------------------------------------------------------

TOL = 1e-12
# signed distances at and around the clipping tolerance, exact zeros included
_signed = st.one_of(
    st.sampled_from([0.0, -0.0, TOL, -TOL, 2 * TOL, -2 * TOL, 0.5 * TOL, -0.5 * TOL]),
    st.floats(-2.0, 2.0, allow_nan=False),
)
_xy = st.tuples(st.floats(-3.0, 3.0, allow_nan=False), st.floats(-3.0, 3.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_xy, _xy, _xy, _signed, _signed, _signed), min_size=1, max_size=12))
def test_positive_part_matches_clip_triangle(rows):
    p = np.array([r[:3] for r in rows], dtype=float)
    s = np.array([r[3:] for r in rows], dtype=float)
    pieces = [_ref_clip_triangle(p[k], s[k], TOL) for k in range(len(rows))]
    pieces = [q for q in pieces if len(q) >= 3]
    ref = np.vstack(pieces) if pieces else np.empty((0, 2))
    assert _same(_positive_part(p, s, TOL), ref)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cap_reflect_matches_per_triangle_loop(meshes, data):
    mesh = meshes[data.draw(st.sampled_from(sorted(SPECS)))]
    line = data.draw(_lines(mesh))
    assert _outcome(cap_reflect, mesh, line) == _outcome(_ref_cap_reflect, mesh, line)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cap_reflect_matches_on_fixed_lines(meshes, name):
    mesh = meshes[name]
    lines = [
        Line((0.0, 10.0), (1.0, 0.0)),  # misses the domain: no component
        Line((0.0, -10.0), (1.0, 0.0)),  # keeps all of it
        Line((0.3, 0.2), (0.6, 0.8)),
        Line((0.1, 0.05), (-1.0, 0.0)),
    ]
    for line in lines:
        assert _outcome(cap_reflect, mesh, line) == _outcome(_ref_cap_reflect, mesh, line)
    assert cap_reflect(mesh, lines[0]).components == []


def test_cap_reflect_non_transversal_on_both_paths(meshes):
    # the cut contains the inner wall y = 1 of the L
    line = Line((1.5, 1.0), (1.0, 0.0))
    assert _outcome(cap_reflect, meshes["l_shape"], line) == "NonTransversal"
    assert _outcome(_ref_cap_reflect, meshes["l_shape"], line) == "NonTransversal"


def test_cap_reflect_sees_each_predicate_both_ways(meshes):
    # the references agree on caps where the predicates fail, not only pass
    seen = set()
    for name, p, d in [
        ("disk", (0.0, -0.5), (1.0, 0.0)),
        ("disk", (0.0, 0.3), (1.0, 0.0)),
        ("l_shape", (1.5, 0.5), (0.0, -1.0)),
        ("bulged_strip", (0.0, 0.0), (1.0, 0.0)),
        ("bulged_strip", (0.0, 1.0), (1.0, 0.0)),
    ]:
        got = cap_reflect(meshes[name], Line(p, d)).components
        assert got == _ref_cap_reflect(meshes[name], Line(p, d)).components
        seen |= {(c.bounded, c.graph_over_chord, c.reflection_contained) for c in got}
    assert {(True, True, True), (True, False, False), (False, None, None)} <= seen


# -- T5 superlevel point sets --------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("field", ["smooth", "on_levels"])
def test_superlevel_triangle_components_match_union_find(meshes, name, field):
    # the mesh (a periodic cell pairs across its seam) and its unrolled cover,
    # with one value per physical vertex
    mesh = meshes[name]
    values = mesh.expand(mesh.reduce(_fields(mesh)[field]))
    work = mesh.unrolled()
    cases = [(mesh, values)] + ([(work, values[work.unroll_base])] if work is not mesh else [])
    sizes = set()
    for m, vals in cases:
        for frac in (0.1, 0.3, 0.5, 0.8):
            level = float(vals.min() + frac * (vals.max() - vals.min()))
            if field == "on_levels":
                level = float(np.round(level))
            got = superlevel_triangle_components(m, vals, level)
            ref = _ref_triangle_components(m, vals, level)
            assert [g.tolist() for g in got] == [r.tolist() for r in ref]
            sizes.add(len(ref))
    assert max(sizes) >= 1
    if field == "on_levels":
        assert max(sizes) > 1  # scattered values split the superlevel set


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("field", ["smooth", "on_levels"])
@pytest.mark.parametrize("frac", [0.3, 0.5, 0.8])
def test_superlevel_points_match_per_triangle_loop(meshes, name, field, frac):
    mesh = meshes[name]
    values = _fields(mesh)[field]
    level = float(values.min() + frac * (values.max() - values.min()))
    if field == "on_levels":
        level = float(np.round(level))
    got = overdet._superlevel_components(mesh, values, level)
    ref = _ref_superlevel_components(mesh, values, level)
    assert len(got) == len(ref) >= 1
    assert all(_same(a, b) for a, b in zip(got, ref))


# -- level-set figure ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("field", ["smooth", "on_levels", "constant"])
def test_level_set_figure_matches_per_triangle_loop(meshes, name, field):
    mesh = meshes[name]
    values = _fields(mesh)[field]
    n_levels = 3 if field == "on_levels" else 9
    loops = mesh.boundary_polygons()
    args = (mesh.vertices, mesh.triangles, values, loops, "digest")
    got = svgfig.level_set_figure(*args, n_levels=n_levels)
    assert got == _ref_level_set_figure(*args, n_levels=n_levels)
    if field == "constant":
        assert got.count("<polyline") == len(loops)
