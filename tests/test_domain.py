"""Mesh construction, refinement and boundary bookkeeping checks."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from prescurv import domain
from prescurv.domain import (
    DomainSpec,
    build_mesh,
    coarsen,
    distance2,
    grid_counts,
    inject,
    point_tree,
    prolong,
    tangential_derivative,
    wrapped,
)

def refine(mesh):
    return build_mesh(replace(mesh.spec, level=mesh.spec.level + 1))


def h_max(mesh):
    p = mesh.vertices[mesh.triangles]
    e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    return float(np.sqrt((e**2).sum(axis=2)).max())


def length(comp):
    return float(comp.s[-1] - comp.s[0])


SPECS = [
    DomainSpec("cylinder", L=1.0, level=1),
    DomainSpec("annulus", r=0.5, level=1),
    DomainSpec("halfdisk", R=2.0, level=1),
    DomainSpec("halfdisk", R=10.0, level=1, grade=2.0),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + str(s.grade))
def test_positive_areas_and_conformity(spec):
    mesh = build_mesh(spec)
    assert mesh.tri_areas.min() > 0
    # in dof space every edge is shared by exactly 2 triangles, boundary
    # edges by 1 (seam vertices are distinct but carry the same dof)
    dof = mesh.vertex_dof
    edges = {}
    for tri in dof[mesh.triangles]:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    counts = np.array(list(edges.values()))
    assert set(counts) <= {1, 2}
    boundary_edges = {k for k, v in edges.items() if v == 1}
    listed = set()
    for comp in mesh.components:
        for k in range(comp.n_edges):
            a, b = dof[comp.verts[k]], dof[comp.verts[k + 1]]
            listed.add((min(a, b), max(a, b)))
    assert listed == boundary_edges


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + str(s.grade))
def test_area_within_h2_of_analytic(spec, analytic):
    mesh = build_mesh(spec)
    area, _ = analytic(spec)
    rel = abs(mesh.tri_areas.sum() - area) / area
    assert rel <= 10 * h_max(mesh)**2


def test_cylinder_geometry():
    mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=2))
    assert mesh.tri_areas.sum() == pytest.approx(2 * math.pi, rel=1e-12)
    for comp in mesh.components:
        assert length(comp) == pytest.approx(2 * math.pi, rel=1e-12)
    # the seam columns grid[0] (x = 0) and grid[-1] (x = 2 pi) are distinct
    # vertices carrying the same dofs
    left, right = mesh.grid[0], mesh.grid[-1]
    assert np.all(mesh.vertices[left, 0] == 0.0)
    assert np.allclose(mesh.vertices[right, 0], 2 * math.pi, rtol=0, atol=1e-12)
    assert np.array_equal(mesh.vertices[left, 1], mesh.vertices[right, 1])
    assert np.array_equal(mesh.vertex_dof[left], mesh.vertex_dof[right])
    assert len(set(mesh.vertex_dof[left])) == len(left)
    # transporting a nodal field across the seam round-trips identically
    u = np.sin(mesh.dof_coords[:, 0]) + mesh.dof_coords[:, 1]
    vals = u[mesh.vertex_dof]
    assert np.array_equal(vals[left], vals[right])


def test_halfdisk_boundary_lengths():
    mesh = build_mesh(DomainSpec("halfdisk", R=2.0, level=3))
    flat, arc = mesh.components
    assert length(flat) == pytest.approx(4.0, rel=1e-12)
    assert length(arc) == pytest.approx(2 * math.pi, rel=1e-12)


def test_annulus_area_converges_and_refine_quarters(analytic):
    spec = DomainSpec("annulus", r=0.5, level=1)
    mesh = build_mesh(spec)
    area, _ = analytic(spec)
    errors = []
    for _ in range(3):
        errors.append(abs(mesh.tri_areas.sum() - area))
        n_tri = len(mesh.triangles)
        mesh = refine(mesh)
        assert len(mesh.triangles) == 4 * n_tri
        assert len(mesh.components) == 2
    assert errors[1] <= errors[0] / 3
    assert errors[2] <= errors[1] / 3


def test_boundary_length_convergence_order():
    spec = DomainSpec("annulus", r=0.5, level=1)
    errs = []
    for level in (1, 2, 3):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=level))
        chord = np.linalg.norm(
            np.diff(mesh.vertices[mesh.components[0].verts], axis=0), axis=1
        ).sum()
        errs.append(abs(chord - 2 * math.pi))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9
    # the stored arc-length parameter is exact by construction
    mesh = build_mesh(spec)
    assert length(mesh.components[0]) == pytest.approx(2 * math.pi, rel=1e-12)


def test_normals_and_tangents_unit_orthogonal():
    for spec in SPECS:
        mesh = build_mesh(spec)
        for comp in mesh.components:
            nrm = np.linalg.norm(comp.normals, axis=1)
            tng = np.linalg.norm(comp.tangents, axis=1)
            dots = (comp.normals * comp.tangents).sum(axis=1)
            assert np.all(np.abs(nrm - 1) < 1e-12)
            assert np.all(np.abs(tng - 1) < 1e-12)
            assert np.all(np.abs(dots) < 1e-12)


def test_tangential_derivative_constant_and_sine():
    mesh = build_mesh(DomainSpec("annulus", r=0.5, level=3))
    comp = mesh.components[0]
    d = tangential_derivative(mesh, 0, np.ones(len(comp.verts)))
    assert np.abs(d).max() < 1e-12

    errs = []
    for level in (2, 3, 4):
        m = build_mesh(DomainSpec("annulus", r=0.5, level=level))
        c = m.components[0]
        d = tangential_derivative(m, 0, np.sin(c.s))
        errs.append(np.abs(d - np.cos(c.s)).max())
    assert errs[-1] < 1e-3
    order = np.log2(errs[0] / errs[1])
    assert order > 1.8


def test_tangential_derivative_rejects_seam_jump():
    mesh = build_mesh(DomainSpec("annulus", r=0.5, level=2))
    comp = mesh.components[0]
    sawtooth = comp.s.copy()  # s itself is discontinuous across the seam
    with pytest.raises(ValueError):
        tangential_derivative(mesh, 0, sawtooth)


def test_tangential_derivative_open_component():
    mesh = build_mesh(DomainSpec("halfdisk", R=2.0, level=3))
    comp = mesh.components[0]
    x = mesh.vertices[comp.verts][:, 0]
    d = tangential_derivative(mesh, 0, x**2)
    assert np.abs(d - 2 * x).max() < 1e-8  # quadratic is differenced exactly


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + str(s.grade))
def test_coarsen_inverts_refine(spec):
    mesh = build_mesh(spec)
    assert coarsen(refine(mesh)).spec == mesh.spec
    assert coarsen(mesh).spec.level == spec.level - 1


def prolongation_matrix(coarse, fine):
    """The P1 prolongation as a sparse n_fine_dof x n_coarse_dof matrix:
    each fine grid vertex averages the coarse vertices (i // 2, j // 2)
    and ((i + 1) // 2, (j + 1) // 2), one row per dof."""
    I, J = np.indices(fine.grid.shape)
    ends = (coarse.grid[I // 2, J // 2], coarse.grid[(I + 1) // 2, (J + 1) // 2])
    rows = fine.vertex_dof[fine.grid].ravel()
    # seam twins repeat a dof; keep one row each
    dofs, first = np.unique(rows, return_index=True)
    cols = np.concatenate([coarse.vertex_dof[e].ravel()[first] for e in ends])
    return sp.csr_matrix((np.full(len(cols), 0.5), (np.tile(dofs, 2), cols)),
                         shape=(fine.n_dof, coarse.n_dof))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + str(s.grade))
def test_prolong_rows_and_coarse_dofs(spec):
    fine = refine(build_mesh(spec))
    coarse = coarsen(fine)
    P = prolongation_matrix(coarse, fine)
    assert np.array_equal(np.asarray(P.sum(axis=1)).ravel(), np.ones(fine.n_dof))
    # coarse vertex (i, j) is fine vertex (2i, 2j), and keeps its value
    assert np.array_equal(fine.vertices[fine.grid[::2, ::2]], coarse.vertices[coarse.grid])
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.standard_normal(coarse.n_dof)
        v = prolong(coarse, fine, u)
        assert v.shape == (fine.n_dof,)
        assert np.array_equal(v, P @ u)
        assert np.array_equal(v[fine.vertex_dof[fine.grid[::2, ::2]]],
                              u[coarse.vertex_dof[coarse.grid]])
        assert np.array_equal(inject(coarse, fine, v), u)
    with pytest.raises(ValueError):
        prolong(fine, coarse, np.zeros(fine.n_dof))


def test_replaced_vertices_recompute_geometry():
    # a mesh made from another by dataclasses.replace derives its areas and
    # dof coordinates from its own vertices, not from the other's
    mesh = build_mesh(DomainSpec("annulus", r=0.5, level=1))
    areas, coords = mesh.tri_areas, mesh.dof_coords
    moved = replace(mesh, vertices=2.0 * mesh.vertices)
    assert np.array_equal(moved.tri_areas, 4.0 * areas)
    assert np.array_equal(moved.dof_coords, 2.0 * coords)
    assert np.array_equal(mesh.tri_areas, areas)


@pytest.mark.parametrize("spec", SPECS[:2], ids=lambda s: s.kind)
def test_prolong_exact_for_logically_linear_fields(spec):
    coarse = build_mesh(spec)
    fine = refine(coarse)
    ci, cj = np.indices(coarse.grid.shape)
    fi, fj = np.indices(fine.grid.shape)
    # the last grid column is the seam twin of the first, so a field
    # linear in i is checked only where neither coarse end is that column
    away = fi < fi.max() - 1
    for a, b in ((0.0, 1.0), (1.0, 0.0), (0.7, -2.0)):
        u = np.empty(coarse.n_dof)
        u[coarse.vertex_dof[coarse.grid[:-1]]] = (a * ci + b * cj)[:-1]
        v = prolong(coarse, fine, u)[fine.vertex_dof[fine.grid]]
        assert np.allclose(v[away], (0.5 * (a * fi + b * fj))[away], rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", [DomainSpec("cylinder", L=1.0, level=2),
                                  DomainSpec("annulus", r=0.5, level=2)])
def test_point_tree_measures_on_the_surface(spec):
    # queries on both sides of the seam, and beyond the period, find the
    # distances that distance2 measures from the same points
    mesh = build_mesh(spec)
    tree = point_tree(mesh, mesh.dof_coords)
    rng = np.random.default_rng(3)
    q = np.column_stack([rng.uniform(-1.0, 8.0, 40), rng.uniform(0.0, 1.0, 40)])
    dist, nearest = tree.query(q)
    want = np.array([np.sqrt(distance2(mesh, p).min()) for p in q])
    assert np.allclose(dist, want, rtol=0, atol=1e-12)
    assert np.allclose(dist**2, [distance2(mesh, p)[i] for p, i in zip(q, nearest)],
                       rtol=0, atol=1e-12)
    inside = tree.query_ball_point(q, 0.3)
    assert [sorted(i) for i in inside] == [
        list(np.flatnonzero(distance2(mesh, p) <= 0.09)) for p in q]


def test_wrapped_only_on_the_cylinder():
    dx = np.array([-7.0, -math.pi, -1.0, 0.0, 3.0, math.pi, 6.5])
    cyl = build_mesh(DomainSpec("cylinder", L=1.0, level=0))
    ann = build_mesh(DomainSpec("annulus", r=0.5, level=0))
    assert wrapped(ann, dx) is dx
    w = wrapped(cyl, dx)
    assert np.all((-math.pi <= w) & (w < math.pi))
    assert np.allclose(np.cos(w), np.cos(dx)) and np.allclose(np.sin(w), np.sin(dx))


def test_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec("annulus", r=1.5)
    with pytest.raises(ValueError):
        DomainSpec("cylinder", L=-1.0)
    with pytest.raises(ValueError):
        DomainSpec("halfdisk", R=0.0)
    with pytest.raises(ValueError):
        DomainSpec("moebius")
    for size in ("L", "r", "R", "grade"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                DomainSpec("halfdisk", **{size: bad})


@pytest.mark.parametrize("kwargs,message", [
    ({"kind": "halfdisk", "level": 11}, "the halfdisk mesh has 134,225,921 vertices"),
    ({"kind": "cylinder", "level": 12}, r"more than 4\*\*12 vertices"),
    ({"kind": "annulus", "level": 10**9}, r"more than 4\*\*1000000000 vertices"),
    ({"kind": "cylinder", "L": 1e7}, "the cylinder mesh has 432,901,464 vertices"),
    ({"kind": "cylinder", "L": 1e308}, "more vertices than a double holds"),
])
def test_spec_refuses_a_mesh_above_the_vertex_limit(kwargs, message):
    with pytest.raises(ValueError, match=message):
        DomainSpec(**kwargs)


@pytest.mark.parametrize("spec", [DomainSpec("cylinder", L=3.0, level=2),
                                  DomainSpec("annulus", r=0.1, level=2),
                                  DomainSpec("halfdisk", level=2)], ids=lambda s: s.kind)
def test_vertex_limit_counts_the_vertices_the_builders_make(spec, monkeypatch):
    mesh = build_mesh(spec)
    n_i, n_j = grid_counts(spec)
    assert mesh.grid.shape == (n_i + 1, n_j + 1)
    n_vert = len(mesh.vertices)
    # replace(spec) runs the spec's checks again, against the patched limit
    monkeypatch.setattr(domain, "MAX_VERTICES", n_vert - 1)
    with pytest.raises(ValueError, match=f"has {n_vert:,} vertices"):
        replace(spec)
    monkeypatch.setattr(domain, "MAX_VERTICES", n_vert)
    replace(spec)


@given(st.sampled_from(["cylinder", "annulus", "halfdisk"]), st.integers(0, 2))
def test_orientation_property(kind, level):
    mesh = build_mesh(DomainSpec(kind, level=level))
    assert mesh.tri_areas.min() > 0


def reference_triangles(mesh):
    """The triangles as the builders wrote them before they were written in
    place: two np.stack of raveled corner views, concatenated, and on the
    half-disk the fan's column_stack in front."""
    g = mesh.grid.T

    def split(a, b, c, d):
        a, b, c, d = (x.ravel() for x in (a, b, c, d))
        return np.concatenate([np.stack([a, b, c], axis=1), np.stack([a, c, d], axis=1)])

    if mesh.spec.kind == "cylinder":
        return split(g[:-1, :-1], g[:-1, 1:], g[1:, 1:], g[1:, :-1])
    if mesh.spec.kind == "annulus":
        return split(g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:])
    fan = np.column_stack([g[0, :-1], g[1, :-1], g[1, 1:]])
    return np.concatenate([fan, split(g[1:-1, :-1], g[2:, :-1], g[2:, 1:], g[1:-1, 1:])])


def reference_areas(mesh):
    """The triangle formula on (M, 3) gathers of the corner coordinates."""
    x, y = mesh.vertices[:, 0][mesh.triangles], mesh.vertices[:, 1][mesh.triangles]
    return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("spec", [DomainSpec("cylinder", L=1.0), DomainSpec("annulus", r=0.5),
                                  DomainSpec("halfdisk", R=2.0),
                                  DomainSpec("halfdisk", R=2.0, grade=2.0)],
                         ids=lambda s: s.kind + str(s.grade))
def test_triangles_and_areas_match_the_gather_formulas(spec, level):
    mesh = build_mesh(replace(spec, level=level))
    want = reference_triangles(mesh)
    assert mesh.triangles.dtype == want.dtype and mesh.triangles.shape == want.shape
    assert np.array_equal(mesh.triangles, want)
    assert np.array_equal(mesh.tri_areas, reference_areas(mesh))
    # a mesh whose vertices moved off the grid's geometry reads its own
    rng = np.random.default_rng(level)
    moved = replace(mesh, vertices=mesh.vertices + 0.01 * rng.standard_normal(mesh.vertices.shape))
    assert np.array_equal(moved.tri_areas, reference_areas(moved))


def kept_bytes(mesh):
    arrays = [mesh.vertices, mesh.triangles, mesh.vertex_dof, mesh.grid, mesh.tri_areas]
    for comp in mesh.components:
        arrays += [comp.verts, comp.s, comp.normals, comp.tangents]
    return sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("spec", [DomainSpec("cylinder", L=1.0, level=5),
                                  DomainSpec("annulus", r=0.5, level=6),
                                  DomainSpec("halfdisk", R=1.0, level=5)], ids=lambda s: s.kind)
def test_build_allocates_little_beyond_what_the_mesh_keeps(spec):
    # the traced peak of build_mesh against the bytes of the arrays the mesh
    # keeps, its areas included.  Measured: 2.31-2.32 when the triangles were
    # stacked and concatenated and the areas computed from (M, 3) gathers;
    # 1.44 (cylinder), 1.43 (annulus) and 1.50 (half-disk) since both are
    # written from views of the grid
    build_mesh(spec)
    tracemalloc.start()
    try:
        mesh = build_mesh(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * kept_bytes(mesh)
