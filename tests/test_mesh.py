import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rte2d import (
    MeshError,
    build_mesh,
    build_structured_unit_square,
    load_mesh,
    refine_regular,
    save_mesh,
)
from rte2d.mesh import BOUNDARY, TriangleMesh, omega_dot_n, opposite_local_edge
import oracle
from helpers import hanging_node_cells, perturbed_mesh, unit_direction, write_mesh_text
from oracle import classify_edges

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TWO_TRIANGLES = np.array([[0, 1, 2], [0, 2, 3]])  # diagonal (0,0)-(1,1)


def test_structured_counts_n10():
    # hand count: 11^2 vertices; 2*100 cells; edges 110 horizontal
    # + 110 vertical + 100 diagonals
    mesh = build_structured_unit_square(10)
    assert mesh.n_vertices == 121
    assert mesh.n_triangles == 200
    assert mesh.n_edges == 320
    assert (mesh.edge_right == BOUNDARY).sum() == 40
    assert mesh.total_area() == pytest.approx(1.0, abs=1e-12)
    assert mesh.h == pytest.approx(math.sqrt(2.0) / 10.0, abs=1e-14)


def test_structured_is_ccw_and_positive_area():
    mesh = build_structured_unit_square(4)
    assert (mesh.tri_area > 0).all()
    p = mesh.vertices[mesh.triangles]
    cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 1, 1] - p[:, 0, 1]
    ) * (p[:, 2, 0] - p[:, 0, 0])
    assert (cross > 0).all()


def test_structured_rejects_bad_n():
    with pytest.raises(ValueError):
        build_structured_unit_square(0)


def test_edge_table_consistency():
    mesh = perturbed_mesh(6, seed=3)
    # each interior edge is seen by exactly its two listed triangles, with
    # opposite orientations
    for k in range(mesh.n_triangles):
        for s in range(3):
            e = mesh.tri_edges[k, s]
            if mesh.tri_edge_sign[k, s] > 0:
                assert mesh.edge_left[e] == k
            else:
                assert mesh.edge_right[e] == k
            a, b = mesh.triangles[k, s], mesh.triangles[k, (s + 1) % 3]
            ev = mesh.edge_vertices[e]
            if mesh.tri_edge_sign[k, s] > 0:
                assert (ev == (a, b)).all()
            else:
                assert (ev == (b, a)).all()


def rotate_triangles(triangles, rot):
    """Row k's vertex ids shifted cyclically by rot[k]: local edge s becomes old edge s + rot[k]."""
    idx = (np.arange(3) + np.asarray(rot)[:, None]) % 3
    return np.take_along_axis(np.asarray(triangles), idx, axis=1), idx


def assert_same_mesh(got, ref):
    for f in dataclasses.fields(TriangleMesh):
        x, y = getattr(got, f.name), getattr(ref, f.name)
        assert type(x) is type(y), f.name
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=f.name, strict=True)
        else:
            assert x == y, f.name


@pytest.mark.parametrize("kind", ["structured", "perturbed-ladder", "shuffled-rotated"])
def test_build_mesh_matches_unique_reference(kind):
    if kind == "structured":
        meshes = [build_structured_unit_square(n) for n in range(1, 7)]
    elif kind == "perturbed-ladder":
        meshes = [perturbed_mesh(10, seed=7)]
        for _ in range(3):
            meshes.append(refine_regular(meshes[-1]))
    else:
        base = perturbed_mesh(6, seed=8)
        rng = np.random.RandomState(8)
        tris, _ = rotate_triangles(
            base.triangles[rng.permutation(base.n_triangles)], rng.randint(0, 3, base.n_triangles)
        )
        meshes = [build_mesh(base.vertices, tris)]
        meshes.append(refine_regular(meshes[0]))
    for mesh in meshes:
        assert_same_mesh(mesh, oracle.build_mesh(mesh.vertices, mesh.triangles))


@settings(max_examples=25, deadline=None, database=None)
@given(st.data())
def test_edge_table_ignores_triangle_order_and_rotation(data):
    mesh = perturbed_mesh(data.draw(st.integers(1, 4), label="n"), seed=data.draw(st.integers(0, 999)))
    nt = mesh.n_triangles
    perm = np.array(data.draw(st.permutations(range(nt)), label="perm"))
    rot = data.draw(st.lists(st.integers(0, 2), min_size=nt, max_size=nt), label="rot")
    tris, idx = rotate_triangles(mesh.triangles[perm], rot)
    moved = build_mesh(mesh.vertices, tris)
    np.testing.assert_array_equal(
        np.sort(moved.edge_vertices, axis=1), np.sort(mesh.edge_vertices, axis=1)
    )
    np.testing.assert_allclose(moved.tri_area, mesh.tri_area[perm], rtol=1e-12, atol=0)
    nbr = mesh.tri_neighbors[perm[:, None], idx]
    np.testing.assert_array_equal(
        moved.tri_neighbors, np.where(nbr == BOUNDARY, BOUNDARY, np.argsort(perm)[nbr])
    )
    dup = np.roll(tris[data.draw(st.integers(0, nt - 1), label="k")], data.draw(st.integers(0, 2)))
    with pytest.raises(MeshError, match="duplicate triangles"):
        build_mesh(mesh.vertices, np.vstack([tris, dup]))


def test_edge_normals_unit_and_outward():
    mesh = perturbed_mesh(5, seed=1)
    np.testing.assert_allclose(
        np.hypot(mesh.edge_normal[:, 0], mesh.edge_normal[:, 1]), 1.0, atol=1e-13
    )
    # outward from edge_left: normal points away from the left triangle's centroid
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    mid = mesh.vertices[mesh.edge_vertices].mean(axis=1)
    to_edge = mid - cent[mesh.edge_left]
    assert ((to_edge * mesh.edge_normal).sum(axis=1) > 0).all()


def test_neighbor_symmetry_and_opposite_local_edge():
    mesh = perturbed_mesh(5, seed=2)
    opp = opposite_local_edge(mesh)
    for k in range(mesh.n_triangles):
        for s in range(3):
            n = mesh.tri_neighbors[k, s]
            if n == BOUNDARY:
                continue
            sp = opp[k, s]
            assert mesh.tri_edges[n, sp] == mesh.tri_edges[k, s]
            assert mesh.tri_neighbors[n, sp] == k


def test_arrays_are_write_protected():
    mesh = build_structured_unit_square(3)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        mesh.tri_neighbors[0, 0] = 7
    # the mesh protects its own copies: the caller's arrays stay writable
    v, t = UNIT_SQUARE.copy(), TWO_TRIANGLES.copy()
    mesh = build_mesh(v, t)
    v[1, 0] += 0.01
    t[0] = t[0, [1, 2, 0]]
    np.testing.assert_array_equal(mesh.vertices, UNIT_SQUARE)
    np.testing.assert_array_equal(mesh.triangles, TWO_TRIANGLES)
    assert build_mesh(v, t).vertices[1, 0] == 1.01


def test_build_mesh_rejects_flipped_triangle():
    tris = TWO_TRIANGLES.copy()
    tris[1] = tris[1, ::-1]
    with pytest.raises(MeshError):
        build_mesh(UNIT_SQUARE, tris)


def test_build_mesh_rejects_duplicate_triangle():
    tris = np.array([[0, 1, 2], [0, 1, 2]])
    with pytest.raises(MeshError):
        build_mesh(UNIT_SQUARE, tris)


@pytest.mark.parametrize("bad", [-1, 4])
def test_build_mesh_rejects_vertex_id_out_of_range(bad):
    with pytest.raises(MeshError, match="vertex id out of range"):
        build_mesh(UNIT_SQUARE, [[0, 1, 2], [0, 2, bad]])


@pytest.mark.parametrize("bad", [2.9, np.nan])
def test_build_mesh_rejects_non_integer_vertex_ids(bad):
    with pytest.raises(MeshError, match="^triangle vertex ids must be integers$"):
        build_mesh(UNIT_SQUARE, [[0, 1, bad], [0, 2.0, 3]])
    # integer-valued floats stay legal
    mesh = build_mesh(UNIT_SQUARE, [[0.0, 1.0, 2.0], [0, 2.0, 3]])
    np.testing.assert_array_equal(mesh.triangles, TWO_TRIANGLES)


def test_build_mesh_rejects_a_mesh_without_triangles():
    with pytest.raises(MeshError, match="^mesh has no triangles$"):
        build_mesh(UNIT_SQUARE, np.zeros((0, 3), dtype=int))


def test_build_mesh_rejects_degenerate_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError):
        build_mesh(verts, np.array([[0, 1, 2]]))


def test_build_mesh_rejects_overshared_edge():
    # the (0,2) diagonal would be claimed by three triangles
    verts = np.vstack([UNIT_SQUARE, [2.0, 0.5]])
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 4, 2]])
    with pytest.raises(MeshError):
        build_mesh(verts, tris)


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])  # right-multiplies row vectors


ROTATIONS = pytest.mark.parametrize(
    "angle",
    [0.0, 0.3, 1 - math.pi / 2, math.pi / 2, 2.0, math.pi - 1e-9],
    ids=["0", "0.3", "1-pi/2", "pi/2", "2", "pi"],
)


@pytest.mark.parametrize("shared_seam", [True, False], ids=["shared seam", "split seam"])
@ROTATIONS
def test_build_mesh_rejects_hanging_nodes(shared_seam, angle):
    # accepted, the 8|4 strips' seam would be solved as a boundary with zero inflow data
    verts, tris = hanging_node_cells(shared_seam)
    pattern = r"^nonconforming mesh: vertex (\d+) at .* lies inside boundary edge (\d+)-(\d+) "
    with pytest.raises(MeshError, match=pattern + r"\(a hanging node\)$") as exc:
        build_mesh(verts @ rotation(angle), tris)
    v, a, b = map(int, re.match(pattern, str(exc.value)).groups())
    p, q = verts[a], verts[b]
    assert p[0] == q[0] == verts[v][0] == 0.5  # a vertex of the seam
    assert min(p[1], q[1]) < verts[v][1] < max(p[1], q[1])


@pytest.mark.parametrize("angle", [0.0, 1e-17, -1e-17, -3e-16, math.pi])
def test_build_mesh_rejects_a_hanging_node_on_a_line_at_angle_0(angle):
    # float noise puts the coarse edge 1 -> 0 and the fine edge 0 -> 3 at
    # angles either side of 0 mod pi; they are still one line
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.5, 0.0], [0.25, 1.0], [0.75, 1.0]])
    tris = np.array([[0, 2, 1], [0, 3, 4], [3, 1, 5]])
    with pytest.raises(MeshError, match=r"vertex 3 at .* lies inside boundary edge 1-0 "):
        build_mesh(verts @ rotation(angle), tris)


@ROTATIONS
def test_build_mesh_accepts_holes_and_rotated_meshes(angle):
    # a 4x4-square grid without its middle 2x2 squares: the hole's boundary
    # has no hanging node; nor do rotated structured, perturbed and refined meshes
    grid = build_structured_unit_square(4)
    centroids = grid.vertices[grid.triangles].mean(axis=1)
    keep = ~((np.abs(centroids - 0.5) < 0.25).all(axis=1))
    holed = build_mesh(grid.vertices @ rotation(angle), grid.triangles[keep])
    assert (holed.edge_right == BOUNDARY).sum() == 16 + 8
    for mesh in (perturbed_mesh(5, seed=3), refine_regular(build_structured_unit_square(3))):
        build_mesh(mesh.vertices @ rotation(angle), mesh.triangles)


def test_refinement_quarters_elements_and_halves_h():
    mesh = build_structured_unit_square(4)
    fine = refine_regular(mesh)
    assert fine.n_triangles == 4 * mesh.n_triangles
    assert fine.h == pytest.approx(mesh.h / 2.0, rel=1e-14)
    assert fine.total_area() == pytest.approx(mesh.total_area(), abs=1e-12)
    # nested: the parent vertices lead the child vertex array unchanged
    np.testing.assert_array_equal(fine.vertices[: mesh.n_vertices], mesh.vertices)


def test_refinement_keeps_perturbed_mesh_conforming():
    mesh = perturbed_mesh(4, seed=9)
    fine = refine_regular(refine_regular(mesh))
    assert fine.n_triangles == 16 * mesh.n_triangles
    assert fine.total_area() == pytest.approx(1.0, abs=1e-12)


def test_classification_partitions_edges():
    mesh = perturbed_mesh(5, seed=4)
    rng = np.random.RandomState(11)
    for theta in rng.uniform(0, 2 * np.pi, size=8):
        cls = classify_edges(mesh, unit_direction(theta))
        assert cls.inflow.shape == (mesh.n_triangles, 3)
        assert not (cls.inflow & cls.outflow).any()
        assert (cls.inflow | cls.outflow).all()
        assert ((cls.omega_dot_n < -1e-12) == cls.inflow).all()


def test_classification_antisymmetric_across_interior_edges():
    mesh = perturbed_mesh(4, seed=5)
    opp = opposite_local_edge(mesh)
    cls = classify_edges(mesh, unit_direction(0.37))
    for k in range(mesh.n_triangles):
        for s in range(3):
            n = mesh.tri_neighbors[k, s]
            if n == BOUNDARY:
                continue
            assert cls.omega_dot_n[k, s] == -cls.omega_dot_n[n, opp[k, s]]


def test_classification_flips_with_direction():
    mesh = build_structured_unit_square(3)
    c1 = classify_edges(mesh, unit_direction(0.3))
    c2 = classify_edges(mesh, -unit_direction(0.3))
    np.testing.assert_allclose(c1.omega_dot_n, -c2.omega_dot_n, atol=1e-15)


def test_omega_dot_n_of_a_stack_matches_classification():
    mesh = perturbed_mesh(4, seed=6)
    directions = np.array([unit_direction(t) for t in np.linspace(0.0, 2 * np.pi, 7)])
    dots = omega_dot_n(mesh, directions)
    assert dots.shape == (7, mesh.n_triangles, 3)
    normals = mesh.edge_normal[mesh.tri_edges]
    for omega, dot in zip(directions, dots):
        np.testing.assert_array_equal(dot, classify_edges(mesh, omega).omega_dot_n)
        np.testing.assert_allclose(dot, (normals @ omega) * mesh.tri_edge_sign, rtol=0, atol=1e-15)


def test_classify_requires_unit_vector():
    mesh = build_structured_unit_square(2)
    with pytest.raises(ValueError):
        classify_edges(mesh, np.array([1.0, 1.0]))


def test_two_triangle_classification_for_axis_direction():
    mesh = build_mesh(UNIT_SQUARE, TWO_TRIANGLES)
    cls = classify_edges(mesh, np.array([1.0, 0.0]))
    # upper-left triangle (id 1) holds the x=0 boundary: one inflow edge,
    # none interior; lower-right triangle (id 0) takes inflow across the
    # diagonal from triangle 1
    assert cls.inflow[1].sum() == 1
    assert mesh.tri_neighbors[1][cls.inflow[1]][0] == BOUNDARY
    assert cls.inflow[0].sum() == 1
    assert mesh.tri_neighbors[0][cls.inflow[0]][0] == 1


def test_mesh_file_round_trip(tmp_path):
    mesh = perturbed_mesh(4, seed=6)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    assert back.h == mesh.h


def test_load_mesh_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(MeshError):
        load_mesh(p)
    p.write_text("2 1\n0 0\n1 0\n0 1 2\n")  # header claims 2 vertices, uses id 2
    with pytest.raises(MeshError):
        load_mesh(p)
    p.write_text("3 1\n0 0\n1 0\n0 1\n0 1 2\n1 2\n")  # trailing tokens
    with pytest.raises(MeshError):
        load_mesh(p)
    write_mesh_text(p, *hanging_node_cells())  # the seam x = 0.5 has hanging nodes
    with pytest.raises(MeshError, match="lies inside boundary edge"):
        load_mesh(p)


@pytest.mark.parametrize("text, token", [
    ("three 1\n0 0\n1 0\n0 1\n0 1 2\n", "three"),
    ("3 1.0\n0 0\n1 0\n0 1\n0 1 2\n", "1.0"),
    ("3 1\n0 0\n1 0\nzero 1\n0 1 2\n", "zero"),
    ("3 1\n0 0\n1 0\n0 1\n0 1.5 2\n", "1.5"),
], ids=["word count", "float count", "coordinate", "vertex id"])
def test_load_mesh_names_the_file_for_a_token_that_is_not_a_number(tmp_path, text, token):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(MeshError, match=f"^{re.escape(str(p))}: .*'{re.escape(token)}'$"):
        load_mesh(p)


def test_load_mesh_names_the_file_for_a_non_ascii_byte(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes("3 1\n0 0\n1 0\n0 1\n0 1 2  # coin supérieur\n".encode("utf-8"))
    with pytest.raises(MeshError, match=f"^{re.escape(str(p))}: 'ascii' codec can't decode byte 0xc3"):
        load_mesh(p)
