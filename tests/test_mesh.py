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
    trapezoid_circle,
)
from rte2d.mesh import BOUNDARY, TriangleMesh, omega_dot
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
    assert (mesh.tri_neighbors == BOUNDARY).sum() == 40
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
    # opposite orientations; a boundary edge by its one triangle
    uses = np.bincount(mesh.tri_edges.ravel())
    assert uses.size == mesh.n_edges and uses.min() >= 1
    for k in range(mesh.n_triangles):
        for s in range(3):
            e = mesh.tri_edges[k, s]
            n, sp = mesh.tri_neighbors[k, s], mesh.tri_opposite[k, s]
            a, b = mesh.triangles[k, s], mesh.triangles[k, (s + 1) % 3]
            if n == BOUNDARY:
                assert uses[e] == 1 and sp == BOUNDARY
            else:
                assert uses[e] == 2 and mesh.tri_edges[n, sp] == e
                assert (mesh.triangles[n, sp], mesh.triangles[n, (sp + 1) % 3]) == (b, a)


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
    # edge ids follow the vertex ids, and each local edge keeps its geometry
    old = perm[:, None], idx
    np.testing.assert_array_equal(moved.tri_edges, mesh.tri_edges[old])
    np.testing.assert_array_equal(moved.tri_normal, mesh.tri_normal[old])
    np.testing.assert_array_equal(moved.tri_edge_length, mesh.tri_edge_length[old])
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
    n, length = mesh.tri_normal, mesh.tri_edge_length
    np.testing.assert_allclose(np.hypot(n[..., 0], n[..., 1]), 1.0, atol=1e-13)
    # outward: the normal points away from the triangle's centroid
    p = mesh.vertices[mesh.triangles]
    to_edge = 0.5 * (p + p[:, [1, 2, 0]]) - p.mean(axis=1)[:, None]
    assert ((to_edge * n).sum(axis=2) > 0).all()
    # normal to local edge s, whose length is |v_{s+1} - v_s|; a closed boundary has zero flux
    t = p[:, [1, 2, 0]] - p
    np.testing.assert_allclose((t * n).sum(axis=2), 0.0, atol=1e-15)
    np.testing.assert_allclose(length, np.hypot(t[..., 0], t[..., 1]), rtol=1e-15)
    np.testing.assert_allclose((length[..., None] * n).sum(axis=1), 0.0, atol=1e-15)


def test_neighbor_symmetry_and_opposite_local_edge():
    mesh = perturbed_mesh(5, seed=2)
    opp = mesh.tri_opposite
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


HANGING = r"^nonconforming mesh: vertex (\d+) at .* lies inside boundary edge (\d+)-(\d+) "


def line_cells():
    """Six vertices: vertex 3 hangs on the coarse boundary edge 1-0, on the x axis."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.5, 0.0], [0.25, 1.0], [0.75, 1.0]])
    return verts, np.array([[0, 2, 1], [0, 3, 4], [3, 1, 5]])


def holed_cells():
    """A 4x4-square grid without its middle 2x2 squares."""
    grid = build_structured_unit_square(4)
    centroids = grid.vertices[grid.triangles].mean(axis=1)
    return grid.vertices, grid.triangles[~((np.abs(centroids - 0.5) < 0.25).all(axis=1))]


SIMILAR_NAMES = ["hanging", "split hanging", "line", "grid", "perturbed", "holed", "refined"]


def cells(name):
    """Vertices and triangles of a named mesh; the first three in SIMILAR_NAMES hang."""
    if name in ("hanging", "split hanging"):
        return hanging_node_cells(name == "hanging")
    if name == "line":
        return line_cells()
    if name == "holed":
        return holed_cells()
    mesh = {
        "grid": lambda: build_structured_unit_square(6),
        "perturbed": lambda: perturbed_mesh(5, seed=3),
        "refined": lambda: refine_regular(build_structured_unit_square(3)),
    }[name]()
    return mesh.vertices, mesh.triangles


def check_similar_copy(name, angle, scale, shift):
    """Build a rotated, scaled and shifted copy of a named mesh: a hanging one
    must raise, naming a vertex inside an edge of its own line; the rest must build."""
    verts, tris = cells(name)
    moved = verts @ rotation(angle) * scale + shift
    if name not in SIMILAR_NAMES[:3]:
        build_mesh(moved, tris)
        return
    with pytest.raises(MeshError, match=HANGING) as exc:
        build_mesh(moved, tris)
    v, a, b = map(int, re.match(HANGING, str(exc.value)).groups())
    if name == "line":
        assert (v, a, b) == (3, 1, 0)
    else:
        assert verts[a][0] == verts[b][0] == verts[v][0] == 0.5  # a vertex of the seam
        assert min(verts[a][1], verts[b][1]) < verts[v][1] < max(verts[a][1], verts[b][1])


@pytest.mark.parametrize("shared_seam", [True, False], ids=["shared seam", "split seam"])
@ROTATIONS
def test_build_mesh_rejects_hanging_nodes(shared_seam, angle):
    # accepted, the 8|4 strips' seam would be solved as a boundary with zero inflow data
    verts, tris = hanging_node_cells(shared_seam)
    with pytest.raises(MeshError, match=HANGING + r"\(a hanging node\)$") as exc:
        build_mesh(verts @ rotation(angle), tris)
    v, a, b = map(int, re.match(HANGING, str(exc.value)).groups())
    p, q = verts[a], verts[b]
    assert p[0] == q[0] == verts[v][0] == 0.5  # a vertex of the seam
    assert min(p[1], q[1]) < verts[v][1] < max(p[1], q[1])


@pytest.mark.parametrize("angle", [0.0, 1e-17, -1e-17, -3e-16, math.pi])
def test_build_mesh_rejects_a_hanging_node_on_a_line_at_angle_0(angle):
    # float noise puts the coarse edge 1 -> 0 and the fine edge 0 -> 3 at
    # angles either side of 0 mod pi; they are still one line
    verts, tris = line_cells()
    with pytest.raises(MeshError, match=r"vertex 3 at .* lies inside boundary edge 1-0 "):
        build_mesh(verts @ rotation(angle), tris)


@ROTATIONS
def test_build_mesh_accepts_holes_and_rotated_meshes(angle):
    # a 4x4-square grid without its middle 2x2 squares: the hole's boundary
    # has no hanging node; nor do rotated structured, perturbed and refined meshes
    verts, tris = holed_cells()
    holed = build_mesh(verts @ rotation(angle), tris)
    assert (holed.tri_neighbors == BOUNDARY).sum() == 16 + 8
    for mesh in (perturbed_mesh(5, seed=3), refine_regular(build_structured_unit_square(3))):
        build_mesh(mesh.vertices @ rotation(angle), mesh.triangles)


def local_edge_mesh(kind):
    if kind == "structured":
        return build_structured_unit_square(6)
    if kind == "refined":
        return refine_regular(refine_regular(build_structured_unit_square(3)))
    base = perturbed_mesh(5, seed=12)
    if kind == "perturbed":
        return refine_regular(base)
    return build_mesh(base.vertices @ rotation(0.3), base.triangles)


@pytest.mark.parametrize("kind", ["structured", "refined", "perturbed", "rotated"])
def test_each_interior_edge_is_seen_negated_from_the_other_side(kind):
    # the peel relies on it: an edge is inflow on one side only if it is outflow on the other
    mesh = local_edge_mesh(kind)
    assert (mesh.tri_opposite[mesh.tri_neighbors == BOUNDARY] == BOUNDARY).all()
    k, s = np.nonzero(mesh.tri_neighbors != BOUNDARY)
    n, sp = mesh.tri_neighbors[k, s], mesh.tri_opposite[k, s]
    np.testing.assert_array_equal(mesh.tri_neighbors[n, sp], k)
    np.testing.assert_array_equal(mesh.tri_opposite[n, sp], s)
    np.testing.assert_array_equal(mesh.tri_edges[n, sp], mesh.tri_edges[k, s])
    np.testing.assert_array_equal(mesh.tri_normal[n, sp], -mesh.tri_normal[k, s])
    np.testing.assert_array_equal(mesh.tri_edge_length[n, sp], mesh.tri_edge_length[k, s])
    dots = omega_dot(mesh.tri_normal, trapezoid_circle(20).directions)
    np.testing.assert_array_equal(dots[:, n, sp], -dots[:, k, s])


@pytest.mark.parametrize("shift, scale, angle", [
    (0.0, 1.0, 0.0), (1e8, 1.0, 0.0), (1e3, 1e-3, 0.0), (1e6, 1e-3, 0.0), (1e4, 1e-6, 0.0),
    (1e9, 1.0, 0.0),
    # rotated, so the seam's offset carries the rounding of the coordinates
    (1e3, 1e-3, 0.5), (1e5, 1e-2, 1.5),
    # the grid was rejected when each edge was turned by its own angle: a vertex
    # then lay inside its own edge
    (2370.0, 0.015, 2.1476), (587.0, 0.00605, 0.6947), (8.01e4, 0.487, 4.7514),
    # the seam was missed when collinear edges straddled a step of a rounded line key
    (1e5, 1e-2, 2.0),
])
def test_hanging_node_check_follows_the_mesh_not_the_origin(shift, scale, angle):
    # the tolerance scales with the boundary's extent, not with its distance
    # from the origin, and no finer than the coordinates' own resolution
    check_similar_copy("hanging", angle, scale, shift)
    check_similar_copy("grid", angle, scale, shift)


def test_hanging_node_check_finds_a_turned_far_line():
    # missed when the coarse and fine edges' rounded angles fell in different steps
    check_similar_copy("line", 2.849, 3.44e-4, 6.63e4)


@pytest.mark.parametrize("name", SIMILAR_NAMES)
def test_hanging_node_check_on_random_similar_copies(name):
    # any rotation, scale 1e-4 to 1, shift 1e2 to 1e9 on both axes
    draws = np.random.default_rng(19).uniform([0.0, -4.0, 2.0], [2 * math.pi, 0.0, 9.0], (100, 3))
    for angle, lg_scale, lg_shift in draws:
        check_similar_copy(name, angle, 10.0**lg_scale, 10.0**lg_shift)


def test_hanging_node_message_gives_the_exact_coordinates():
    # far from the origin a short format names every vertex alike
    verts, tris = hanging_node_cells()
    moved = verts @ rotation(0.5) * 1e-3 + 1e6
    with pytest.raises(MeshError, match=HANGING) as exc:
        build_mesh(moved, tris)
    v = int(re.match(HANGING, str(exc.value)).group(1))
    x, y = re.search(r" at \((\S+), (\S+)\) lies ", str(exc.value)).groups()
    assert (float(x), float(y)) == tuple(moved[v])


def test_refinement_quarters_elements_and_halves_h():
    mesh = build_structured_unit_square(4)
    fine = refine_regular(mesh)
    assert fine.n_triangles == 4 * mesh.n_triangles
    assert fine.h == pytest.approx(mesh.h / 2.0, rel=1e-14, abs=0.0)
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
    opp = mesh.tri_opposite
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
    dots = omega_dot(mesh.tri_normal, directions)
    assert dots.shape == (7, mesh.n_triangles, 3)
    for omega, dot in zip(directions, dots):
        np.testing.assert_array_equal(dot, classify_edges(mesh, omega).omega_dot_n)
        np.testing.assert_allclose(dot, mesh.tri_normal @ omega, rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("text, counts", [
    ("-1 2\n0 1 2 3\n", "-1 vertices, 2 triangles"),  # 2 - 2 + 6 = 6 tokens, as found
    ("3 -1\n0 0\n1 0\n0 1\n", "3 vertices, -1 triangles"),
], ids=["vertices", "triangles"])
def test_load_mesh_rejects_a_negative_count(tmp_path, text, counts):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    want = f"^{re.escape(str(p))}: negative count in the header: {counts}$"
    with pytest.raises(MeshError, match=want):
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
