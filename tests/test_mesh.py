import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaplaw.mesh as mesh_module
import gaplaw.solver as solver
from gaplaw.geometry import DomainSpec, GeometryError, ParticlePair, datum_values
from gaplaw.mesh import (
    TAG_INTERIOR,
    TAG_OUTER,
    TAG_P1,
    TAG_P2,
    MeshError,
    QUALITY_FLOOR,
    _MIRROR_TAG,
    _SAME_TAG,
    Mesh,
    MeshParams,
    _validate,
    build_mesh,
    _order_loop,
    load_mesh_text,
    save_mesh_text,
)
from gaplaw.sweep import SweepConfig
from radial import AnnulusSpec, build_annulus_mesh


def two_disk_domain(delta=0.02, R=1.0, R_out=4.0):
    return DomainSpec(pair=ParticlePair(R=R, delta=delta), R_out=R_out)


def assert_mirror_symmetric(mesh, axis=1):
    """Nodes, tags and elements map onto themselves under the reflection
    that negates coordinate `axis` (y -> -y by default, x -> -x for
    axis=0), bitwise, and `mesh.mirror` (`mesh.x_mirror`) is that node
    map.  The particles swap under y -> -y and stay under x -> -x."""
    sign = np.array([1.0, 1.0])
    sign[axis] = -1.0
    node_map = mesh.mirror if axis == 1 else mesh.x_mirror
    index = {(x, y): i for i, (x, y) in enumerate(map(tuple, mesh.nodes))}
    assert node_map is not None
    for i, ((x, y), tag) in enumerate(zip(map(tuple, mesh.nodes), mesh.node_tags)):
        j = index.get((sign[0] * x, sign[1] * y))
        assert j is not None, f"missing mirror of ({x}, {y})"
        assert node_map[i] == j
        mirrored = {TAG_P1: TAG_P2, TAG_P2: TAG_P1}.get(int(tag), int(tag)) if axis else int(tag)
        assert int(mesh.node_tags[j]) == mirrored
    # elements mirror as a set
    tri_set = {tuple(sorted(map(tuple, mesh.nodes[t]))) for t in mesh.triangles}
    for t in mesh.triangles:
        pts = tuple(sorted((sign[0] * x, sign[1] * y) for x, y in map(tuple, mesh.nodes[t])))
        assert pts in tri_set


def merge_oracle(quarter_pts, quarter_tris, quarter_tags):
    """The dict-and-loop merge of the quarter's four images that
    `_merge_pieces` replaces: same arguments, same (nodes, triangles,
    tags)."""
    index = {}
    g_nodes = []
    g_tags = []

    def add_node(x, y, tag):
        key = (float(x) + 0.0, float(y) + 0.0)
        gid = index.get(key)
        if gid is None:
            gid = len(g_nodes)
            index[key] = gid
            g_nodes.append(key)
            g_tags.append(tag)
        elif tag != TAG_INTERIOR and g_tags[gid] == TAG_INTERIOR:
            g_tags[gid] = tag
        return gid

    g_tris = []
    # the quarter, then its images under x -> -x, y -> -y and both; a
    # reflection in y swaps the particles, and one reflection (not two)
    # reverses the vertex order
    y_image_tag = {TAG_INTERIOR: TAG_INTERIOR, TAG_OUTER: TAG_OUTER, TAG_P2: TAG_P1}
    for sx, sy in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        gids = [add_node(sx * xy[0], sy * xy[1], int(t) if sy > 0 else y_image_tag[int(t)])
                for xy, t in zip(quarter_pts, quarter_tags)]
        for a, b, c in quarter_tris:
            if sx * sy > 0:
                g_tris.append((gids[a], gids[b], gids[c]))
            else:
                g_tris.append((gids[a], gids[c], gids[b]))
    return (
        np.asarray(g_nodes),
        np.asarray(g_tris, dtype=np.int64),
        np.asarray(g_tags, dtype=np.int8),
    )


def find_mirror_oracle(mesh, axis, image_tag):
    """The coordinate search that reading the mirrors off the four-image
    layout replaces: the node permutation under the reflection that
    negates coordinate `axis`, with node tags mapped by `image_tag`, or
    None when the mesh (in any triangle order) is not symmetric under
    it."""
    c, other = mesh.nodes[:, axis], mesh.nodes[:, 1 - axis]
    # the k-th node in (other, c) order mirrors the k-th in (other, -c) order
    up, down = np.lexsort((c, other)), np.lexsort((-c, other))
    if not (np.array_equal(other[down], other[up]) and np.array_equal(c[down], -c[up])):
        return None
    mirror = np.empty_like(up)
    mirror[up] = down
    if not np.array_equal(mesh.node_tags[mirror], image_tag[mesh.node_tags]):
        return None

    n = mesh.n_nodes
    if n >= 2**21:  # the element keys below would overflow int64
        return None

    def element_keys(tris):
        a, b, c = tris.T
        lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        return np.sort((lo * n + a + b + c - lo - hi) * n + hi)

    if not np.array_equal(element_keys(mirror[mesh.triangles]), element_keys(mesh.triangles)):
        return None
    return mirror


def with_oracle_mirrors(mesh):
    """`mesh` with both mirrors set by `find_mirror_oracle`: a mesh made
    by hand, whose triangles are not the four images of a quarter, gets
    none from `Mesh`."""
    mesh.mirror = find_mirror_oracle(mesh, 1, _MIRROR_TAG)
    mesh.x_mirror = find_mirror_oracle(mesh, 0, _SAME_TAG)
    return mesh


def boundary_edges_oracle(mesh):
    """Boundary edges and their owners by np.unique(axis=0) over sorted pairs."""
    tris = mesh.triangles
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    owner = np.tile(np.arange(len(tris)), 3)
    _, idx, counts = np.unique(
        np.sort(edges, axis=1), axis=0, return_index=True, return_counts=True
    )
    bidx = idx[counts == 1]
    bedges, bowner = edges[bidx], owner[bidx]
    tag = mesh.node_tags[bedges[:, 0]]
    return {t: (bedges[tag == t], bowner[tag == t]) for t in (TAG_OUTER, TAG_P1, TAG_P2)}


def boundary_key_oracle(mesh):
    """The `_build_boundary_edges` of a (3m, 2) edge list, tiled owners and
    `np.unique` counts over the keys that one sort of the keys replaces."""
    tris = mesh.triangles
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    owner = np.tile(np.arange(len(tris)), 3)
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    _, idx, counts = np.unique(lo * mesh.n_nodes + hi, return_index=True, return_counts=True)
    bidx = idx[counts == 1]
    bedges, bowner = edges[bidx], owner[bidx]
    t1, t2 = mesh.node_tags[bedges[:, 0]], mesh.node_tags[bedges[:, 1]]
    if np.any(t1 == TAG_INTERIOR) or np.any(t2 == TAG_INTERIOR):
        raise MeshError("boundary edge with an untagged endpoint")
    if np.any(t1 != t2):
        raise MeshError("boundary edge straddling two boundary curves")
    return {t: (bedges[t1 == t], bowner[t1 == t]) for t in (TAG_OUTER, TAG_P1, TAG_P2)}


def geometry_oracle(nodes, triangles):
    """The `_build_geometry` of whole-array stacks that the gradients
    written in place replace: (triangles, areas, grads, centroids) of the
    triangles as given, reoriented counterclockwise on a copy."""
    triangles = triangles.copy()
    p = nodes[triangles]
    x, y = p[..., 0], p[..., 1]
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    flip = det < 0
    if np.any(flip):
        triangles[flip] = triangles[flip][:, [0, 2, 1]]
        p[flip] = p[flip][:, [0, 2, 1]]
        det[flip] = -det[flip]
    gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    return triangles, 0.5 * det, np.stack([gx, gy], axis=1) / det[:, None, None], p.mean(axis=1)


def quality_oracle(mesh):
    """The `Mesh.quality` of `np.linalg.norm` over an (m, 3, 2) copy of the
    element coordinates that side lengths from the coordinate columns
    replace."""
    p = mesh.nodes[mesh.triangles]
    a = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    b = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    c = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    s = 0.5 * (a + b + c)
    inr = mesh.areas / s
    circ = a * b * c / (4.0 * mesh.areas)
    return inr / circ


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_matches_geometry_oracles(mesh, triangles=None, mirrors=True):
    """The mesh's triangles, areas, gradients and centroids against
    `geometry_oracle` on the `triangles` it was built from (its own by
    default), its boundary edges against `boundary_key_oracle` and its
    quality against `quality_oracle`, byte for byte; and, with `mirrors`,
    its mirrors against `find_mirror_oracle`."""
    want = geometry_oracle(mesh.nodes, mesh.triangles if triangles is None else triangles)
    for got, ref in zip((mesh.triangles, mesh.areas, mesh.grads, mesh.centroids), want):
        assert_same_bytes(got, ref)
    ref_edges = boundary_key_oracle(mesh)
    for tag in (TAG_OUTER, TAG_P1, TAG_P2):
        for got, ref in zip(mesh.boundary_edges[tag], ref_edges[tag]):
            assert_same_bytes(got, ref)
    assert_same_bytes(mesh.quality(), quality_oracle(mesh))
    if not mirrors:
        return
    for got, axis, image_tag in ((mesh.mirror, 1, _MIRROR_TAG), (mesh.x_mirror, 0, _SAME_TAG)):
        ref = find_mirror_oracle(mesh, axis, image_tag)
        if ref is None:
            assert got is None
        else:
            assert_same_bytes(got, ref)


class ConstraintsOracle(solver._Constraints):
    """`_Constraints` with the Hessian pattern of the `np.unique` over every
    pair key and the `lexsort` + `searchsorted` CSC order that the
    constructor replaces."""

    def __init__(self, dof, n_dof, u_fix, elements, parity, reflections):
        super().__init__(dof, n_dof, u_fix, elements, parity, reflections)
        edof = dof[elements.triangles].T
        dk, dl = edof[solver._K6], edof[solver._L6]
        fixed = (dk < 0) | (dl < 0)
        lo, hi = np.minimum(dk, dl), np.maximum(dk, dl)
        pairs, inverse = np.unique((lo * n_dof + hi)[~fixed], return_inverse=True)
        slot = np.full(dk.shape, len(pairs))
        slot[~fixed] = inverse
        self._h_slot = slot.ravel()
        a, b = pairs // n_dof, pairs % n_dof
        off = a != b
        rows = np.concatenate([a, b[off]])
        cols = np.concatenate([b, a[off]])
        order = np.lexsort((rows, cols))
        self._h_pair = np.concatenate([np.arange(len(pairs)), np.flatnonzero(off)])[order]
        self._h_indices = rows[order]
        self._h_indptr = np.searchsorted(cols[order], np.arange(n_dof + 1))


def constraints_oracle(mesh, kind, outer_vals, pinned=None):
    """The whole-mesh `np.any`, `np.isin` and `np.unique` construction that
    `_build_constraints` replaces: same arguments, a `ConstraintsOracle`."""
    u_fix = np.zeros(mesh.n_nodes)
    u_fix[mesh.nodes_with_tag(TAG_OUTER)] = outer_vals
    p1, p2 = mesh.nodes_with_tag(TAG_P1), mesh.nodes_with_tag(TAG_P2)
    interior = mesh.nodes_with_tag(TAG_INTERIOR)
    dof = np.full(mesh.n_nodes, -1, dtype=np.int64)
    dof[interior] = np.arange(len(interior))
    n_dof = len(interior)
    if kind == "floating":
        dof[p1], dof[p2] = n_dof, n_dof + 1
        n_dof += 2
    elif kind == "tied":
        dof[p1] = dof[p2] = n_dof
        n_dof += 1
    else:
        u_fix[p1], u_fix[p2] = pinned
    parity, reflections = [], []
    kept = np.ones(mesh.n_triangles, dtype=bool)
    for axis, mirror in ((1, mesh.mirror), (0, mesh.x_mirror)):
        dropped = mesh.nodes[:, axis] < 0.0
        half = kept & ~np.any(dropped[mesh.triangles], axis=1)
        character = solver._parity(mirror, u_fix, np.count_nonzero(kept), np.count_nonzero(half))
        parity.append(character)
        if character is None:
            continue
        if character < 0:
            own = (dof >= 0) & (dof[mirror] == dof)
            dof[np.isin(dof, dof[own])] = -1
        reflected = np.flatnonzero(dropped & (dof >= 0))
        reflections.append((reflected, mirror[reflected], character))
        dof[dropped] = -1
        kept = half
    elements = mesh
    if reflections:
        elements = solver._ElementSet(triangles=np.asfortranarray(mesh.triangles[kept]),
                                      grads=np.asfortranarray(mesh.grads[kept]),
                                      areas=2.0 ** len(reflections) * mesh.areas[kept])
    free = dof >= 0
    unknowns, dof[free] = np.unique(dof[free], return_inverse=True)
    return ConstraintsOracle(dof, len(unknowns), u_fix, elements, tuple(parity), reflections)


def assert_constraints_match_oracle(mesh):
    """`_build_constraints` against `constraints_oracle`, byte for byte: the
    node -> unknown map, the reflections, the element set, and the reduced
    gradient and Hessian (indptr, indices, data) at a random field, for the
    floating, tied and prescribed kinds under data with both mirrors, the
    x-mirror only and none."""
    outer = mesh.nodes[mesh.nodes_with_tag(TAG_OUTER)]
    for kind, pinned, datum in (("floating", None, lambda x, y: y),
                                ("tied", None, lambda x, y: y),
                                ("prescribed", (1.0, 0.0), lambda x, y: 0.0),
                                ("tied", None, lambda x, y: x + y)):
        outer_vals = datum_values(datum, outer)
        got = solver._build_constraints(mesh, kind, outer_vals, pinned)
        want = constraints_oracle(mesh, kind, outer_vals, pinned)
        assert got.n_dof == want.n_dof and got.parity == want.parity
        for name in ("u_fix", "_free", "_free_dof", "_g_slot", "_h_mult"):
            assert_same_bytes(getattr(got, name), getattr(want, name))
        for name in ("triangles", "grads", "areas"):
            assert_same_bytes(getattr(got.elements, name), getattr(want.elements, name))
        assert len(got._reflections) == len(want._reflections)
        for (nodes, images, parity), (ref_nodes, ref_images, ref_parity) in zip(
                got._reflections, want._reflections):
            assert_same_bytes(nodes, ref_nodes)
            assert_same_bytes(images, ref_images)
            assert parity == ref_parity
        u = got.expand(np.random.default_rng(7).normal(size=got.n_dof))
        weights = solver._element_weights(got.elements, u, 4.0, 1e-8)
        assert_same_bytes(got.grad(weights), want.grad(weights))
        H, H_ref = got.hess(weights), want.hess(weights)
        for name in ("indptr", "indices", "data"):
            assert_same_bytes(getattr(H, name), getattr(H_ref, name))


def build_checked_against_oracles(domain, params=None):
    """build_mesh, with its merge and boundary edges checked byte for byte
    against `merge_oracle` and `boundary_edges_oracle`, its geometry,
    boundary edges, quality and mirrors by
    `assert_matches_geometry_oracles`, and the constraint maps of its
    solves against `constraints_oracle`; both mirrors must be found.
    Returns the mesh, the arguments `_merge_pieces` got and the quarter's
    Delaunay."""
    calls, triangulations = [], []
    merge, delaunay = mesh_module._merge_pieces, mesh_module.Delaunay

    def recording(*args):
        out = merge(*args)
        calls.append((args, out))
        return out

    def recording_delaunay(pts):
        triangulations.append(delaunay(pts))
        return triangulations[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_merge_pieces", recording)
        mp.setattr(mesh_module, "Delaunay", recording_delaunay)
        mesh = build_mesh(domain, params)
    assert mesh.mirror is not None and mesh.x_mirror is not None
    ((args, out),) = calls
    want = merge_oracle(*args)
    for got, ref in zip(out, want):
        assert_same_bytes(got, ref)
    ref_mesh = Mesh(nodes=want[0], triangles=want[1], node_tags=want[2])
    assert_same_bytes(mesh.nodes, ref_mesh.nodes)
    assert_same_bytes(mesh.triangles, ref_mesh.triangles)
    assert_same_bytes(mesh.node_tags, ref_mesh.node_tags)
    ref_edges = boundary_edges_oracle(mesh)
    for tag in (TAG_OUTER, TAG_P1, TAG_P2):
        for got, ref in zip(mesh.boundary_edges[tag], ref_edges[tag]):
            assert_same_bytes(got, ref)
    (tri,) = triangulations
    assert_matches_geometry_oracles(mesh)
    assert_constraints_match_oracle(mesh)
    return mesh, args, tri


@pytest.fixture(scope="module")
def mesh02():
    return build_mesh(two_disk_domain(0.02))


class TestBuildMesh:
    def test_layers_across_gap(self, mesh02):
        # at least 4 element layers across the gap at x = 0: the node
        # column at x = 0 carries neck_layers + 1 nodes inside the gap
        nodes = mesh02.nodes
        on_axis = nodes[np.abs(nodes[:, 0]) == 0.0]
        in_gap = on_axis[np.abs(on_axis[:, 1]) <= 0.010000001]
        assert len(in_gap) >= 5

    def test_determinism_bitwise(self, monkeypatch):
        # no seed to set and no random numbers drawn: two builds agree bitwise
        assert "seed" not in {f.name for f in dataclasses.fields(MeshParams)}

        def no_rng(*args, **kwargs):
            raise AssertionError("the mesher must not draw random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        dom = two_disk_domain(0.02)
        m1 = build_mesh(dom)
        m2 = build_mesh(dom)
        assert np.array_equal(m1.nodes, m2.nodes)
        assert np.array_equal(m1.triangles, m2.triangles)
        assert np.array_equal(m1.node_tags, m2.node_tags)

    def test_touching_geometry_rejected(self):
        with pytest.raises(MeshError):
            build_mesh(two_disk_domain(0.0))

    def test_boundary_nodes_on_curves(self, mesh02):
        assert mesh02.boundary_node_residuals() <= 1e-12

    def test_node_off_its_curve_rejected(self):
        mesh = build_mesh(two_disk_domain(0.04), MeshParams(h_far=0.45))
        nodes = mesh.nodes.copy()
        nodes[mesh.nodes_with_tag(TAG_P2)[0]] *= 1.0 + 1e-9
        moved = Mesh(nodes, mesh.triangles, mesh.node_tags, mesh.domain)
        with pytest.raises(MeshError, match="boundary node off its curve"):
            _validate(moved)

    def test_quality_floor(self, mesh02):
        assert float(np.min(mesh02.quality())) >= QUALITY_FLOOR

    def test_mirror_symmetry(self, mesh02):
        assert_mirror_symmetric(mesh02)
        assert_mirror_symmetric(mesh02, axis=0)

    def test_flipped_diagonal_has_no_mirror(self, mesh02):
        """Mirrored nodes under a triangulation that is not mirrored give
        no symmetric energy, so the mesh reports no mirror."""
        flipped = flip_one_lower_diagonal(mesh02)
        assert np.array_equal(flipped.nodes, mesh02.nodes)
        assert float(np.sum(flipped.areas)) == pytest.approx(float(np.sum(mesh02.areas)), rel=1e-14)
        assert flipped.mirror is None

    def test_mirror_needs_particle_tags_exchanged(self, mesh02):
        tags = mesh02.node_tags.copy()
        tags[mesh02.node_tags == TAG_P1] = TAG_P2
        tags[mesh02.node_tags == TAG_P2] = TAG_P1
        swapped = Mesh(mesh02.nodes, mesh02.triangles, tags)
        assert np.array_equal(swapped.mirror, mesh02.mirror)
        tags[mesh02.node_tags == TAG_P2] = TAG_P2  # both particles tagged 2
        assert Mesh(mesh02.nodes, mesh02.triangles, tags).mirror is None

    def test_tags_present(self, mesh02):
        for tag in (TAG_OUTER, TAG_P1, TAG_P2):
            assert len(mesh02.nodes_with_tag(tag)) > 10

    def test_boundary_edges_closed_loops(self, mesh02):
        # each tagged curve is a closed loop: every boundary node has
        # exactly two incident boundary edges
        for tag in (TAG_OUTER, TAG_P1, TAG_P2):
            edges, _ = mesh02.boundary_edges[tag]
            counts = np.bincount(edges.ravel(), minlength=mesh02.n_nodes)
            touched = counts[counts > 0]
            assert np.all(touched == 2)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: build_mesh(two_disk_domain(0.02)), id="two-disk"),
        pytest.param(lambda: build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.1), id="annulus"),
    ])
    def test_boundary_edge_normals_point_out(self, make):
        # a boundary edge runs in the vertex order of its counterclockwise
        # owner, so its right-hand normal (t_y, -t_x) points out of the
        # domain; the neck-flux samples take their normals from this
        mesh = make()
        for tag, (edges, owners) in mesh.boundary_edges.items():
            a, b = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
            normal = np.column_stack([b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]])
            inward = mesh.centroids[owners] - 0.5 * (a + b)
            assert np.all(np.einsum("ei,ei->e", normal, inward) < 0.0), tag

    def test_finer_delta_meshes(self):
        m = build_mesh(two_disk_domain(0.0025))
        assert float(np.min(m.quality())) >= QUALITY_FLOOR

    def test_one_delaunay_per_mesh(self, monkeypatch):
        calls = []
        delaunay = mesh_module.Delaunay

        def counting_delaunay(pts):
            calls.append(len(pts))
            return delaunay(pts)

        monkeypatch.setattr(mesh_module, "Delaunay", counting_delaunay)
        build_mesh(two_disk_domain(0.01))
        assert len(calls) == 1

    @pytest.mark.parametrize("delta", [0.04, 0.0025])
    def test_ring_points_clear_the_boundary(self, monkeypatch, delta):
        # every interior node generated on the rings sits at least half a
        # local cell size inside the upper outer region
        seen = []
        ring_points = mesh_module._UpperRegion.ring_points

        def recording(region):
            pts = ring_points(region)
            seen.append((region, pts))
            return pts

        monkeypatch.setattr(mesh_module._UpperRegion, "ring_points", recording)
        build_mesh(two_disk_domain(delta))
        ((region, pts),) = seen
        assert len(pts) > 50
        assert np.all(region.signed_distance(pts) <= -0.5 * region.sizing_xy(pts[:, 0], pts[:, 1]))

    def test_bad_params_rejected(self):
        with pytest.raises(MeshError):
            MeshParams(neck_layers=3)
        with pytest.raises(MeshError):
            MeshParams(neck_layers=2)
        for bad in (0.0, -0.3, float("nan"), float("inf"), "0.3", None, True):
            with pytest.raises(MeshError, match="h_far"):
                MeshParams(h_far=bad)
        for bad in (8.0, True, "8"):
            with pytest.raises(MeshError, match="neck_layers"):
                MeshParams(neck_layers=bad)
        assert MeshParams(neck_layers=np.int64(8)).neck_layers == 8


class TestMergeOracle:
    """The array merge and edge keys reproduce the dict-and-loop mesher, and
    the constraint map the whole-mesh construction."""

    @pytest.mark.parametrize("delta", SweepConfig().deltas)
    def test_default_ladder(self, delta):
        build_checked_against_oracles(two_disk_domain(delta), SweepConfig().mesh_params())

    @pytest.mark.parametrize("delta", [0.00225, 0.0025, 0.00275])
    def test_fine_meshes(self, delta):
        mesh, _, _ = build_checked_against_oracles(
            two_disk_domain(delta), MeshParams(h_far=0.075, neck_layers=16)
        )
        assert mesh.n_nodes > 19_000

    def test_signed_zeros_tags_and_mirror_order(self):
        # a first-seen coordinate of -0.0 is stored as 0.0, so x = -0.0
        # and 0.0 merge; points repeated within the quarter merge too; an
        # interior node seen again with a boundary tag takes that tag; the
        # triangles of one reflection read (a, c, b)
        quarter_pts = np.array([[0.0, -0.0], [1.0, 0.0], [-0.0, 2.0], [0.0, 1.0],
                                [1.0, 0.0], [2.0, 0.0], [1.0, 1.0], [0.0, 2.0], [0.0, 1.0]])
        quarter_tags = np.array([TAG_INTERIOR, TAG_INTERIOR, TAG_P2, TAG_P2, TAG_OUTER,
                                 TAG_OUTER, TAG_INTERIOR, TAG_INTERIOR, TAG_P2], dtype=np.int8)
        quarter_tris = np.array([[0, 1, 3], [4, 5, 6], [4, 6, 8], [6, 7, 8]])
        args = (quarter_pts, quarter_tris, quarter_tags)
        nodes, tris, tags = mesh_module._merge_pieces(*args)
        for got, want in zip((nodes, tris, tags), merge_oracle(*args)):
            assert_same_bytes(got, want)
        assert not np.any(np.signbit(nodes[nodes == 0.0]))
        assert tags[1] == TAG_OUTER
        assert len(nodes) == 13
        assert len(tris) == 4 * 4
        # the mirrors read off the four images map each node onto its
        # reflection, the repeated and signed-zero points included (every
        # node tagged outer, so that the quarter's interior nodes on the
        # boundary make a valid mesh)
        mesh = Mesh(nodes, tris, np.full(len(nodes), TAG_OUTER, dtype=np.int8))
        assert np.array_equal(nodes[mesh.mirror], nodes * [1.0, -1.0])
        assert np.array_equal(nodes[mesh.x_mirror], nodes * [-1.0, 1.0])
        assert mesh.mirror.dtype == mesh.x_mirror.dtype == np.intp


class TestGeometryOracles:
    """The construction without full-size temporaries reproduces the
    whole-array bodies it replaced, and the mirrors read off the
    four-image layout those of the coordinate search; other layouts get
    none."""

    def test_annulus(self):
        assert_matches_geometry_oracles(build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.1))

    def test_loaded_from_text(self, mesh02, tmp_path):
        path = tmp_path / "mesh.txt"
        save_mesh_text(mesh02, path)
        loaded, _ = load_mesh_text(path)
        assert_matches_geometry_oracles(loaded)
        assert_same_bytes(loaded.mirror, mesh02.mirror)
        assert_same_bytes(loaded.x_mirror, mesh02.x_mirror)

    def test_flipped_diagonal(self, mesh02):
        """The flipped quad straddles x = 0 and is its own image, so the
        search still finds x -> -x; but the triangles are no longer the
        four images of a quarter, so the mesh reads no mirror off them."""
        mesh = flip_one_lower_diagonal(mesh02)
        assert mesh.mirror is None and mesh.x_mirror is None
        assert find_mirror_oracle(mesh, 0, _SAME_TAG) is not None
        assert_matches_geometry_oracles(mesh, mirrors=False)

    def test_clockwise_elements_reoriented(self, mesh02):
        raw = mesh02.triangles.copy()
        raw[::3] = raw[::3, [0, 2, 1]]
        mesh = Mesh(mesh02.nodes, raw.copy(), mesh02.node_tags)
        assert_same_bytes(mesh.triangles, mesh02.triangles)
        assert_matches_geometry_oracles(mesh, raw)

    @pytest.mark.parametrize("tags,message", [
        ([TAG_OUTER, TAG_OUTER, TAG_INTERIOR], "untagged endpoint"),
        ([TAG_OUTER, TAG_OUTER, TAG_P1], "straddling two boundary curves"),
    ])
    def test_boundary_edge_errors(self, tags, message):
        with pytest.raises(MeshError, match=message):
            Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]),
                 np.array(tags, dtype=np.int8))

    def test_caller_triangles_left_alone(self):
        """Reorienting a clockwise element builds a new array; the caller's
        is not rewritten.  Counterclockwise int64 triangles are taken as
        they are, without a copy."""
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tags = np.full(3, TAG_OUTER, dtype=np.int8)
        tris = np.array([[0, 2, 1]])
        mesh = Mesh(nodes, tris, tags)
        assert tris.tolist() == [[0, 2, 1]]
        assert mesh.triangles is not tris
        assert mesh.triangles.tolist() == [[0, 1, 2]]
        ccw = np.array([[0, 1, 2]])
        assert Mesh(nodes, ccw, tags).triangles is ccw

    @pytest.mark.parametrize("layout", ["reordered", "rotated"])
    def test_other_layouts_get_no_mirrors(self, mesh02, layout):
        """The same symmetric mesh with two triangles swapped, or with every
        element's vertices rotated, is not the four images in `_IMAGES`
        order: both mirrors are None, though the coordinate search still
        finds them."""
        if layout == "reordered":
            triangles = mesh02.triangles.copy()
            triangles[[0, 1]] = triangles[[1, 0]]
        else:
            triangles = np.roll(mesh02.triangles, 1, axis=1)
        mesh = Mesh(mesh02.nodes, triangles, mesh02.node_tags)
        assert mesh.mirror is None and mesh.x_mirror is None
        assert_same_bytes(find_mirror_oracle(mesh, 1, _MIRROR_TAG), mesh02.mirror)
        assert_same_bytes(find_mirror_oracle(mesh, 0, _SAME_TAG), mesh02.x_mirror)

    def test_one_ulp_breaks_the_x_mirror(self, mesh02):
        """A node on y = 0 moved by one ulp in x breaks x -> -x only: the
        node is its own image under y -> -y."""
        nodes = mesh02.nodes.copy()
        k = np.flatnonzero((nodes[:, 1] == 0.0) & (nodes[:, 0] > 0.0))[0]
        nodes[k, 0] = np.nextafter(nodes[k, 0], np.inf)
        mesh = Mesh(nodes, mesh02.triangles, mesh02.node_tags)
        assert mesh.x_mirror is None
        assert find_mirror_oracle(mesh, 0, _SAME_TAG) is None
        assert_same_bytes(mesh.mirror, mesh02.mirror)

    def test_reordered_mesh_solves_whole_to_rounding(self, mesh02):
        """The reordered mesh has no mirrors, so the floating p = 3 solve
        runs on the whole mesh; it agrees with the quarter solve to
        rounding.  Measured on this mesh: T1, T2 and the gap within 7.3e-16
        relative, the energy equal, and max |u - u_reduced| at 1.7e-14 of
        max |u| (7.6e-16 and 8.9e-15 for T1 and T2 on the delta = 0.01
        mesh); the bound 1e-12 leaves a factor of about 60 over the
        largest."""
        triangles = mesh02.triangles.copy()
        triangles[[0, 1]] = triangles[[1, 0]]
        whole = solver.solve_floating(Mesh(mesh02.nodes, triangles, mesh02.node_tags,
                                           mesh02.domain), p=3.0)
        reduced = solver.solve_floating(mesh02, p=3.0)
        assert (whole.parity, reduced.parity) == ((None, None), (-1, 1))
        for a, b in ((whole.T1, reduced.T1), (whole.T2, reduced.T2),
                     (whole.gap, reduced.gap), (whole.energy, reduced.energy)):
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)
        scale = np.max(np.abs(reduced.u))
        assert np.max(np.abs(whole.u - reduced.u)) <= 1e-12 * scale

    def test_build_memory_peak(self):
        """The traced peak (tracemalloc) of building the fine-p6 mesh at
        delta = 0.0025 stays below twice the arrays the mesh keeps.  It
        reads 1.74 times (7.45 MB for 4.29 MB) under numpy 2.4, so the
        bound leaves 15% above it; putting back the whole-array body of
        just one of `quality`, `_build_geometry` or
        `_build_boundary_edges` reads 2.23, 2.45 or 3.58 times, and all
        three 3.50 times (15.0 MB)."""
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            mesh = build_mesh(two_disk_domain(0.0025), MeshParams(h_far=0.075, neck_layers=16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        kept = [mesh.nodes, mesh.triangles, mesh.node_tags, mesh.areas, mesh.grads,
                mesh.centroids, mesh.mirror, mesh.x_mirror,
                *(a for edges in mesh.boundary_edges.values() for a in edges)]
        retained = sum(a.nbytes for a in kept)
        assert peak - base < 2.0 * retained, (peak - base, retained)


class TestOrderLoop:
    def test_follows_the_edge_direction_from_the_first_edge(self):
        edges = np.array([[3, 1], [1, 7], [5, 3], [7, 5]])
        assert _order_loop(edges).tolist() == [3, 1, 7, 5]

    @pytest.mark.parametrize("edges", [
        [[0, 1], [1, 2], [2, 3]],  # open chain
        [[0, 1], [2, 1], [2, 0]],  # inconsistently directed
    ])
    def test_open_loop_rejected(self, edges):
        with pytest.raises(MeshError, match="open boundary loop"):
            _order_loop(np.array(edges))

    @pytest.mark.parametrize("edges", [
        [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]],  # two loops
        [[0, 1], [1, 2], [2, 0], [0, 3], [3, 4], [4, 0]],  # pinched at node 0
    ])
    def test_not_one_loop_rejected(self, edges):
        with pytest.raises(MeshError, match="does not close consistently"):
            _order_loop(np.array(edges))


class TestMeshInvariants:
    """The mesh invariants across geometries, not only the defaults."""

    @given(
        R=st.floats(0.25, 4.0),
        delta_over_R=st.floats(0.002, 0.1),
        R_out_over_R=st.floats(2.2, 6.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, R, delta_over_R, R_out_over_R):
        delta = delta_over_R * R
        params = MeshParams(h_far=0.5 * R)
        domain = two_disk_domain(delta, R=R, R_out=R_out_over_R * R)
        mesh, (quarter_pts, quarter_tris, quarter_tags), tri = (
            build_checked_against_oracles(domain, params))
        assert_mirror_symmetric(mesh)
        assert_mirror_symmetric(mesh, axis=0)
        # at least 4 layers across the gap: >= 5 nodes on the x = 0 column inside it
        on_axis = mesh.nodes[mesh.nodes[:, 0] == 0.0]
        assert np.sum(np.abs(on_axis[:, 1]) <= 0.5 * delta * (1 + 1e-12)) >= 5
        # the mirror reduction's precondition: no element crosses either
        # axis (each is a row of element edges), so the elements with no
        # vertex below the x-axis are half the mesh, their images are the
        # other half, and those with no vertex left of the y-axis either
        # are a quarter
        for axis, node_map in ((1, mesh.mirror), (0, mesh.x_mirror)):
            c = mesh.nodes[mesh.triangles, axis]
            assert not np.any((c.min(axis=1) < 0.0) & (c.max(axis=1) > 0.0))
            assert 2 * np.count_nonzero(~np.any(c < 0.0, axis=1)) == mesh.n_triangles
            cc = mesh.centroids[:, axis]
            assert not np.any(cc == 0.0)
            assert 2 * np.sum(cc > 0.0) == mesh.n_triangles
            negative = set(map(tuple, np.sort(mesh.triangles[cc < 0.0], axis=1)))
            images = np.sort(node_map[mesh.triangles[cc > 0.0]], axis=1)
            assert all(tuple(t) in negative for t in images)
        quarter = ~np.any(mesh.nodes[mesh.triangles] < 0.0, axis=(1, 2))
        assert 4 * np.count_nonzero(quarter) == mesh.n_triangles
        # the quarter's triangles and their three images are every triangle
        assert 4 * len(quarter_tris) == mesh.n_triangles
        # every node is (+-x, +-y) of a point of the quarter, its tag that
        # point's with the particles swapped in the images under y -> -y
        quarter_tag = {(x + 0.0, y + 0.0): int(t)
                       for (x, y), t in zip(map(tuple, quarter_pts), quarter_tags)}
        swap = {TAG_P1: TAG_P2, TAG_P2: TAG_P1}
        for (x, y), t in zip(map(tuple, mesh.nodes), mesh.node_tags):
            want = quarter_tag[(abs(x), abs(y))]
            assert int(t) == (swap.get(want, want) if y < 0.0 else want)
        # every point the outer quarter's Delaunay got is a vertex of it,
        # the fixed points on x = 0 and y = 0 among them
        assert len(tri.coplanar) == 0
        assert np.count_nonzero(tri.points[:, 0] == 0.0) >= 2
        assert np.count_nonzero(tri.points[:, 1] == 0.0) >= 2
        _validate(mesh)
        assert mesh.boundary_node_residuals() <= 1e-12


def flip_one_lower_diagonal(mesh):
    """The mesh with the diagonal of one convex quad below the axis flipped."""
    tris = mesh.triangles.copy()
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]

    def orient(a, b, c):
        return (x[b] - x[a]) * (y[c] - y[a]) - (x[c] - x[a]) * (y[b] - y[a])

    owners = {}
    for e in np.flatnonzero(np.all(y[tris] < 0.0, axis=1)):
        for k in range(3):
            edge = tuple(sorted((int(tris[e, k]), int(tris[e, (k + 1) % 3]))))
            owners.setdefault(edge, []).append(e)
    for (a, b), elements in owners.items():
        if len(elements) != 2:
            continue
        c, d = (int(next(v for v in tris[e] if v not in (a, b))) for e in elements)
        if orient(c, d, a) * orient(c, d, b) < 0.0:  # the quad a, c, b, d is convex
            tris[elements] = [[c, d, a], [d, c, b]]
            return Mesh(mesh.nodes, tris, mesh.node_tags, mesh.domain)
    raise AssertionError("no convex quad below the axis")


class TestAnnulusMesh:
    def test_single_inclusion_has_no_mirror(self):
        # the inner circle maps onto itself, not onto a second particle
        assert build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.2).mirror is None

    def test_structure_and_tags(self):
        mesh = build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.1)
        r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
        assert np.all(r >= 1.0 - 1e-12)
        assert np.all(r <= 2.0 + 1e-12)
        inner = mesh.nodes_with_tag(TAG_P1)
        outer = mesh.nodes_with_tag(TAG_OUTER)
        assert np.allclose(r[inner], 1.0)
        assert np.allclose(r[outer], 2.0)

    def test_refinement_scales_counts(self):
        n1 = build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.1).n_nodes
        n2 = build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.05).n_nodes
        assert 3.0 <= n2 / n1 <= 5.0

    def test_area_covered(self):
        mesh = build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.02)
        assert float(np.sum(mesh.areas)) == pytest.approx(3 * np.pi, rel=1e-3)

    def test_annulus_validation(self):
        with pytest.raises(GeometryError):
            AnnulusSpec(2.0, 1.0)


class TestSerialization:
    def test_round_trip(self, mesh02, tmp_path):
        path = tmp_path / "mesh.txt"
        values = np.linspace(0.0, 1.0, mesh02.n_nodes)
        save_mesh_text(mesh02, path, values=values)
        loaded, vals = load_mesh_text(path)
        assert np.array_equal(loaded.nodes, mesh02.nodes)
        assert np.array_equal(loaded.triangles, mesh02.triangles)
        assert np.array_equal(loaded.node_tags, mesh02.node_tags)
        assert np.array_equal(loaded.mirror, mesh02.mirror)
        assert np.array_equal(loaded.x_mirror, mesh02.x_mirror)
        assert loaded.x_mirror is not None
        assert np.array_equal(vals, values)

    def test_no_values(self, tmp_path):
        mesh = build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.2)
        path = tmp_path / "mesh.txt"
        save_mesh_text(mesh, path)
        loaded, vals = load_mesh_text(path)
        assert vals is None
        assert loaded.n_triangles == mesh.n_triangles


class TestLoadValidation:
    """A damaged text file raises MeshError instead of loading short."""

    @staticmethod
    def saved_lines(tmp_path):
        mesh = build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.2)
        path = tmp_path / "mesh.txt"
        save_mesh_text(mesh, path, values=np.zeros(mesh.n_nodes))
        return path, path.read_text().splitlines(keepends=True)

    @staticmethod
    def first(lines, record):
        return next(i for i, line in enumerate(lines) if line.startswith(record + " "))

    @pytest.mark.parametrize("record", ["node", "tri", "value"])
    def test_missing_record(self, tmp_path, record):
        path, lines = self.saved_lines(tmp_path)
        last = max(i for i, line in enumerate(lines) if line.startswith(record + " "))
        path.write_text("".join(lines[:last] + lines[last + 1:]))
        with pytest.raises(MeshError, match=f"{record} records, the counts header"):
            load_mesh_text(path)

    def test_missing_counts(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("".join(line for line in lines if not line.startswith("counts")))
        with pytest.raises(MeshError, match="no counts header"):
            load_mesh_text(path)

    def test_unknown_tag(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        k = self.first(lines, "node")
        lines[k] = lines[k].replace("particle1", "particle9")
        path.write_text("".join(lines))
        with pytest.raises(MeshError, match=f"line {k + 1}: .*unknown tag 'particle9'"):
            load_mesh_text(path)

    @pytest.mark.parametrize("records", [
        "counts 0 0 0\n",
        "counts 3 0 0\nnode 0 0.0 0.0 outer\nnode 1 1.0 0.0 outer\nnode 2 0.0 1.0 outer\n",
    ], ids=["no-nodes", "no-triangles"])
    def test_empty_mesh(self, tmp_path, records):
        path = tmp_path / "empty.txt"
        path.write_text("# gaplaw mesh/text v1\n" + records)
        with pytest.raises(MeshError, match="describes a mesh with no triangles") as exc:
            load_mesh_text(path)
        assert str(exc.value).startswith(f"{path}: ")

    @staticmethod
    def triangle_file(tmp_path, node2="node 2 0.0 1.0 outer", tri="tri 0 0 1 2"):
        path = tmp_path / "triangle.txt"
        path.write_text("# gaplaw mesh/text v1\ncounts 3 1 0\nnode 0 0.0 0.0 outer\n"
                        f"node 1 1.0 0.0 outer\n{node2}\n{tri}\n")
        return path

    def test_collinear_triangle(self, tmp_path):
        path = self.triangle_file(tmp_path, node2="node 2 2.0 0.0 outer")
        with pytest.raises(MeshError, match="degenerate or inverted triangle"):
            load_mesh_text(path)

    def test_sliver_below_quality_floor(self, tmp_path):
        """The unit square fanned about an interior node 0.001 above its
        bottom side tiles the square, but with a sliver."""
        corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        path = tmp_path / "sliver.txt"
        path.write_text(
            "# gaplaw mesh/text v1\ncounts 5 4 0\n"
            + "".join(f"node {i} {x} {y} outer\n" for i, (x, y) in enumerate(corners))
            + "node 4 0.5 0.001 interior\n"
            + "".join(f"tri {i} {i} {(i + 1) % 4} 4\n" for i in range(4))
        )
        with pytest.raises(MeshError, match="element quality .* below floor"):
            load_mesh_text(path)

    def test_second_counts_header(self, tmp_path):
        """A later header once silently replaced the first."""
        path = self.triangle_file(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1] + ["counts 99 99 0\n"] + lines[1:]))
        with pytest.raises(MeshError, match=r"line 3: malformed counts record "
                                            r"\(a second counts header\)"):
            load_mesh_text(path)

    @pytest.mark.parametrize("flag", [2, -1])
    def test_values_flag_not_0_or_1(self, tmp_path, flag):
        """A flag of 2 was once read as "has values"."""
        path = self.triangle_file(tmp_path)
        text = path.read_text().replace("counts 3 1 0", f"counts 3 1 {flag}")
        path.write_text(text + "".join(f"value {i} 0.0\n" for i in range(3)))
        with pytest.raises(MeshError, match=f"line 2: malformed counts record "
                                            fr"\(values flag {flag}, expected 0 or 1\)"):
            load_mesh_text(path)

    def test_older_file_with_sizes_record_loads(self, tmp_path):
        path = self.triangle_file(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2] + ["sizes 0.005 0.3\n"] + lines[2:]))
        mesh, values = load_mesh_text(path)
        assert (mesh.n_nodes, mesh.n_triangles, values) == (3, 1, None)

    def test_duplicated_element(self, tmp_path):
        """An element given twice, the counts header bumped to match, covers
        its area twice; it once loaded and solved with no error."""
        path, lines = self.saved_lines(tmp_path)
        tris = [i for i, line in enumerate(lines) if line.startswith("tri ")]
        k = tris[len(tris) // 2]  # an element of the middle ring, off the boundary
        c = self.first(lines, "counts")
        n_nodes, n_tris, has_values = lines[c].split()[1:]
        lines[c] = f"counts {n_nodes} {int(n_tris) + 1} {has_values}\n"
        lines.insert(tris[-1] + 1, f"tri {n_tris} {lines[k].split(maxsplit=2)[2]}")
        path.write_text("".join(lines))
        with pytest.raises(MeshError, match="mesh does not tile the domain"):
            load_mesh_text(path)

    @pytest.mark.parametrize("vertex", [7, 3, -1])
    def test_vertex_outside_node_range(self, tmp_path, vertex):
        path = self.triangle_file(tmp_path, tri=f"tri 0 0 1 {vertex}")
        with pytest.raises(MeshError, match=r"line 6: tri record has a vertex outside \[0, 3\)"):
            load_mesh_text(path)

    @pytest.mark.parametrize("coordinate", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate(self, tmp_path, coordinate):
        path = self.triangle_file(tmp_path, node2=f"node 2 {coordinate} 1.0 outer")
        with pytest.raises(MeshError, match="line 5: malformed node record .*non-finite"):
            load_mesh_text(path)

    @pytest.mark.parametrize("record", ["node", "tri", "value"])
    def test_index_differs_from_position(self, tmp_path, record):
        """A record is not renumbered by its place in the file."""
        path, lines = self.saved_lines(tmp_path)
        k = self.first(lines, record)
        lines[k] = lines[k].replace(f"{record} 0 ", f"{record} 1 ", 1)
        path.write_text("".join(lines))
        with pytest.raises(MeshError, match=f"line {k + 1}: malformed {record} record "
                                            r"\(index 1, expected 0\)"):
            load_mesh_text(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, value):
        path, lines = self.saved_lines(tmp_path)
        k = self.first(lines, "value")
        lines[k] = f"value 0 {value}\n"
        path.write_text("".join(lines))
        with pytest.raises(MeshError, match=f"line {k + 1}: malformed value record .*non-finite"):
            load_mesh_text(path)

    @pytest.mark.parametrize("record,damage", [
        ("tri", lambda line: line.rsplit(" ", 1)[0] + "\n"),  # one vertex short
        ("node", lambda line: line.replace("node 0 ", "node 0 x")),
        ("value", lambda line: "value 0\n"),
    ])
    def test_malformed_record(self, tmp_path, record, damage):
        path, lines = self.saved_lines(tmp_path)
        k = self.first(lines, record)
        lines[k] = damage(lines[k])
        path.write_text("".join(lines))
        with pytest.raises(MeshError, match=f"line {k + 1}: malformed {record} record"):
            load_mesh_text(path)
