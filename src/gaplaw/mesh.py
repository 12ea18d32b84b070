"""Body-fitted graded triangulations of the two-disk domain.

The two-disk mesh is built on the quarter x >= 0, y >= 0 and reflected.
The quarter has two conforming parts:

1. the quarter of a structured strip through the neck: vertical node
   columns from x = 0 to the strip half-width, each from the axis y = 0
   up to particle 2 in half of a fixed (even) number of layers across the
   local gap, so cell size tracks the gap width delta + x^2/R;
2. an unstructured triangulation of the quarter of the outer region.
   Boundary and interface nodes are marched along their curves and held
   fixed, the strip's right column, the seam on y = 0 and the segment of
   x = 0 between particle 2 and the outer circle among them; the seam and
   the segment are straight sides of the hull.  The interior nodes lie on
   offset curves ("rings") of the strip box at distances d_1 = h(0),
   d_{k+1} = d_k + h(d_k), where h is a Lipschitz-graded sizing field of
   the distance from the box; each ring carries points at arc-length
   spacing about h(d_k), every other ring shifted by half a step, and a
   point is kept only if it lies at least h/2 inside the quarter.  One
   Delaunay triangulation joins them all.

One array merge (`_merge_pieces`) joins the quarter and its three images
under x -> -x, y -> -y and both; negation is the only operation on a
coordinate.  All points are numbered in order of first appearance under
`np.unique` over the bytes of (x + 0.0, y + 0.0), so points with equal
coordinates, the strip's right column shared by both parts and the sides
on the axes, become one node, whose tag is the first boundary tag seen
for it.  Boundary edges are found by one sort of the integer keys
a * n + b of their sorted ends, formed straight from the vertex columns.
The areas, P1 gradients and centroids read one (m, 3, 2) gather of the
vertex coordinates (`Mesh._build_geometry`); the gradients are written
into one preallocated array, and the quality's side lengths come from
the coordinate columns.  Only the marching along the boundary curves and
the walk around each boundary loop in `_validate` go node by node in
Python.

So the whole mesh is symmetric under y -> -y and under x -> -x as a set
of nodes and elements, and its triangles are the four images of the
quarter's in order; `Mesh` reads both node permutations off that layout
(`Mesh.mirror` and `Mesh.x_mirror`, checked exactly, so a mesh saved and
loaded as text keeps them), and the solver uses them to solve on a half
or a quarter of the unknowns under odd or even data.  A mesh whose
triangles are laid out otherwise gets no mirrors and is solved whole.
Construction involves no random numbers: fixed inputs give a
bitwise-identical mesh.  The particle surfaces and centres are read from
the `ParticlePair` (`upper_arc_y`, `center2`), never re-derived here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.spatial import Delaunay

from .geometry import DomainSpec, ParticlePair, gap_width

__all__ = [
    "TAG_INTERIOR",
    "TAG_OUTER",
    "TAG_P1",
    "TAG_P2",
    "MeshParams",
    "Mesh",
    "MeshError",
    "build_mesh",
    "save_mesh_text",
    "load_mesh_text",
]

TAG_INTERIOR = 0
TAG_OUTER = 1
TAG_P1 = 2
TAG_P2 = 3

_TAG_NAMES = {TAG_INTERIOR: "interior", TAG_OUTER: "outer", TAG_P1: "particle1", TAG_P2: "particle2"}
# a node's tag -> its mirror image's under y -> -y: the particles swap;
# under x -> -x each particle maps onto itself
_MIRROR_TAG = np.array([TAG_INTERIOR, TAG_OUTER, TAG_P2, TAG_P1], dtype=np.int8)
_SAME_TAG = np.array([TAG_INTERIOR, TAG_OUTER, TAG_P1, TAG_P2], dtype=np.int8)


class MeshError(RuntimeError):
    """Raised for infeasible meshing requests or failed quality gates."""


STRIP_HALFWIDTH = 0.5  # half-width of the structured strip, in units of R
GRADING = 0.3  # Lipschitz constant of the sizing field outside the strip
QUALITY_FLOOR = 0.02  # smallest admissible element quality
STRIP_ASPECT = 1.4  # width/height ratio of the structured strip cells


def require_real(config, error=ValueError) -> None:
    """Raise `error` naming the first `float` field of a dataclass config
    that holds no real number (a bool is none), before a comparison fails
    on it."""
    for name in (f.name for f in fields(config) if f.type in (float, "float")):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class MeshParams:
    """Resolution of the two-disk mesh.

    `h_far` is the cell size far from the gap.  `neck_layers` is the
    number of element layers across the gap at x = 0 (even, >= 4, so the
    neck target size h_neck = delta/neck_layers stays <= delta/4).
    The strip half-width, the strip cells' aspect ratio, the grading and
    the quality floor are the module constants STRIP_HALFWIDTH,
    STRIP_ASPECT, GRADING and QUALITY_FLOOR.
    """

    h_far: float = 0.3
    neck_layers: int = 4

    def __post_init__(self):
        if not (isinstance(self.neck_layers, numbers.Integral)
                and not isinstance(self.neck_layers, bool)
                and self.neck_layers >= 4 and self.neck_layers % 2 == 0):
            raise MeshError(f"neck_layers must be an even integer >= 4, got {self.neck_layers!r}")
        require_real(self, MeshError)
        if not 0.0 < self.h_far < math.inf:
            raise MeshError(f"h_far must be positive and finite, got {self.h_far}")


@dataclass
class Mesh:
    """Conforming triangle mesh with tagged boundary nodes.

    nodes: (n, 2) float; triangles: (m, 3) int (counterclockwise);
    node_tags: (n,) int with the TAG_* constants.  Geometry arrays
    (areas, P1 gradient operators, centroids, boundary edges) are
    computed once at construction.

    `mirror` is the node permutation under y -> -y, or None, and
    `x_mirror` the one under x -> -x.  Each is read off `triangles` laid
    out as `build_mesh` makes them, the four images of one quarter in
    `_IMAGES` order, and kept only when the mesh is symmetric as a whole:
    the other coordinate equal and the reflected one negated exactly,
    interior and outer tags mapped onto themselves, particle 1 onto
    particle 2 under `mirror` and each particle onto itself under
    `x_mirror`, and the elements onto the element set (mirrored nodes
    under a different triangulation do not give a symmetric energy).
    Triangles in any other layout (reordered, their vertices rotated,
    or made by hand) get no mirrors, and the solver then works on the
    whole mesh.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    node_tags: np.ndarray
    domain: object = None

    areas: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)
    centroids: np.ndarray = field(init=False, repr=False)
    boundary_edges: dict = field(init=False, repr=False)
    mirror: np.ndarray | None = field(init=False, repr=False)
    x_mirror: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.node_tags = np.ascontiguousarray(self.node_tags, dtype=np.int8)
        self._build_geometry()
        self._build_boundary_edges()
        self.mirror = self._image_map(1, _MIRROR_TAG)
        self.x_mirror = self._image_map(0, _SAME_TAG)

    # -- construction helpers -------------------------------------------------

    def _build_geometry(self):
        """Orient the elements counterclockwise, then take their areas,
        P1 gradients and centroids from the same determinant: swapping
        two vertices negates it exactly."""
        p = self.nodes[self.triangles]
        x, y = p[..., 0], p[..., 1]  # views: they follow the swap below
        det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
            y[:, 1] - y[:, 0]
        )
        flip = det < 0
        if np.any(flip):  # a new array: the caller's may be the same object
            self.triangles = np.where(flip[:, None], self.triangles[:, [0, 2, 1]],
                                      self.triangles)
            p[flip] = p[flip][:, [0, 2, 1]]
            det[flip] = -det[flip]
        if np.any(det <= 0):
            raise MeshError("degenerate or inverted triangle in mesh")
        self.areas = 0.5 * det
        # P1 basis gradients: grads[e, :, k] = grad of hat function at local
        # node k, written column by column and scaled in place
        grads = np.empty((len(det), 2, 3))
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            np.subtract(y[:, i], y[:, j], out=grads[:, 0, k])
            np.subtract(x[:, j], x[:, i], out=grads[:, 1, k])
        grads /= det[:, None, None]
        self.grads = grads
        self.centroids = p.mean(axis=1)

    def _build_boundary_edges(self):
        """Boundary edges, in the order of their keys a * n + b (a < b the
        sorted ends, so the key orders as the pair (a, b) does), each with
        the element that owns it; an edge is a boundary edge when no other
        element shares it."""
        tris, n = self.triangles, self.n_nodes
        m = len(tris)
        # edge j of element e, (tris[e, j], tris[e, (j + 1) % 3]), has index j * m + e
        key = np.empty(3 * m, dtype=np.int64)
        for j in range(3):
            a, b, part = tris[:, j], tris[:, (j + 1) % 3], key[j * m:(j + 1) * m]
            np.minimum(a, b, out=part)
            part *= n
            part += np.maximum(a, b)
        order = np.argsort(key)
        key.sort()  # key[order], sorted in place
        # a key that differs from both sorted neighbours occurs once
        differs = key[1:] != key[:-1]
        lone = np.ones(3 * m, dtype=bool)
        lone[1:] &= differs
        lone[:-1] &= differs
        bidx = order[lone]
        bowner, j = bidx % m, bidx // m
        bedges = np.empty((len(bidx), 2), dtype=tris.dtype)
        bedges[:, 0] = tris[bowner, j]
        bedges[:, 1] = tris[bowner, (j + 1) % 3]
        out = {}
        t1 = self.node_tags[bedges[:, 0]]
        t2 = self.node_tags[bedges[:, 1]]
        if np.any(t1 == TAG_INTERIOR) or np.any(t2 == TAG_INTERIOR):
            raise MeshError("boundary edge with an untagged endpoint")
        if np.any(t1 != t2):
            raise MeshError("boundary edge straddling two boundary curves")
        for tag in (TAG_OUTER, TAG_P1, TAG_P2):
            sel = t1 == tag
            out[tag] = (bedges[sel], bowner[sel])
        self.boundary_edges = out

    def _image_map(self, axis: int, image_tag: np.ndarray) -> np.ndarray | None:
        """The node permutation under the reflection that negates
        coordinate `axis`, read off triangles that are the four images of
        one quarter in `_IMAGES` order: image b's partner is
        b ^ (1 << axis), and each of its triangles (a, b, c) is its
        partner's (a, c, b).  None unless that map is an involution of
        the node indices that negates the reflected coordinate, keeps the
        other, maps the tags by `image_tag` and the images onto each
        other."""
        n, m = self.n_nodes, self.n_triangles
        if n == 0 or m % len(_IMAGES):
            return None
        images = self.triangles.reshape(len(_IMAGES), -1, 3)
        flip = 1 << axis
        perm = np.full(n, -1, dtype=np.intp)
        for b in range(len(_IMAGES)):
            perm[images[b]] = images[b ^ flip][:, [0, 2, 1]]
        if not (0 <= perm.min() and np.array_equal(perm[perm], np.arange(n))):
            return None
        c, other = self.nodes[:, axis], self.nodes[:, 1 - axis]
        if not (np.array_equal(c[perm], -c) and np.array_equal(other[perm], other)
                and np.array_equal(self.node_tags[perm], image_tag[self.node_tags])):
            return None
        if not all(np.array_equal(perm[images[b]], images[b ^ flip][:, [0, 2, 1]])
                   for b in range(len(_IMAGES))):
            return None
        return perm

    # -- queries --------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def nodes_with_tag(self, tag: int) -> np.ndarray:
        return np.flatnonzero(self.node_tags == tag)

    def quality(self) -> np.ndarray:
        """Per-element inradius/circumradius ratio (equilateral = 1/2)."""
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        t = self.triangles

        def side(i, j):  # as np.linalg.norm takes it: sqrt(dx * dx + dy * dy)
            dx, dy = x[t[:, i]] - x[t[:, j]], y[t[:, i]] - y[t[:, j]]
            return np.sqrt(dx * dx + dy * dy)

        a, b, c = side(1, 2), side(2, 0), side(0, 1)
        s = 0.5 * (a + b + c)
        inr = self.areas / s
        circ = a * b * c / (4.0 * self.areas)
        return inr / circ

    def boundary_node_residuals(self) -> float:
        """Max distance of tagged nodes from their curves, scaled by R."""
        dom = self.domain
        worst = 0.0
        if isinstance(dom, DomainSpec):
            R = dom.pair.R
            for tag, (cx, cy, rr) in {
                TAG_OUTER: (0.0, 0.0, dom.R_out),
                TAG_P1: (*dom.pair.center1, R),
                TAG_P2: (*dom.pair.center2, R),
            }.items():
                idx = self.nodes_with_tag(tag)
                d = np.hypot(self.nodes[idx, 0] - cx, self.nodes[idx, 1] - cy)
                worst = max(worst, float(np.max(np.abs(d - rr))) / R)
        return worst


# -----------------------------------------------------------------------------
# marching helpers
# -----------------------------------------------------------------------------


def _march_interval(a: float, b: float, step) -> np.ndarray:
    """Points from a to b (inclusive) with local spacing step(t), rescaled
    so the endpoints land exactly."""
    ts = [a]
    guard = 0
    while ts[-1] < b:
        dt = step(ts[-1])
        if dt <= 0:
            raise MeshError("nonpositive marching step")
        ts.append(ts[-1] + dt)
        guard += 1
        if guard > 2_000_000:
            raise MeshError("marching failed to terminate")
    ts = np.asarray(ts)
    ts = a + (ts - a) * ((b - a) / (ts[-1] - a))
    ts[0], ts[-1] = a, b
    return ts


# -----------------------------------------------------------------------------
# structured neck strip
# -----------------------------------------------------------------------------


def _build_strip(pair: ParticlePair, params: MeshParams, xs_half: float):
    """The quarter x >= 0, y >= 0 of the structured strip: nodes,
    triangles and tags.

    Node (i, j) sits at column x_i, height fraction j/N across the local
    gap, for the rows j = N/2 (on y = 0) to N (on particle 2).  The
    columns run from 0 to the half-width xs_half, spaced STRIP_ASPECT times
    the local cell height.  Quad (i, j) takes the diagonal that alternates
    with i + j counted from the leftmost column of the whole strip, K - 1
    columns left of x = 0 for K columns here, so the quarter's images
    continue the pattern.
    """
    N = params.neck_layers
    xs = _march_interval(0.0, xs_half, lambda x: STRIP_ASPECT * gap_width(x, pair) / N)
    K = len(xs)
    rows = np.arange(N // 2, N + 1)
    y = gap_width(xs, pair)[:, None] * (2 * rows - N) / (2 * N)
    nodes = np.column_stack([np.repeat(xs, len(rows)), y.ravel()])
    tags = np.zeros(y.shape, dtype=np.int8)
    tags[:, -1] = TAG_P2

    # quads (i, j) with corners a, b, c, d counterclockwise from node (i, j)
    i = np.arange(K - 1)[:, None]
    j = rows[:-1]
    a = i * len(rows) + j - N // 2
    b, c, d = a + len(rows), a + len(rows) + 1, a + 1
    tris = np.where(
        ((i + K - 1 + j) % 2 == 0)[..., None, None],
        np.stack([np.stack([a, b, c], -1), np.stack([a, c, d], -1)], -2),
        np.stack([np.stack([a, b, d], -1), np.stack([b, c, d], -1)], -2),
    )
    return nodes, tris.reshape(-1, 3), tags.ravel()


# -----------------------------------------------------------------------------
# outer region (the quarter x >= 0, y >= 0)
# -----------------------------------------------------------------------------


class _UpperRegion:
    """Inside test, approximate signed distance, and sizing field for the
    quarter of the outer region that is meshed: the outer disk minus
    particle 2 minus the strip, with x > 0 and y > 0."""

    def __init__(self, domain: DomainSpec, params: MeshParams, xs_half: float, h_ifc: float):
        self.R_out = domain.R_out
        self.pair = domain.pair
        self.xs_half = xs_half
        self.y_box = float(self.pair.upper_arc_y(xs_half))
        self.h_ifc = h_ifc
        self.h_far = params.h_far

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        d_out = np.hypot(x, y) - self.R_out
        d_p2 = self.pair.R - np.hypot(x, y - self.pair.center2[1])
        xc = np.clip(np.abs(x), 0.0, self.pair.R * (1.0 - 1e-12))
        d_strip = np.minimum(self.xs_half - np.abs(x), self.pair.upper_arc_y(xc) - y)
        return np.maximum.reduce([d_out, d_p2, d_strip, -x, -y])

    def size_at(self, dist):
        """Target cell size at distance `dist` from the strip box."""
        return np.minimum(self.h_far, self.h_ifc + GRADING * dist)

    def sizing_xy(self, x, y):
        """Target cell size at coordinates x, y: arrays, or the scalars of
        one point (the boundary marching), through the same ufuncs."""
        dx = np.maximum(np.abs(x) - self.xs_half, 0.0)
        dy = np.maximum(np.abs(y) - self.y_box, 0.0)
        return self.size_at(np.hypot(dx, dy))

    def _offset_curve(self, d: float, s: np.ndarray) -> np.ndarray:
        """Points at arc length s along the quarter of the curve at
        distance d outside the box [0, xs_half] x [0, y_box]: right side,
        corner arc, top, from (xs_half + d, 0) at s = 0 to (0, y_box + d)
        at s = y_box + pi d / 2 + xs_half."""
        xs, yb = self.xs_half, self.y_box
        q = 0.5 * math.pi * d
        th = np.clip((s - yb) / d, 0.0, 0.5 * math.pi)
        side, arc = s < yb, s < yb + q
        x = np.where(side, xs + d, np.where(arc, xs + d * np.cos(th), yb + q + xs - s))
        y = np.where(side, s, np.where(arc, yb + d * np.sin(th), yb + d))
        return np.column_stack([x, y])

    def ring_points(self) -> np.ndarray:
        """Interior nodes on offset curves of the strip box.

        Ring k sits at distance d_k (d_1 = h(0), d_{k+1} = d_k + h(d_k)).
        Its points are spaced evenly, about h(d_k) apart, along the upper
        half of the offset curve, every other ring shifted by half a step,
        and only those on the quarter are made; of these, only points at
        least half a local size inside the region are kept.
        """
        d_end = self.R_out + self.xs_half + self.y_box
        rings = []
        d = float(self.size_at(0.0))
        while d <= d_end:
            h = float(self.size_at(d))
            half = self.y_box + self.xs_half + 0.5 * math.pi * d
            n = max(1, round(2.0 * half / h))
            s = np.arange(0.5 * (len(rings) % 2), n + 0.5) * (2.0 * half / n)
            rings.append(self._offset_curve(d, s[s <= half]))
            d += h
        pts = np.vstack(rings)
        return pts[self.signed_distance(pts) < -0.5 * self.sizing_xy(pts[:, 0], pts[:, 1])]


def _arc_points(center, radius, phi_a, phi_b, step_fn, endpoint_a, endpoint_b):
    """Nodes along a circular arc from phi_a to phi_b; endpoints are the
    exact coordinates provided (shared with neighboring patches)."""

    def step(phi):
        x = center[0] + radius * math.cos(phi)
        y = center[1] + radius * math.sin(phi)
        return step_fn(x, y) / radius

    phis = _march_interval(phi_a, phi_b, step)
    inner = phis[1:-1]
    pts = np.column_stack(
        [center[0] + radius * np.cos(inner), center[1] + radius * np.sin(inner)]
    )
    return np.vstack([[endpoint_a], pts, [endpoint_b]])


def build_mesh(domain: DomainSpec, params: MeshParams | None = None) -> Mesh:
    """Graded conforming triangulation of the two-disk domain.

    Deterministic for fixed inputs.  Raises MeshError for delta = 0
    (touching disks cannot be meshed; use the tied-solve ladder instead)
    or when the quality floor is violated.
    """
    params = params or MeshParams()
    pair = domain.pair
    if pair.delta <= 0.0:
        raise MeshError(
            "touching geometry (delta = 0) is not meshable; approximate the "
            "limit with a ladder of small positive delta"
        )
    N = params.neck_layers
    xs_half = STRIP_HALFWIDTH * pair.R
    strip_pts, strip_tris, strip_tags = _build_strip(pair, params, xs_half)
    h_ifc = gap_width(xs_half, pair) / N
    region = _UpperRegion(domain, params, xs_half, h_ifc)

    def hsize(x, y):
        return float(region.sizing_xy(x, y))

    # fixed boundary nodes of the outer quarter ------------------------------
    right = strip_pts[-(N // 2 + 1):]  # the strip's right column, from y = 0 up
    corner = right[-1]  # (+xs_half, on particle 2)

    center2 = pair.center2
    top = np.array([0.0, center2[1] + pair.R])  # where particle 2 meets the axis x = 0
    phi = math.atan2(corner[1] - center2[1], corner[0])
    arc2 = _arc_points(center2, pair.R, phi, 0.5 * math.pi, hsize, corner, top)

    outer_right = np.array([domain.R_out, 0.0])
    outer_top = np.array([0.0, domain.R_out])
    outer_arc = _arc_points(
        (0.0, 0.0), domain.R_out, 0.0, 0.5 * math.pi, hsize, outer_right, outer_top
    )

    # the two straight sides: the seam on y = 0 and the segment of x = 0
    # above particle 2, both without their end points
    seam = _march_interval(xs_half, domain.R_out, lambda x: hsize(x, 0.0))[1:-1]
    axis = _march_interval(top[1], domain.R_out, lambda y: hsize(0.0, y))[1:-1]
    seam_pts = np.column_stack([seam, np.zeros(len(seam))])
    axis_pts = np.column_stack([np.zeros(len(axis)), axis])

    fixed_parts = [
        (arc2, TAG_P2),
        (outer_arc, TAG_OUTER),
        (seam_pts, TAG_INTERIOR),
        (axis_pts, TAG_INTERIOR),
        (right[:-1], TAG_INTERIOR),
    ]
    fixed = np.vstack([p for p, _ in fixed_parts if len(p)])
    fixed_tags = np.concatenate(
        [np.full(len(p), t, dtype=np.int8) for p, t in fixed_parts if len(p)]
    )

    interior = region.ring_points()
    outer_pts = np.vstack([fixed, interior])
    tri = Delaunay(outer_pts)
    p = outer_pts[tri.simplices]
    keep = region.signed_distance(p.mean(axis=1)) < 0.0
    area2 = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])
    keep &= np.abs(area2) > 1e-14 * region.h_ifc**2

    # the quarter: the strip's, then the outer region's (which repeats the
    # strip's right column; the merge makes each of those points one node)
    quarter_pts = np.vstack([strip_pts, outer_pts])
    quarter_tris = np.concatenate([strip_tris, len(strip_pts) + tri.simplices[keep]])
    quarter_tags = np.concatenate(
        [strip_tags, fixed_tags, np.full(len(interior), TAG_INTERIOR, np.int8)]
    )
    nodes, triangles, tags = _merge_pieces(quarter_pts, quarter_tris, quarter_tags)
    mesh = Mesh(nodes=nodes, triangles=triangles, node_tags=tags, domain=domain)
    _validate(mesh)
    return mesh


# the quarter's images: (sign of x, sign of y, vertex order of a triangle);
# one reflection reverses a triangle's orientation, two restore it.  Bit 0
# of an image's index says x is negated, bit 1 that y is, so the partner
# of image b under the reflection negating coordinate `axis` is
# b ^ (1 << axis)
_IMAGES = ((1.0, 1.0, [0, 1, 2]), (-1.0, 1.0, [0, 2, 1]),
           (1.0, -1.0, [0, 2, 1]), (-1.0, -1.0, [0, 1, 2]))


def _merge_pieces(quarter_pts, quarter_tris, quarter_tags):
    """Join the quarter's four images into one mesh.

    The images are the quarter itself and its reflections under x -> -x,
    y -> -y and both, in that order; each reflection only negates a
    coordinate.  Points are merged where their coordinates are equal as
    floats, within the quarter too: every coordinate is stored as
    x + 0.0, so -0.0 and 0.0 are one node.  Merged nodes are numbered in
    order of first appearance (the images in order), so the quarter's
    nodes keep their relative order and come first.  A node keeps the
    first tag seen for it unless that is interior and a later duplicate
    carries a boundary tag, which then replaces it.  A triangle of a
    single reflection takes the vertex order (a, c, b), and particle-2
    tags reflected in y become particle 1.  Returns (nodes, triangles,
    tags).
    """
    pts = np.concatenate([quarter_pts * [sx, sy] for sx, sy, _ in _IMAGES]) + 0.0
    y_image_tags = _MIRROR_TAG[quarter_tags]
    tags = np.concatenate([quarter_tags if sy > 0.0 else y_image_tags for _, sy, _ in _IMAGES])
    key = pts.view(np.dtype((np.void, 16))).ravel()
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)  # sorted keys -> first-seen order
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    gid = rank[inv]
    # the first boundary tag seen for a node wins over interior
    node_tags = np.full(len(order), TAG_INTERIOR, dtype=np.int8)
    tagged = np.flatnonzero(tags != TAG_INTERIOR)
    owner, pos = np.unique(gid[tagged], return_index=True)
    node_tags[owner] = tags[tagged[pos]]
    # take, not a fancy column index: that would give Fortran-ordered
    # triangles, which Mesh then copies
    images = gid.reshape(len(_IMAGES), -1)
    triangles = np.concatenate([
        image_gid[quarter_tris.take(vertex_order, axis=1)]
        for image_gid, (_, _, vertex_order) in zip(images, _IMAGES)
    ])
    return pts[first[order]], triangles, node_tags


def _polygon_area(loop_pts: np.ndarray) -> float:
    x, y = loop_pts[:, 0], loop_pts[:, 1]
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _validate(mesh: Mesh) -> None:
    res = mesh.boundary_node_residuals()
    if res > 1e-12:
        raise MeshError(f"boundary node off its curve by {res:.3e} R")
    # the triangles must tile the polygonal domain exactly: compare the
    # summed element area against the shoelace area of the boundary loops
    covered = float(np.sum(mesh.areas))
    loops = 0.0
    for tag, sign in ((TAG_OUTER, 1.0), (TAG_P1, -1.0), (TAG_P2, -1.0)):
        edges, _ = mesh.boundary_edges[tag]
        if len(edges) == 0:
            continue
        loop = _order_loop(edges)
        loops += sign * _polygon_area(mesh.nodes[loop])
    if abs(covered - loops) > 1e-9 * max(covered, 1e-300):
        raise MeshError(
            f"mesh does not tile the domain: covered {covered!r} vs boundary {loops!r}"
        )
    q = mesh.quality()
    if float(np.min(q)) < QUALITY_FLOOR:
        raise MeshError(
            f"element quality {float(np.min(q)):.4f} below floor {QUALITY_FLOOR}"
        )


def _order_loop(edges: np.ndarray) -> np.ndarray:
    """Order the directed edges (a, b) of one closed curve into a node loop.

    The loop starts at edges[0, 0] and follows each edge's direction;
    boundary edges of a counterclockwise mesh are consistently directed.
    """
    src, dst = edges[:, 0], edges[:, 1]
    n = int(edges.max()) + 1
    out_degree = np.bincount(src, minlength=n)
    if np.any(out_degree != np.bincount(dst, minlength=n)):
        raise MeshError("open boundary loop")
    if np.any(out_degree > 1):
        raise MeshError("boundary loop does not close consistently")
    succ = np.full(n, -1, dtype=np.int64)
    succ[src] = dst
    succ = succ.tolist()
    start = int(src[0])
    loop = [start]
    cur = succ[start]
    while cur != start and len(loop) < len(edges):
        loop.append(cur)
        cur = succ[cur]
    if cur != start or len(loop) != len(edges):
        raise MeshError("boundary loop does not close consistently")
    return np.asarray(loop)


# -----------------------------------------------------------------------------
# plain-text serialization
# -----------------------------------------------------------------------------


def save_mesh_text(mesh: Mesh, path, values: np.ndarray | None = None,
                   header_lines: tuple[str, ...] = ()) -> None:
    """Write the mesh (and optional nodal values) in the documented plain
    text format: `node i x y tag`, `tri i a b c`, `value i u` records."""
    with open(path, "w") as f:
        f.write("# gaplaw mesh/text v1\n")
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write(f"counts {mesh.n_nodes} {mesh.n_triangles} {1 if values is not None else 0}\n")
        for i, ((x, y), t) in enumerate(zip(mesh.nodes, mesh.node_tags)):
            f.write(f"node {i} {float(x)!r} {float(y)!r} {_TAG_NAMES[int(t)]}\n")
        for i, (a, b, c) in enumerate(mesh.triangles):
            f.write(f"tri {i} {a} {b} {c}\n")
        if values is not None:
            for i, v in enumerate(values):
                f.write(f"value {i} {float(v)!r}\n")


def load_mesh_text(path) -> tuple[Mesh, np.ndarray | None]:
    """Read a mesh written by save_mesh_text; returns (mesh, values|None).

    A record with missing, extra or unparseable fields, an unknown tag, a
    non-finite coordinate or value, an index that differs from the
    record's position among the records of its kind (`node i`, `tri i`
    and `value i` count from 0 in file order) or a vertex index outside
    the `counts` header's node range raises MeshError naming its line, as
    does a second `counts` header or a values flag other than 0 or 1; so
    do node, triangle or value records that do not match the `counts`
    header in number, and so does a header that counts no triangles.
    Other records (the `sizes` of older files among them) are skipped.
    The mesh then passes the checks of `build_mesh` (`_validate`): its
    elements tile the region inside its boundary loops exactly and meet
    the quality floor, else MeshError.
    """
    name_to_tag = {v: k for k, v in _TAG_NAMES.items()}
    widths = {"counts": 4, "node": 5, "tri": 5, "value": 3}  # name included
    nodes, tags, tris, tri_lines, values = [], [], [], [], []
    records = {"node": nodes, "tri": tris, "value": values}
    counts = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts or parts[0] not in widths:
                continue
            try:
                if len(parts) != widths[parts[0]]:
                    raise ValueError(f"expected {widths[parts[0]]} fields, got {len(parts)}")
                if parts[0] in records and int(parts[1]) != len(records[parts[0]]):
                    raise ValueError(f"index {parts[1]}, expected {len(records[parts[0]])}")
                if parts[0] == "counts":
                    if counts is not None:
                        raise ValueError("a second counts header")
                    counts = [int(v) for v in parts[1:]]
                    if counts[2] not in (0, 1):
                        raise ValueError(f"values flag {counts[2]}, expected 0 or 1")
                elif parts[0] == "node":
                    if parts[4] not in name_to_tag:
                        raise ValueError(f"unknown tag {parts[4]!r}")
                    xy = (float(parts[2]), float(parts[3]))
                    if not all(map(math.isfinite, xy)):
                        raise ValueError("non-finite coordinate")
                    nodes.append(xy)
                    tags.append(name_to_tag[parts[4]])
                elif parts[0] == "tri":
                    tris.append((int(parts[2]), int(parts[3]), int(parts[4])))
                    tri_lines.append(lineno)
                else:
                    value = float(parts[2])
                    if not math.isfinite(value):
                        raise ValueError("non-finite value")
                    values.append(value)
            except ValueError as exc:
                raise MeshError(
                    f"{path}, line {lineno}: malformed {parts[0]} record ({exc})"
                ) from None
    if counts is None:
        raise MeshError(f"{path}: no counts header")
    n_nodes, n_tris, has_values = counts
    for name, got, want in (("node", nodes, n_nodes), ("tri", tris, n_tris),
                            ("value", values, n_nodes if has_values else 0)):
        if len(got) != want:
            raise MeshError(f"{path}: {len(got)} {name} records, the counts header "
                            f"{n_nodes} {n_tris} {has_values} asks for {want}")
    if n_tris == 0:
        raise MeshError(f"{path}: the counts header {n_nodes} {n_tris} {has_values} "
                        "describes a mesh with no triangles")
    triangles = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    outside = np.flatnonzero(np.any((triangles < 0) | (triangles >= n_nodes), axis=1))
    if len(outside):
        raise MeshError(f"{path}, line {tri_lines[outside[0]]}: tri record has a vertex "
                        f"outside [0, {n_nodes})")
    mesh = Mesh(nodes=np.asarray(nodes), triangles=triangles,
                node_tags=np.asarray(tags, dtype=np.int8))
    _validate(mesh)
    return mesh, (np.asarray(values) if values else None)
