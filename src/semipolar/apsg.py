"""The affine semipolar space <Y, G>: adjacency, singular lines, and their geometry.

Points are pairs [v, u] with v in V' and u in V; two points are adjacent when
the semiform vanishes on them.  Singular lines are the affine lines all of
whose point pairs are adjacent; G is the class of singular lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    DegenerateForm,
    DimensionMismatch,
    check_budget,
)
from .forms import Report, Semiform, group_tables, normalize
from .linalg import (
    SplitTable,
    as_vec,
    blocks,
    code_dtype,
    distinct_rows,
    encode_vecs,
    enumerate_vectors,
    first_failure,
    pack_rows,
    projective_classes,
    rank,
    rref,
    subspace_closure,
)

class Point(NamedTuple):
    """A point [v, u] of Y = V' + V."""

    v: tuple[int, ...]
    u: tuple[int, ...]

    def flat(self) -> tuple[int, ...]:
        return self.v + self.u

    def add(self, other: "Point", p: int) -> "Point":
        return Point(
            tuple((a + b) % p for a, b in zip(self.v, other.v)),
            tuple((a + b) % p for a, b in zip(self.u, other.u)),
        )

    def sub(self, other: "Point", p: int) -> "Point":
        return Point(
            tuple((a - b) % p for a, b in zip(self.v, other.v)),
            tuple((a - b) % p for a, b in zip(self.u, other.u)),
        )

    def scale(self, a: int, p: int) -> "Point":
        return Point(tuple((a * c) % p for c in self.v), tuple((a * c) % p for c in self.u))

    def neg(self, p: int) -> "Point":
        return self.scale(-1, p)


def canonical_direction(q: Point, p: int) -> Point:
    """The representative of <q> whose first nonzero coordinate is 1."""
    flat = q.flat()
    pivot = next((i for i, c in enumerate(flat) if c % p), None)
    if pivot is None:
        raise ValueError("the zero vector spans no direction")
    return q.scale(pow(flat[pivot], p - 2, p), p)


class AffLine:
    """An affine line {base + a*dir}, canonicalized so equal lines compare equal.

    The direction is scaled to make its first nonzero coordinate 1 and the base
    is reduced so its coordinate at that pivot is 0.
    """

    __slots__ = ("p", "base", "direction", "_hash")

    def __init__(self, base: Point, direction: Point, p: int):
        d = canonical_direction(direction, p)
        flat_d = d.flat()
        pivot = next(i for i, c in enumerate(flat_d) if c)
        t = base.flat()[pivot] % p
        b = base.sub(d.scale(t, p), p)
        self.p = p
        self.base = b
        self.direction = d
        self._hash = hash((p, b, d))

    def points(self) -> tuple[Point, ...]:
        return tuple(self.base.add(self.direction.scale(a, self.p), self.p) for a in range(self.p))

    def __eq__(self, other):
        return (
            isinstance(other, AffLine)
            and self.p == other.p
            and self.base == other.base
            and self.direction == other.direction
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"AffLine(base={self.base}, dir={self.direction})"


class ZSet(NamedTuple):
    points: tuple[Point, ...]
    kind: str  # "empty" | "all" | "affine"
    dim: Optional[int]


@dataclass
class PencilStructure:
    """Lines and singular planes through a fixed point, as an incidence structure.

    Line k lies in u-class k, so line indices are u-class indices; the null
    system is given on u-class indices too (see `SemipolarSpace.null_system`).
    """

    at: Point
    lines: list[AffLine]
    planes: list[tuple[int, ...]]  # each plane = the sorted indices into `lines` of its lines
    null_points: tuple[tuple[int], ...]
    null_lines: tuple[tuple[int, ...], ...]
    isomorphic: bool


def neighborhood_intersections(words: np.ndarray, tables: np.ndarray, size: int, i, j) -> np.ndarray:
    """For each pair (i[k], j[k]) of point codes: the points adjacent to every
    common neighbor of both, as pack_rows words (`words` is pack_rows of the
    adjacency over `size` points, `tables` its and_tables).  A pair without
    common neighbors gets every point, the empty intersection.

    The intersection is the AND over the bytes b of the pair's common-neighbor
    row of tables[b, byte b], masked to the valid bits.  A pair of W words
    reads 8W table rows, its width in the blocks.
    """
    i, j = np.asarray(i), np.asarray(j)
    width = words.shape[1]
    valid = pack_rows(np.ones(size, dtype=bool))
    out = np.empty((len(i), width), dtype=np.uint64)
    for block in blocks(len(i), 8 * width):
        common = (words[i[block]] & words[j[block]]).view(np.uint8).T.copy()
        acc = out[block]
        acc[:] = valid
        for b, byte in enumerate(common):
            acc &= tables[b].take(byte, axis=0)
    return out


class SemipolarSpace:
    """The incidence structure determined by a nondegenerate simplified semiform.

    The sweeps work on point codes (the index of a point in `points`) and the
    `group_tables` of Y: a line is a row of p codes and a subspace a code array.
    `Point` and `AffLine` are the view handed across the public methods.
    """

    def __init__(self, rho: Semiform, budget: int = DEFAULT_BUDGET):
        if not rho.simplified:
            rho, _ = normalize(rho)
        if not rho.eta.is_nondegenerate():
            raise DegenerateForm("the alternating map has a nonzero radical")
        self.form = rho
        self.p = rho.p
        self.nu = rho.nu
        self.n = rho.n
        self.ydim = rho.ydim
        self.size = self.p**self.ydim
        check_budget(self.size, budget, "point set of Y")
        self.budget = budget
        self._coords = enumerate_vectors(self.p, self.ydim)
        self.points: tuple[Point, ...] = tuple(
            Point(tuple(int(c) for c in row[: self.nu]), tuple(int(c) for c in row[self.nu :]))
            for row in self._coords
        )
        self._index = {pt: i for i, pt in enumerate(self.points)}
        self.origin = self.points[0]

    # -- indexing ---------------------------------------------------------

    def index(self, pt: Point) -> int:
        return self._index[pt]

    def point(self, i: int) -> Point:
        return self.points[i]

    @cached_property
    def _tables(self) -> tuple[SplitTable, SplitTable, np.ndarray]:
        """(add, sub, scale) on point codes, from `group_tables` of Y: add[i, j]
        is the code of points i + j and scale[a, i] that of a * point i.  add
        and sub are `SplitTable`s of O(|Y|) entries, never a (|Y|, |Y|) table;
        a kernel that reads whole rows builds a block of them with `rows`."""
        _, add, sub, _, scale = group_tables(self.p, self.ydim)
        return add, sub, scale

    def line_codes(self, base, direction) -> np.ndarray:
        """Codes of the lines base + a*direction, a = 0..p-1, along a new last axis."""
        add, _, scale = self._tables
        return add[np.asarray(base)[..., None], scale.T.take(direction, axis=0)]

    def decode_line(self, base: int, direction: int) -> AffLine:
        """The AffLine base + <direction> for a base code and a direction code."""
        return AffLine(self.points[base], self.points[direction], self.p)

    def affine_lines(self) -> tuple[np.ndarray, np.ndarray]:
        """(base, direction) codes of every affine line of Y once, in the order of
        the canonical AffLine (base, direction): the direction is a direction class
        and the base has coordinate 0 at the direction's pivot."""
        dirs = self._y_classes[0]
        pivots = (self._coords[dirs] != 0).argmax(axis=1)
        bases, k = np.nonzero(self._coords[:, pivots] == 0)
        return bases, dirs[k]

    # -- the semiform and adjacency ---------------------------------------

    @cached_property
    def value_table(self) -> np.ndarray:
        """`Semiform.value_table`: rho of every point pair at code width."""
        t = self.form.value_table(budget=self.budget)
        t.setflags(write=False)
        return t

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = self.value_table == 0
        a.setflags(write=False)
        return a

    @cached_property
    def _adjacency_words(self) -> np.ndarray:
        return pack_rows(self.adjacency)

    @cached_property
    def _row_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """`Semiform.row_factors` of every point, built on first use."""
        return self.form.row_factors(self._coords)

    def rho_codes(self, lines) -> np.ndarray:
        """Whole lines of the value table, one row of the result per line code
        l: the row rho(y_l, .) for l < |Y|, the column rho(., y_x) for
        l = |Y| + x, the rows of the right `row_factors`.  Any of them cost one
        row gather and one O(|Y|) matmul per V' coordinate, and never the table."""
        left, right = self._row_factors
        return self.form.codes_from_factors(right.take(lines, axis=1), left)

    def adjacent(self, p1: Point, p2: Point) -> bool:
        return bool(self.adjacency[self.index(p1), self.index(p2)])

    # -- directions and singular lines -------------------------------------

    @cached_property
    def _y_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """projective_classes of Y: representative codes and the class of every code."""
        return projective_classes(self._coords, self.p)

    @cached_property
    def _u_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """projective_classes of V: representative codes and the class of every code."""
        return projective_classes(enumerate_vectors(self.p, self.n), self.p)

    @cached_property
    def u_direction_classes(self) -> tuple[tuple[int, ...], ...]:
        reps = enumerate_vectors(self.p, self.n)[self._u_classes[0]]
        return tuple(tuple(r) for r in reps.tolist())

    def lines_singular(self, bases, dirs) -> np.ndarray:
        """One-equation criterion eta(u_base, u_dir) = -v_dir for the lines
        given as base and direction code arrays."""
        u, v = self._coords[:, self.nu :], self._coords[:, : self.nu]
        e = np.einsum("la,abk,lb->lk", u[bases], self.form.eta.gram, u[dirs])
        return ((e + v[dirs]) % self.p == 0).all(axis=1)

    def line_singular_by_pairs(self, line: AffLine) -> bool:
        """Definitional check: all point pairs on the line are adjacent."""
        pts = line.points()
        return all(
            self.adjacent(a, b) for a, b in combinations(pts, 2)
        )

    @cached_property
    def _singular_dirs(self) -> np.ndarray:
        """Code of d(i, c) = [-eta(u_i, u_c), u_c], the direction of the singular
        line through point i in u-class c; shape (size, classes)."""
        p = self.p
        reps = np.array(self.u_direction_classes, dtype=np.int64)
        eta = np.einsum("ia,abk,cb->ick", self._coords[:, self.nu :], self.form.eta.gram, reps)
        dirs = np.concatenate([-eta, np.broadcast_to(reps, eta.shape[:2] + (self.n,))], axis=2)
        out = encode_vecs(dirs, p).astype(code_dtype(self.size - 1))
        out.setflags(write=False)
        return out

    def _singular_at(self, x, d) -> np.ndarray:
        """The line x + <d> is singular, for point codes x and nonzero
        direction codes d broadcast together.

        On the simplified form rho(x + a*d, x + b*d) = (b - a)(eta(u_x, u_d) + v_d),
        so the line is singular exactly when x ~ x + d: adjacency[x, add[x, d]].
        """
        add, _, _ = self._tables
        return self.adjacency[x, add[x, d]]

    def singular_lines_through(self, pt: Point) -> list[AffLine]:
        i = self.index(pt)
        return [self.decode_line(i, d) for d in self._singular_dirs[i].tolist()]

    @cached_property
    def singular_line_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """(base, direction) codes of every singular line once, as the canonical
        AffLine has them, sorted by (base, direction): the `affine_lines` that
        `_singular_at` finds singular."""
        bases, dirs = self.affine_lines()
        singular = self._singular_at(bases, dirs)
        code = code_dtype(self.size - 1)
        return bases[singular].astype(code), dirs[singular].astype(code)

    @cached_property
    def singular_lines(self) -> frozenset[AffLine]:
        bases, dirs = self.singular_line_codes
        return frozenset(self.decode_line(b, d) for b, d in zip(bases.tolist(), dirs.tolist()))

    @cached_property
    def _excluded_classes(self) -> np.ndarray:
        """One flag per direction class (`_y_classes` order): it carries no
        singular line, that is, eta(u0, .) = v0 is unsolvable, so column n of
        the augmented matrix [eta(u0, .) | v0] is a pivot column.  One rref of
        the matrices of every class; a vertical class (u0 = 0, v0 != 0) has the
        zero matrix, so it is always excluded."""
        reps = self._y_classes[0]
        v, u = self._coords[reps, : self.nu], self._coords[reps, self.nu :]
        aug = np.concatenate([np.einsum("li,ijk->lkj", u, self.form.eta.gram), v[:, :, None]], axis=2)
        return rref(aug, self.p)[1][:, self.n]

    # -- solution sets of one linear adjacency equation ---------------------

    def zset_mask(self, u0, v0, alpha: int) -> np.ndarray:
        """Membership of every point in {[v,u] : eta(u0, u) = v0 + alpha*v}."""
        p = self.p
        u0 = as_vec(u0, p)
        v0 = as_vec(v0, p)
        if u0.shape != (self.n,) or v0.shape != (self.nu,):
            raise DimensionMismatch("u0 must lie in V and v0 in V'")
        lhs = self.form.eta.eta_u(u0).apply_rows(self._coords[:, self.nu :])
        rhs = (v0[None, :] + alpha * self._coords[:, : self.nu]) % p
        return (lhs == rhs).all(axis=1)

    def zset(self, u0, v0, alpha: int) -> ZSet:
        """{[v,u] : eta(u0, u) = v0 + alpha*v} with its classification."""
        p = self.p
        codes = np.flatnonzero(self.zset_mask(u0, v0, alpha))
        members = tuple(self.points[i] for i in codes.tolist())
        if not members:
            return ZSet((), "empty", None)
        if len(members) == self.size:
            return ZSet(members, "all", self.ydim)
        dim = 0
        while p**dim < len(members):
            dim += 1
        if p**dim != len(members) or not self._is_affine_codes(codes):
            raise DegenerateForm("solution set is not an affine subspace")
        return ZSet(members, "affine", dim)

    def is_affine_point_set(self, pts) -> bool:
        """Closure under x + a(y - x) for all scalars a: for odd p the nonempty
        closed sets are the affine subspaces, and the empty set is closed.
        Tested by rank: s distinct points S are an affine subspace iff
        s = p^rank(S - s0) for a member s0, since S lies in the coset
        s0 + span(S - s0), which has p^rank points."""
        codes = np.array([self.index(q) for q in pts], dtype=np.int64)
        return not codes.size or bool(self._is_affine_codes(codes))

    def _is_affine_codes(self, codes) -> np.ndarray:
        """is_affine_point_set for each row of a (..., s) array of point codes,
        s >= 1, repeats allowed: its distinct points against p^rank of the row
        less its first point.  Runs a block of rows at a time, each row counted
        twice its (s, ydim) stack, since the rank test keeps three int64 arrays
        of a block."""
        codes = np.asarray(codes)
        rows = codes.reshape(-1, codes.shape[-1])
        out = np.empty(len(rows), dtype=bool)
        for b in blocks(len(rows), 2 * rows.shape[1] * self.ydim):
            block = np.sort(rows[b], axis=1)
            distinct = 1 + (block[:, 1:] != block[:, :-1]).sum(axis=1)
            diffs = self._coords[block] - self._coords[block[:, :1]]
            out[b] = distinct == self.p ** rank(diffs, self.p)
        return out.reshape(codes.shape[:-1])

    def joinable_masks(self, codes) -> np.ndarray:
        """zset_mask(u_k, v_k, -1) of each point code k, one row each: the points
        [v, u] with eta(u_k, u) = v_k - v, which on the simplified form is
        rho(y_k, [v, u]) = 0.  Built a block of rows at a time."""
        codes = np.asarray(codes)
        out = np.empty((len(codes), self.size), dtype=bool)
        for b in blocks(len(codes), self.size):
            np.equal(self.rho_codes(codes[b]), 0, out=out[b])
        return out

    # -- triangles ----------------------------------------------------------

    def triangle_codes(self, i: int) -> np.ndarray:
        """Non-collinear pairwise-adjacent triples through point code i, one
        row (i, a, b) of codes each, the pairs (a, b) of neighbors of i in
        the order of itertools.combinations."""
        _, sub, _ = self._tables
        nbrs = np.flatnonzero(self.adjacency[i])
        nbrs = nbrs[nbrs != i]
        # a and b lie on one line through i when a - i and b - i span one class
        classes = self._y_classes[1][sub[nbrs, i]]
        a, b = np.triu_indices(len(nbrs), 1)
        keep = self.adjacency[nbrs[a], nbrs[b]] & (classes[a] != classes[b])
        a, b = nbrs[a[keep]], nbrs[b[keep]]
        return np.stack([np.full_like(a, i), a, b], axis=1)

    def triangle_census(self) -> int:
        """Total number of triangles; each counted once.

        With B the adjacency without its diagonal, row i of (B @ B) * B counts
        the ordered adjacent pairs among the neighbors of point i, so the row
        sums add up to trace(B^3).  B @ B is taken a block of rows at a time in
        float32 and its rows summed in float64, exact at every size the table
        fits in: each entry of B @ B is a count of at most |Y| < 2^24, and each
        row sum is at most |Y|^2 < 2^53.
        """
        lines_per_point = len(self.u_direction_classes)
        collinear_pairs = lines_per_point * ((self.p - 1) * (self.p - 2) // 2)
        b = self.adjacency.astype(np.float32)
        np.fill_diagonal(b, 0)
        ordered = np.empty(self.size, dtype=np.int64)
        for k in blocks(self.size, self.size):
            rows = b[k]
            ordered[k] = ((rows @ b) * rows).sum(axis=1, dtype=np.float64)
        total = int((ordered // 2 - collinear_pairs).sum())
        assert total % 3 == 0
        return total // 3

    # -- the Gamma-space property -------------------------------------------

    def verify_gamma_space(self) -> Report:
        """Planes spanned by two concurrent singular lines carry only singular lines
        through the common point; maximal singular subspaces are affine subspaces.

        Runs a block of points at a time: for every pair of singular lines d1, d2
        through a point, each line with direction d1 + a*d2 is looked up in the
        block's rows of the line table, `_singular_at` of the block's points and
        every direction, gathered once along the `add` rows of the block.
        """
        add, _, scale = self._tables
        multiples = np.ascontiguousarray(scale[1:].T)  # multiples[d]: a*d for a >= 1
        through = self._singular_dirs
        first, second = np.triu_indices(through.shape[1], 1)
        report = Report()

        def closure(block):
            lo, dirs = block.start, through[block]
            # d1 + a*d2 for a >= 1, along the last axis
            mixed = add[dirs[:, first, None], multiples.take(dirs[:, second], axis=0)]
            codes = np.arange(lo, block.stop)
            lines = np.take_along_axis(self.adjacency[codes], add.rows(codes), axis=1)
            return (lo, dirs, mixed), lines.take((codes - lo)[:, None, None] * self.size + mixed)

        fail = first_failure(map(closure, blocks(self.size, len(first) * (self.p - 1))))
        wit = None
        if fail is not None:
            (lo, dirs, mixed), (b, k, a) = fail
            named = (dirs[b, first[k]], dirs[b, second[k]], mixed[b, k, a])
            l1, l2, candidate = (self.decode_line(lo + b, int(d)) for d in named)
            wit = (self.points[lo + b], repr(l1), repr(l2), repr(candidate))
        report.add("plane-closure", fail is None, wit, "lines through a common point inside a span stay singular")

        # each width runs in one batch; the witness is the first failing row in
        # the order of maximal_singular_subspaces
        failing = []
        for codes in self.maximal_subspace_codes:
            bad = np.flatnonzero(~self._is_affine_codes(codes))
            if bad.size:
                failing.append(codes[bad[0]].tolist())
        aff_wit = (min(failing),) if failing else None
        report.add("singular-subspaces-affine", aff_wit is None, aff_wit,
                   "maximal singular subspaces carry affine geometry")
        return report

    def verify_parallel_unclosed(self) -> Report:
        """Every singular line has a parallel affine line that is not singular.

        The parallels tried are the translates by [0, e_k] for the basis vectors
        e_k of V with eta(e_k, u_dir) != 0, tested by `_singular_at`.
        """
        add, _, _ = self._tables
        bases, dirs = self.singular_line_codes
        shifts = self.p ** np.arange(self.n - 1, -1, -1)  # codes of [0, e_k]
        eta = np.einsum("kbj,lb->lkj", self.form.eta.gram, self._coords[dirs, self.nu :])
        eligible = (eta % self.p).any(axis=2)
        singular = self._singular_at(add[bases[:, None], shifts[None, :]], dirs[:, None])
        missing = np.flatnonzero(~(eligible & ~singular).any(axis=1))
        wit = (repr(self.decode_line(bases[missing[0]], dirs[missing[0]])),) if len(missing) else None
        report = Report()
        report.add("parallel-unclosed", wit is None, wit, "a non-singular parallel exists for every singular line")
        return report

    # -- condition (*) and line recovery ------------------------------------

    @cached_property
    def kernel_mask(self) -> np.ndarray:
        """kernel_mask[c, w]: eta(u_c, w) = 0 for the representative u_c of u-class
        c and the vector w of V with code w; row c is the partial kernel of u_c."""
        reps = np.array(self.u_direction_classes, dtype=np.int64).reshape(-1, self.n)
        vecs = enumerate_vectors(self.p, self.n)
        mask = np.ones((len(reps), len(vecs)), dtype=bool)
        for k in range(self.nu):
            mask &= (reps @ self.form.eta.gram[:, :, k] @ vecs.T) % self.p == 0
        mask.setflags(write=False)
        return mask

    @cached_property
    def separating_kernels(self) -> bool:
        """For non-parallel u', u'' some y0 has eta(u', y0) = 0 but eta(u'', y0) != 0,
        that is, no partial kernel lies inside another.

        |ker u' & ker u''| over all class pairs is one count product of
        `kernel_mask` with its transpose, a block of rows at a time, exact in
        float32 because a count is at most p^n < 2^24.
        """
        mask = self.kernel_mask.astype(np.float32)
        sizes, idx = mask.sum(axis=1), np.arange(len(mask))
        # ok[c, d]: ker u_c is not inside ker u_d, unless c = d
        return first_failure(
            (b, (mask[b] @ mask.T != sizes[b, None]) | (idx[b, None] == idx)) for b in blocks(len(mask), len(mask))
        ) is None

    def neighborhood_intersection(self, p1: Point, p2: Point) -> tuple[Point, ...]:
        """Intersection of the neighbor sets of all common neighbors of p1, p2:
        the AND of their adjacency rows, every point when there are none."""
        adj = self.adjacency
        common = adj[self.index(p1)] & adj[self.index(p2)]
        return tuple(self.points[k] for k in np.flatnonzero(adj[common].all(axis=0)))

    # -- singular planes and maximal singular subspaces ----------------------

    def singular_planes_through(self, pt: Point) -> np.ndarray:
        """Singular planes through pt as rows of their sorted point codes, one
        row of p^2 codes each, in lexicographic order.

        The plane pt + <d1, d2> of every pair of singular directions through pt,
        the closure's affine span of the line pt + <d1> with pt + d2, is tested
        pairwise adjacent in one adjacency gather per block of pairs, p^2 x p^2
        elements a pair.
        """
        add, _, _ = self._tables
        i = self.index(pt)
        dirs = self._singular_dirs[i]
        first, second = np.triu_indices(len(dirs), 1)
        width = self.p**2
        found = [np.zeros((0, width), dtype=add.dtype)]
        for b in blocks(len(first), width * width):
            d1, d2 = dirs[first[b]], dirs[second[b]]
            members = self._affine_span(self.line_codes(i, d1), add[i, d2])
            singular = self.adjacency[members[:, :, None], members[:, None, :]].all(axis=(1, 2))
            found.append(members[singular])
        members = np.sort(np.concatenate(found), axis=1)
        return members[distinct_rows(members)]

    @cached_property
    def _u_class_orthogonal(self) -> np.ndarray:
        """[c, d]: eta(u_c, u_d) = 0, the class representatives' columns of kernel_mask."""
        table = self.kernel_mask[:, self._u_classes[0]]
        table.setflags(write=False)
        return table

    def maximal_singular_subspaces(self) -> list[frozenset[int]]:
        """The maximal singular subspaces as point-code sets, ordered by their
        sorted members, decoded from `maximal_subspace_codes` on each call."""
        rows = [row for codes in self.maximal_subspace_codes for row in codes.tolist()]
        return [frozenset(row) for row in sorted(rows)]

    @cached_property
    def maximal_subspace_codes(self) -> tuple[np.ndarray, ...]:
        """Exhaustive closure: grow singular subspaces from points until nothing extends.

        `linalg.subspace_closure` grows them on the adjacency words, a
        subspace extending by the affine span with an adjacent point outside
        it; a subspace with no such point is maximal.  One array per layer
        that has maximal subspaces, in increasing width: their sorted member
        codes, one row each, in lexicographic order, as the closure yields them.
        """
        found = []
        for members, top in subspace_closure(self._adjacency_words, self._affine_span):
            if top.any():
                rows = members[top]
                rows.setflags(write=False)
                found.append(rows)
        return tuple(found)

    def _affine_span(self, members: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Codes of the affine span of each row of member codes with the point x[i]."""
        add, sub, scale = self._tables
        moves = scale[:, sub[x, members[:, 0]]].T  # a * (x - base), a = 0..p-1
        return add[members[:, :, None], moves[:, None, :]].reshape(len(x), -1)

    # -- the pencil of lines and planes through a point -----------------------

    @cached_property
    def null_system(self) -> tuple[tuple[tuple[int], ...], tuple[tuple[int, ...], ...]]:
        """Points and isotropic 2-subspaces of the generalized null system of eta, on
        u-class indices: a point is (c,), a 2-subspace the sorted classes of its span.

        Two distinct orthogonal classes i, j span the classes of rep_i and of
        rep_j + a*rep_i for every scalar a.
        """
        p = self.p
        reps = np.array(self.u_direction_classes, dtype=np.int64).reshape(-1, self.n)
        i, j = np.nonzero(np.triu(self._u_class_orthogonal, 1))
        spans = (reps[j][:, None, :] + np.arange(p)[None, :, None] * reps[i][:, None, :]) % p
        members = np.concatenate([i[:, None], self._u_classes[1][encode_vecs(spans, p)]], axis=1)
        members = np.sort(members, axis=1)
        lines = tuple(map(tuple, members[distinct_rows(members)].tolist()))
        return tuple((c,) for c in range(len(reps))), lines

    def pencil_structure(self, pt: Point) -> PencilStructure:
        """Lines/planes through pt, checked isomorphic to the null system of eta.

        A line maps to the u-class of its direction; line k is expected in
        class k, so a plane maps to the sorted classes of its lines.  A plane
        through pt is affine, so it holds line k exactly when it holds the
        line's second point pt + d_k: one gather of the planes' membership
        masks.
        """
        add, _, _ = self._tables
        i = self.index(pt)
        dirs = self._singular_dirs[i]
        planes = self.singular_planes_through(pt)
        holds = np.zeros((len(planes), self.size), dtype=bool)
        holds[np.arange(len(planes))[:, None], planes] = True
        plane_members = [tuple(np.flatnonzero(row).tolist()) for row in holds[:, add[i, dirs]]]
        null_points, null_lines = self.null_system
        classes = self._u_classes[1][dirs % self.p**self.n]  # the u-part is a code's last n digits
        lines = self.singular_lines_through(pt)
        iso = np.array_equal(classes, np.arange(len(null_points))) and null_lines == tuple(sorted(plane_members))
        return PencilStructure(pt, lines, plane_members, null_points, null_lines, iso)

    # -- exports ---------------------------------------------------------------

    def index_doc(self) -> str:
        return (
            f"point index = row-major over (v,u) with v varying slowest: "
            f"index = sum(coord[k] * {self.p}^({self.ydim}-1-k))"
        )

    def _edge_lines(self, template: str) -> list[str]:
        """template.format(i, j) for every adjacent pair i < j, in row-major order."""
        i, j = np.nonzero(np.triu(self.adjacency, 1))
        return [template.format(a, b) for a, b in zip(i.tolist(), j.tolist())]

    def adjacency_dot(self) -> str:
        vertices = [f"  {i};" for i in range(self.size)]
        edges = self._edge_lines("  {} -- {};")
        return "\n".join(["// " + self.index_doc(), "graph adjacency {", *vertices, *edges, "}"]) + "\n"

    def adjacency_csv(self) -> str:
        lines = ["# " + self.index_doc(), "p_index,q_index", *self._edge_lines("{},{}")]
        return "\n".join(lines) + "\n"
