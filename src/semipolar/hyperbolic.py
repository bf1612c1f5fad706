"""Hyperbolic polar spaces from symmetric forms by doubling, their reducts, and
the reconstruction of a deleted maximal singular subspace.

Doubling a nondegenerate symmetric form xi on W produces the symmetric form
zeta([u1,v1],[u2,v2]) = xi(u1,v2) + xi(v1,u2) on W + W, whose isotropic points
are exactly the pairs with xi(u, v) = 0.  Deleting a maximal singular subspace
leaves a reduct from which the deleted geometry is rebuilt: punctured-plane
maximals are grouped by their incidences against affine-plane maximals, the
groups are the deleted points, the affine maximals the deleted hyperplanes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    DegenerateForm,
    DimensionMismatch,
    InvalidSubspace,
    check_budget,
)
from .gf import GF
from .linalg import Subspace, as_vec, enumerate_subspaces, enumerate_vectors, rank


def is_square(a: int, p: int) -> bool:
    a %= p
    if a == 0:
        return True
    return pow(a, (p - 1) // 2, p) == 1


class SymmetricForm:
    """A nondegenerate symmetric bilinear form held by its Gram matrix."""

    __slots__ = ("p", "gram")

    def __init__(self, gram, p: int):
        GF(p)
        g = as_vec(np.atleast_2d(gram), p)
        if g.shape[0] != g.shape[1]:
            raise DimensionMismatch("Gram matrix must be square")
        if (g != g.T % p).any():
            raise DimensionMismatch("Gram matrix must be symmetric")
        if rank(g, p) != g.shape[0]:
            raise DegenerateForm("symmetric form has a radical")
        self.p = p
        self.gram = g

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def eval(self, x, y) -> int:
        x = as_vec(x, self.p)
        y = as_vec(y, self.p)
        return int(x @ self.gram @ y % self.p)


def diagonalize_symmetric(gram: np.ndarray, p: int) -> list[int]:
    """Diagonal of a congruent diagonal form (char != 2 pivoting)."""
    g = as_vec(np.array(gram, dtype=np.int64), p).copy()
    n = g.shape[0]
    inv = GF(p).inv
    diag = []
    idx = list(range(n))
    while idx:
        pivot = next((i for i in idx if g[i, i] % p), None)
        if pivot is None:
            i = idx[0]
            j = next((j for j in idx if g[i, j] % p), None)
            if j is None:
                diag.append(0)
                idx.remove(i)
                continue
            g[i, :] = (g[i, :] + g[j, :]) % p
            g[:, i] = (g[:, i] + g[:, j]) % p
            pivot = i
        d = int(g[pivot, pivot])
        diag.append(d)
        for i in idx:
            if i == pivot or not g[pivot, i] % p:
                continue
            c = (g[pivot, i] * inv(d)) % p
            g[i, :] = (g[i, :] - c * g[pivot, :]) % p
            g[:, i] = (g[:, i] - c * g[:, pivot]) % p
        idx.remove(pivot)
    return diag


def projective_reps(vectors: np.ndarray, p: int) -> list[tuple[int, ...]]:
    """Canonical representatives (first nonzero = 1) of the spanned 1-subspaces."""
    inv = GF(p).inv
    seen = set()
    out = []
    for row in vectors:
        if not row.any():
            continue
        first = int(row[np.flatnonzero(row)[0]])
        rep = tuple(int(c) for c in (row * inv(first)) % p)
        if rep not in seen:
            seen.add(rep)
            out.append(rep)
    return out


def subspace_reps(s: Subspace) -> list[tuple[int, ...]]:
    return projective_reps(np.array(list(s.vectors()), dtype=np.int64), s.p)


class HypPolarSpace:
    """The polar space of the doubled form on Y = W + W."""

    def __init__(self, xi: SymmetricForm, budget: int = DEFAULT_BUDGET):
        if xi.dim < 3:
            raise DimensionMismatch("doubling needs dim(W) >= 3")
        self.p = xi.p
        self.n = xi.dim
        self.xi = xi
        z = np.zeros((2 * self.n, 2 * self.n), dtype=np.int64)
        z[: self.n, self.n :] = xi.gram
        z[self.n :, : self.n] = xi.gram
        self.zeta = SymmetricForm(z, self.p)
        check_budget(self.p ** (2 * self.n), budget, "doubled point enumeration")
        vecs = enumerate_vectors(self.p, 2 * self.n)
        self._all_reps = projective_reps(vecs, self.p)
        g = self.zeta.gram
        all_mat = np.array(self._all_reps, dtype=np.int64)
        iso = ((all_mat @ g) * all_mat).sum(axis=1) % self.p == 0
        self.quadric_points = [self._all_reps[i] for i in np.flatnonzero(iso)]
        self._rep_matrix = all_mat[iso]
        self._pairing = (self._rep_matrix @ g @ self._rep_matrix.T) % self.p
        self._lines_cache = None
        self._maximals_cache = None

    # -- structure verification -------------------------------------------------

    def isotropy_matches_orthogonal_pairs(self) -> bool:
        """<[u,v]> is zeta-isotropic iff xi(u, v) = 0, over all projective points."""
        for r in self._all_reps:
            u, v = r[: self.n], r[self.n :]
            iso = (np.array(r) @ self.zeta.gram @ np.array(r)) % self.p == 0
            if iso != (self.xi.eval(u, v) == 0):
                return False
        return True

    def hyperbolic_by_discriminant(self) -> bool:
        """Even-rank classification: (-1)^(rank/2) det is a square exactly in the
        maximal-index case."""
        diag = diagonalize_symmetric(self.zeta.gram, self.p)
        disc = 1
        for d in diag:
            disc = (disc * d) % self.p
        k = self.zeta.dim // 2
        return is_square(((-1) ** k) * disc, self.p)

    def collinear(self, r1, r2) -> bool:
        return self.zeta.eval(r1, r2) == 0

    def lines(self) -> list[Subspace]:
        """All totally isotropic 2-subspaces (the lines of the polar space)."""
        if self._lines_cache is None:
            from .linalg import rref

            seen = {}
            for i, j in np.argwhere(np.triu(self._pairing == 0, 1)):
                mat, _ = rref(self._rep_matrix[[int(i), int(j)]], self.p)
                key = mat.tobytes()
                if key not in seen:
                    s = Subspace.__new__(Subspace)
                    s.p = self.p
                    s.ambient_dim = 2 * self.n
                    s.basis = tuple(tuple(int(c) for c in row) for row in mat)
                    seen[key] = s
            self._lines_cache = sorted(seen.values(), key=lambda s: s.basis)
        return self._lines_cache

    def _commuting_mask(self, basis: np.ndarray) -> np.ndarray:
        """Quadric points orthogonal to every basis vector."""
        vals = (self._rep_matrix @ self.zeta.gram @ basis.T) % self.p
        return (vals == 0).all(axis=1)

    def maximal_singulars(self) -> list[Subspace]:
        """All maximal totally isotropic subspaces, by extension from lines."""
        if self._maximals_cache is not None:
            return self._maximals_cache
        from .linalg import rref

        current = self.lines()
        while True:
            grown = {}
            for s in current:
                basis = s.matrix()
                for idx in np.flatnonzero(self._commuting_mask(basis)):
                    mat, piv = rref(np.vstack([basis, self._rep_matrix[idx]]), self.p)
                    if len(piv) == s.dim:  # the point already lies in s
                        continue
                    key = mat.tobytes()
                    if key not in grown:
                        t = Subspace.__new__(Subspace)
                        t.p = self.p
                        t.ambient_dim = 2 * self.n
                        t.basis = tuple(tuple(int(c) for c in row) for row in mat)
                        grown[key] = t
            if not grown:
                break
            current = sorted(grown.values(), key=lambda t: t.basis)
        # maximality: no isotropic point extends any member further
        for s in current:
            basis = s.matrix()
            for idx in np.flatnonzero(self._commuting_mask(basis)):
                if not s.contains(self._rep_matrix[idx]):
                    raise DegenerateForm("extension search missed a larger singular subspace")
        self._maximals_cache = current
        return current

    def parity_classes(self) -> tuple[list[int], np.ndarray]:
        """Split the maximals into the two equivalence classes of even-intersection
        parity; returns (class id per maximal, the relation matrix)."""
        from .linalg import rank as mat_rank

        maximals = self.maximal_singulars()
        k = len(maximals)
        rel = np.zeros((k, k), dtype=bool)
        for i in range(k):
            a = maximals[i].matrix()
            for j in range(i, k):
                b = maximals[j].matrix()
                inter_dim = maximals[i].dim + maximals[j].dim - mat_rank(np.vstack([a, b]), self.p)
                rel[i, j] = rel[j, i] = (maximals[i].dim - inter_dim) % 2 == 0
        # the relation must be an equivalence: reflexive, symmetric, transitive
        if not rel.diagonal().all():
            raise DegenerateForm("parity relation is not reflexive")
        reach = rel.astype(np.int64)
        if ((reach @ reach > 0) & ~rel).any():
            raise DegenerateForm("parity relation is not transitive")
        classes = [-1] * k
        label = 0
        for i in range(k):
            if classes[i] < 0:
                for j in np.flatnonzero(rel[i]):
                    classes[int(j)] = label
                label += 1
        return classes, rel


def build_double(n: int, xi: SymmetricForm) -> HypPolarSpace:
    """Double a symmetric form on GF(p)^n into its hyperbolic polar space."""
    if xi.dim != n:
        raise DimensionMismatch(f"form has dimension {xi.dim}, expected {n}")
    return HypPolarSpace(xi)


def default_deleted_subspace(space: HypPolarSpace) -> Subspace:
    """W + 0, the first summand of Y = W + W: the deleted subspace used when none is given."""
    n = space.n
    gens = np.zeros((n, 2 * n), dtype=np.int64)
    gens[:, :n] = np.eye(n, dtype=np.int64)
    return Subspace(gens, space.p, 2 * n)


def standard_doubling_base(n: int, p: int, diag=None) -> SymmetricForm:
    entries = [1] * n if diag is None else list(diag)
    if len(entries) != n:
        raise DimensionMismatch("diagonal length must equal n")
    return SymmetricForm(np.diag(np.array(entries, dtype=np.int64) % p), p)


@dataclass
class Reduct:
    space: HypPolarSpace
    z: Subspace
    points: tuple[tuple[int, ...], ...]
    lines: tuple[frozenset[tuple[int, ...]], ...]

    @property
    def line_set(self) -> frozenset[frozenset[tuple[int, ...]]]:
        return frozenset(self.lines)


def reduct(space: HypPolarSpace, z: Subspace) -> Reduct:
    """Delete a maximal singular subspace: clip its points from every line."""
    if z not in set(space.maximal_singulars()):
        raise InvalidSubspace("the deleted subspace must be maximal singular")
    z_reps = set(subspace_reps(z))
    points = tuple(r for r in space.quadric_points if r not in z_reps)
    lines = []
    for line in space.lines():
        clipped = frozenset(r for r in subspace_reps(line) if r not in z_reps)
        if len(clipped) >= 2:
            lines.append(clipped)
    return Reduct(space, z, points, tuple(lines))


@dataclass
class ReductClassification:
    reduct: Reduct
    r0: list[Subspace] = field(default_factory=list)  # meet Z in a projective point
    r1: list[Subspace] = field(default_factory=list)  # meet Z in a projective hyperplane of Z
    other: list[Subspace] = field(default_factory=list)


def classify_reduct_maximals(red: Reduct) -> ReductClassification:
    """Sort the surviving maximals by how they met the deleted subspace."""
    out = ReductClassification(red)
    n = red.space.n
    for x in red.space.maximal_singulars():
        if x == red.z:
            continue
        d = x.intersection(red.z).dim
        if d == 1:
            out.r0.append(x)
        elif d == n - 1:
            out.r1.append(x)
        else:
            out.other.append(x)
    return out


def inc_relation(red: Reduct, x0: Subspace, x1: Subspace) -> bool:
    """Do the clipped maximals X0 \\ Z and X1 \\ Z share a reduct line?

    Any shared line spans the full intersection X0 and X1, so the test reduces
    to that intersection being a 2-subspace whose clipped point set survives.
    """
    inter = x0.intersection(x1)
    if inter.dim != 2:
        return False
    z_reps = set(subspace_reps(red.z))
    clipped = frozenset(r for r in subspace_reps(inter) if r not in z_reps)
    return len(clipped) >= 2 and clipped in red.line_set


@dataclass
class Reconstruction:
    class_count: int
    r0_size: int
    r1_size: int
    other_size: int
    point_map_ok: bool
    hyperplane_map_ok: bool
    incidence_ok: bool
    lines_ok: bool
    classes: list[list[int]] = field(default_factory=list)

    @property
    def isomorphic(self) -> bool:
        return self.point_map_ok and self.hyperplane_map_ok and self.incidence_ok and self.lines_ok

    def to_jsonable(self) -> dict:
        return {
            "class_count": self.class_count,
            "r0_size": self.r0_size,
            "r1_size": self.r1_size,
            "other_size": self.other_size,
            "point_map_ok": self.point_map_ok,
            "hyperplane_map_ok": self.hyperplane_map_ok,
            "incidence_ok": self.incidence_ok,
            "lines_ok": self.lines_ok,
            "isomorphic": self.isomorphic,
        }


def reconstruct_deleted_subspace(red: Reduct) -> Reconstruction:
    """Rebuild the deleted geometry from the reduct and compare with ground truth.

    Points: profile classes of the point-meeting maximals against the
    hyperplane-meeting ones.  Hyperplanes: the latter themselves.  Lines: common
    points of the hyperplanes through two recovered points.  Each recovered
    object is matched to the deleted subspace through its improper part, and
    every incidence is compared both ways.
    """
    cls = classify_reduct_maximals(red)
    r1_sorted = cls.r1
    profiles = []
    for x0 in cls.r0:
        profiles.append(tuple(inc_relation(red, x0, x1) for x1 in r1_sorted))
    groups: dict[tuple, list[int]] = {}
    for i, prof in enumerate(profiles):
        groups.setdefault(prof, []).append(i)
    class_list = sorted(groups.values())

    # ground truth: the improper point of each profile class, the improper
    # hyperplane of each R1 member
    z = red.z
    improper_points = [x0.intersection(z) for x0 in cls.r0]
    improper_planes = [x1.intersection(z) for x1 in r1_sorted]
    z_points = set()
    for v in z.vectors():
        if any(v):
            z_points.add(Subspace([v], z.p, z.ambient_dim))

    point_map_ok = True
    seen = set()
    for members in class_list:
        reps = {improper_points[i] for i in members}
        if len(reps) != 1:
            point_map_ok = False
            break
        seen.add(reps.pop())
    point_map_ok = point_map_ok and seen == z_points and len(class_list) == len(z_points)

    hyperplane_map_ok = len(set(improper_planes)) == len(improper_planes)
    # onto all hyperplanes of the deleted subspace
    all_planes = _hyperplanes_of(z)
    hyperplane_map_ok = hyperplane_map_ok and set(improper_planes) == set(all_planes)

    incidence_ok = True
    for i, x0 in enumerate(cls.r0):
        pt = improper_points[i].matrix()[0]
        for j, x1 in enumerate(r1_sorted):
            if profiles[i][j] != improper_planes[j].contains(pt):
                incidence_ok = False
                break
        if not incidence_ok:
            break

    lines_ok = _recovered_lines_match(class_list, profiles, improper_points, improper_planes, z)
    return Reconstruction(
        class_count=len(class_list),
        r0_size=len(cls.r0),
        r1_size=len(cls.r1),
        other_size=len(cls.other),
        point_map_ok=bool(point_map_ok),
        hyperplane_map_ok=bool(hyperplane_map_ok),
        incidence_ok=bool(incidence_ok),
        lines_ok=bool(lines_ok),
        classes=class_list,
    )


def _hyperplanes_of(z: Subspace) -> list[Subspace]:
    """Codimension-1 subspaces of z, realized inside the ambient space."""
    basis = z.matrix()
    out = set()
    for s in enumerate_subspaces(z.dim - 1, z.dim, z.p):
        gens = (s.matrix() @ basis) % z.p
        out.add(Subspace(gens, z.p, z.ambient_dim))
    return sorted(out, key=lambda s: s.basis)


def _recovered_lines_match(class_list, profiles, improper_points, improper_planes, z) -> bool:
    """Recovered line through two classes = the classes on their unique common
    hyperplane; must agree with the deleted subspace's own lines."""
    class_profile = [profiles[members[0]] for members in class_list]
    class_point = [improper_points[members[0]] for members in class_list]
    recovered = set()
    for a, b in combinations(range(len(class_list)), 2):
        common = [
            j
            for j in range(len(improper_planes))
            if class_profile[a][j] and class_profile[b][j]
        ]
        if len(common) != 1:
            return False
        j = common[0]
        line_classes = frozenset(
            c for c in range(len(class_list)) if class_profile[c][j]
        )
        truth = {
            c
            for c in range(len(class_list))
            if improper_planes[j].contains(class_point[c].matrix()[0])
        }
        if set(line_classes) != truth:
            return False
        recovered.add(line_classes)
    return len(recovered) == len(improper_planes)


def reconstruction_report(space: HypPolarSpace, z: Subspace) -> dict:
    red = reduct(space, z)
    rec = reconstruct_deleted_subspace(red)
    classes, _ = space.parity_classes()
    sizes = sorted({classes.count(c) for c in set(classes)})
    return {
        "field": space.p,
        "base_dim": space.n,
        "quadric_points": len(space.quadric_points),
        "polar_lines": len(space.lines()),
        "maximal_singulars": len(space.maximal_singulars()),
        "parity_class_sizes": sizes,
        "reduct_points": len(red.points),
        "reduct_lines": len(red.lines),
        "reconstruction": rec.to_jsonable(),
    }
