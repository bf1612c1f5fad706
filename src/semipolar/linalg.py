"""Vectors, canonical subspaces, linear maps and exhaustive enumeration over GF(p)^n."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import DEFAULT_BUDGET, DimensionMismatch, check_budget

CHUNK = 1 << 16  # elements in one block of a batched sweep's temporaries


def blocks(count: int, width: float) -> Iterator[slice]:
    """Slices covering range(count) in order, each of max(1, CHUNK // width)
    items but the last, so a block of items of `width` elements each holds
    about CHUNK elements; a width of 0 counts as 1.  CHUNK is read per call."""
    step = max(1, int(CHUNK // (width or 1)))
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def first_failure(tests: Iterable[tuple[object, np.ndarray]]) -> Optional[tuple[object, tuple[int, ...]]]:
    """The first failure of a quantified statement: `tests` yields (key, ok)
    pairs in quantifier order, ok a boolean array, and the result is the key
    of the first pair with a False entry and the int index of its first False
    entry in row-major order, or None when every entry passes.  The pairs are
    read lazily, so none after the first failure is computed."""
    for key, ok in tests:
        ok = np.asarray(ok)
        if not ok.all():
            return key, tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), ok.shape))
    return None


def as_vec(x, p: int) -> np.ndarray:
    return np.asarray(x, dtype=np.int64) % p


def vec_index(v, p: int) -> int:
    """Row-major index of a coordinate vector: the first coordinate varies slowest."""
    idx = 0
    for c in v:
        idx = idx * p + int(c) % p
    return idx


def index_vec(idx: int, p: int, n: int) -> tuple[int, ...]:
    coords = []
    for _ in range(n):
        coords.append(idx % p)
        idx //= p
    return tuple(reversed(coords))


def enumerate_vectors(p: int, n: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All p^n vectors as rows, ordered by vec_index."""
    check_budget(p**n, budget, f"vectors of GF({p})^{n}")
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([np.arange(p)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def encode_vecs(arr: np.ndarray, p: int) -> np.ndarray:
    """Base-p integer code of the trailing axis (same convention as vec_index)."""
    return (arr % p) @ _code_weights(p, arr.shape[-1])


@lru_cache(maxsize=None)
def _code_weights(p: int, n: int) -> np.ndarray:
    weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    weights.setflags(write=False)
    return weights


def normalize_rows(vectors, p: int) -> np.ndarray:
    """Each row scaled so that its first nonzero coordinate is 1; zero rows stay zero."""
    v = as_vec(vectors, p)
    flat = v.reshape(-1, v.shape[-1])
    first = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]
    flat *= _inverses(p)[first][:, None]
    flat %= p
    return flat.reshape(v.shape)


@lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """inv[a] = a^-1 mod p for a != 0, and inv[0] = 0."""
    inv = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)
    inv.setflags(write=False)
    return inv


def projective_classes(vecs: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The 1-subspaces of GF(p)^n over the rows of enumerate_vectors(p, n).

    Returns the codes of their representatives, the nonzero rows equal to their
    normalisation, in code order, and the class of every row: the position of
    its representative in that order, -1 for the zero row.
    """
    norm = encode_vecs(normalize_rows(vecs, p), p)
    reps = np.flatnonzero(norm == np.arange(len(norm)))[1:]
    cls = np.searchsorted(reps, norm)
    cls[0] = -1
    return reps, cls


def pack_rows(mask: np.ndarray) -> np.ndarray:
    """Boolean rows packed into uint64 words, zero-padded to a whole word."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.zeros(mask.shape[:-1] + (-(-mask.shape[-1] // 64) * 64,), dtype=bool)
    padded[..., : mask.shape[-1]] = mask
    return np.packbits(padded, axis=-1).view(np.uint64)


def pack_codes(codes: np.ndarray, n: int) -> np.ndarray:
    """pack_rows of the rows over n points that hold the codes of each row of
    `codes`, distinct within a row, without the n-wide boolean rows.  Code c
    is bit 8 * (c // 8 % 8) + 7 - c % 8 of word c // 64."""
    codes = np.asarray(codes, dtype=np.int64)
    width = -(-n // 64)
    words = np.zeros(len(codes) * width, dtype=np.uint64)
    at = np.arange(len(codes))[:, None] * width + (codes >> 6)  # flat word index
    bits = np.uint64(1) << (8 * (codes >> 3 & 7) + 7 - (codes & 7)).astype(np.uint64)
    for k in range(codes.shape[1]):
        words[at[:, k]] |= bits[:, k]
    return words.reshape(len(codes), width)


def and_tables(words: np.ndarray) -> np.ndarray:
    """AND tables of pack_rows rows, one row of W words per point: T[b, v] is
    the AND of the rows of the points whose bits are set in the value v of
    byte b of a row, all ones for v = 0.  (8W, 256, W) words, built by
    doubling over the 8 bits of a byte."""
    width = words.shape[1]
    rows = np.full((64 * width, width), ~np.uint64(0))  # a padding code ANDs nothing away
    rows[: len(words)] = words
    rows = rows.reshape(8 * width, 8, width)  # rows[b, t]: the point of bit 7 - t of byte b
    tables = np.empty((8 * width, 256, width), dtype=np.uint64)
    tables[:, 0] = ~np.uint64(0)
    for k in range(8):
        tables[:, 1 << k : 2 << k] = tables[:, : 1 << k] & rows[:, 7 - k, None, :]
    tables.setflags(write=False)
    return tables


def code_dtype(top: int):
    """The smallest unsigned dtype that holds the integers 0..top."""
    return np.uint8 if top <= 0xFF else np.uint16 if top <= 0xFFFF else np.uint32


class SplitTable:
    """A group operation f(x, y) on the codes of GF(p)^n, held as two half tables.

    GF(p)^n is the product of its leading ceil(n/2) and trailing floor(n/2)
    coordinates, so a code is x = x_hi * P + x_lo with P = p^floor(n/2), and
    f(x, y) = hi[x_hi, y_hi] + lo[x_lo, y_lo], hi holding its codes times P.
    The halves have p^ceil(n/2) and p^floor(n/2) points, about 2 p^n entries
    against the p^2n of the whole table.  Entries are codes at code width.
    A lookup is four takes of the parts of x and y, kept per code in the
    smallest dtype that holds a flat index of hi, and one take from each
    flat half, so its temporaries are that narrow too.
    """

    __slots__ = ("hi", "lo", "size", "_parts")

    def __init__(self, hi: np.ndarray, lo: np.ndarray):
        self.hi, self.lo = hi, lo
        self.size = len(hi) * len(lo)
        self._parts = _code_parts(len(hi), len(lo))

    @classmethod
    def of_sum(cls, p: int, n: int, sign: int) -> "SplitTable":
        """The table of code(a + sign * b) over GF(p)^n, at `code_dtype(p^n - 1)`."""
        dt = code_dtype(p**n - 1)
        low = n // 2
        return cls(_half_table(p, n - low, sign, p**low, dt), _half_table(p, low, sign, 1, dt))

    def __getitem__(self, key):
        """f(x, y) for code arrays (or ints) x and y, broadcast together."""
        x, y = key
        hi_row, hi_col, lo_row, lo_col = self._parts
        return (
            self.hi.ravel().take(hi_row.take(x) + hi_col.take(y))
            + self.lo.ravel().take(lo_row.take(x) + lo_col.take(y))
        )

    def rows(self, x) -> np.ndarray:
        """f(x, y) for every code y, along a new last axis: the outer sum of
        the hi row and the lo row of each x, which runs over y in code order."""
        _, hi_col, _, lo_col = self._parts
        out = self.hi[hi_col.take(x)][..., :, None] + self.lo[lo_col.take(x)][..., None, :]
        return out.reshape(out.shape[:-2] + (self.size,))

    @property
    def dtype(self):
        return self.hi.dtype

    @property
    def nbytes(self) -> int:
        return self.hi.nbytes + self.lo.nbytes + self._parts.nbytes


@lru_cache(maxsize=None)
def _code_parts(high: int, low: int) -> np.ndarray:
    """For every code x = x_hi * low + x_lo below high * low, as rows of
    `code_dtype(high^2 - 1)`: x_hi * high and x_hi, the flat offset of its
    row and its column in a (high, high) half, then x_lo * low and x_lo in a
    (low, low) half, low <= high; a row offset plus a column stays below
    high^2."""
    x_hi, x_lo = np.divmod(np.arange(high * low), low)
    parts = np.stack([x_hi * high, x_hi, x_lo * low, x_lo]).astype(code_dtype(high * high - 1))
    parts.setflags(write=False)
    return parts


def _half_table(p: int, k: int, sign: int, weight: int, dt) -> np.ndarray:
    """weight * code(a + sign * b) for all a, b in GF(p)^k, as dtype dt,
    encoded one coordinate at a time."""
    vecs = enumerate_vectors(p, k)
    table = np.zeros((len(vecs), len(vecs)), dtype=np.int64)
    for col in vecs.T:
        table *= p
        table += (col[:, None] + sign * col[None, :]) % p
    table *= weight
    table = table.astype(dt)
    table.setflags(write=False)
    return table


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """Indices of the distinct rows of a 2-d array of integers, the first of
    each set of equal rows, in the lexicographic order of the rows: one stable
    lexsort, the first column the primary key, and each sorted row compared
    with the one before it a block at a time, so no second copy of the rows
    is held."""
    order = np.lexsort(rows.T[::-1])
    keep = np.ones(len(order), dtype=bool)
    for b in blocks(len(order) - 1, rows.shape[1]):
        keep[1:][b] = (rows[order[1:][b]] != rows[order[:-1][b]]).any(axis=1)
    return order[keep]


def unpack_rows(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each row of pack_rows words, as booleans."""
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=-1, count=n).view(bool)


def subspace_closure(
    words: np.ndarray, span: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The singular subspaces of a geometry on n points, one layer per dimension.

    `words` are the n collinearity rows as pack_rows words: row x marks the
    points joined to x by a singular line, and x itself.  `span(members, x)`
    gives the point codes of the span of each subspace, a row of member codes,
    with a point x[i] outside it.  For each layer, from the single points up,
    yields the sorted member codes of its subspaces, one row each in
    lexicographic order, and whether each is maximal.

    A row of the k-th layer keeps, besides its members, the k + 1 points that
    spanned it: its parent's and the point x it was extended by.  Its
    candidates are the points collinear with all of them, the AND of their
    `words` rows, less its members.  The lowest candidate x gives the
    extension span(S, x), and every point of that span is struck, since each
    gives the same extension.  A subspace with no candidates is maximal.

    Every candidate gives an extension, with no test of its points.  The
    points collinear with a point y form a subspace, since the form is linear
    (affine, for a semiform) in the second argument, and collinearity is
    symmetric.  So a candidate x is collinear with all of S, and the points
    collinear with a point of S, or with x, form a subspace holding S and x,
    hence span(S, x).  Every point of span(S, x) is then collinear with S and
    x, so with all of span(S, x): the extension is singular, and as x lies
    outside S it has p times the points of S (p times plus one, projectively).
    For the same reason its candidates are the points collinear with all of
    it, less its members, whichever points spanned it.  Conversely a singular
    subspace one dimension above S that holds S is span(S, x) for each of its
    points x outside S, which are candidates of S, so the layers are complete.

    The layer is swept in blocks of rows, its candidates built and unpacked a
    block at a time, so a layer holds k + 1 spanning codes a row, never a row
    of candidate words.  A block's candidates take about 8 CHUNK booleans,
    so that the few dozen array operations of a round each cover many rows.
    Member and spanning codes are held at code width,
    `code_dtype(n - 1)`.  Extensions are deduplicated on their sorted codes
    (`distinct_rows`) whenever the new ones outnumber the distinct ones kept,
    and once more when the layer ends, which leaves it in lexicographic row
    order; each keeps its parent row as int32.
    """
    def distinct(found: list[tuple]) -> tuple:
        merged = [np.concatenate(part) for part in zip(*found)]
        found.clear()  # the blocks go before the sort copies the merged codes
        keep = distinct_rows(merged[0])
        return tuple(part[keep] for part in merged)

    n = len(words)
    code = code_dtype(n - 1)
    members = np.arange(n, dtype=code)[:, None]
    spanners = members  # the points that spanned each row
    while True:  # a layer grows from the last, so only its rows are blocked
        top = np.ones(len(members), dtype=bool)
        found, kept, pending = [], 0, 0  # (codes, parent row, x) of the extensions
        for b in blocks(len(members), n / 8):
            lo, block = b.start, members[b]
            live = unpack_rows(np.bitwise_and.reduce(words[spanners[b]], axis=1), n)
            live[np.arange(len(block))[:, None], block] = False
            rows = np.flatnonzero(live.any(axis=1))
            top[lo + rows] = False
            while rows.size:
                x = live[rows].argmax(axis=1)
                grown = np.sort(span(block[rows], x), axis=1).astype(code, copy=False)
                live[rows[:, None], grown] = False
                found.append((grown, (lo + rows).astype(np.int32), x.astype(code)))
                pending += len(rows)
                rows = rows[live[rows].any(axis=1)]
            if found and pending >= kept:
                found = [distinct(found)]
                kept, pending = len(found[0][0]), 0
        yield members, top
        if not found:
            return
        members, parent, x = distinct(found)
        spanners = np.concatenate([spanners[parent], x[:, None]], axis=1)


def rref(mats, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon forms over GF(p) of one (r, c) matrix or a (..., r, c)
    stack, its nonzero rows first, and a (..., c) mask of the pivot columns.
    The stack is reduced together, one column j at a time: in each matrix, the
    first row at or below its next pivot row with a nonzero entry in column j
    is swapped up, scaled to a leading 1 and subtracted from the other rows."""
    m = as_vec(np.atleast_2d(mats), p)
    stack = m.reshape((math.prod(m.shape[:-2]),) + m.shape[-2:])
    count, rows, cols = stack.shape
    pivots = np.zeros((count, cols), dtype=bool)
    nxt = np.zeros(count, dtype=np.int64)  # the next pivot row of each matrix
    inv, below = _inverses(p), np.arange(rows)
    for j in range(cols):
        if (nxt == rows).all():
            break
        cand = (stack[:, :, j] != 0) & (below >= nxt[:, None])
        b = np.flatnonzero(cand.any(axis=1))
        if not b.size:
            continue
        at, r = cand[b].argmax(axis=1), nxt[b]
        top = np.zeros((count, cols), dtype=np.int64)  # zero in a matrix without a pivot
        top[b] = stack[b, at]
        top = top * inv[top[:, j]][:, None] % p
        stack[b, at] = stack[b, r]
        stack -= stack[:, :, j, None] @ top[:, None, :]  # clears the pivot row too
        stack %= p
        stack[b, r] = top[b]
        pivots[b, j] = True
        nxt[b] += 1
    return stack.reshape(m.shape), pivots.reshape(m.shape[:-2] + (cols,))


def rank(mats, p: int):
    """The rank of a matrix, or of each matrix of a (..., r, c) stack."""
    return rref(mats, p)[1].sum(axis=-1)


class Subspace:
    """A vector subspace of GF(p)^n held as its reduced row-echelon basis.

    Two Subspace values are equal iff they are the same set; the canonical
    basis makes that a tuple comparison.
    """

    __slots__ = ("p", "ambient_dim", "basis")

    def __init__(self, generators, p: int, ambient_dim: Optional[int] = None):
        gens = [tuple(int(c) % p for c in g) for g in generators]
        dims = {len(g) for g in gens}
        if ambient_dim is None:
            if not dims:
                raise DimensionMismatch("empty generator list needs ambient_dim")
            ambient_dim = dims.pop()
        if any(d != ambient_dim for d in dims):
            raise DimensionMismatch(f"generators of mixed ambient dimension: {sorted(dims)}")
        basis, pivots = rref(np.array(gens, dtype=np.int64).reshape(-1, ambient_dim), p)
        self.basis = tuple(tuple(int(c) for c in row) for row in basis[: pivots.sum()])
        self.p = p
        self.ambient_dim = ambient_dim

    @classmethod
    def from_echelon(cls, rows, p: int, ambient_dim: int) -> "Subspace":
        """The subspace whose reduced row-echelon basis is `rows`, taken as given."""
        s = cls.__new__(cls)
        s.p = p
        s.ambient_dim = ambient_dim
        s.basis = tuple(tuple(int(c) for c in row) for row in rows)
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> np.ndarray:
        if not self.basis:
            return np.zeros((0, self.ambient_dim), dtype=np.int64)
        return np.array(self.basis, dtype=np.int64)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(p={self.p}, dim={self.dim}, basis={self.basis})"


class LinearMap:
    """A linear map stored by its matrix (images of the standard basis as columns)."""

    __slots__ = ("p", "matrix", "domain_dim", "codomain_dim")

    def __init__(self, matrix, p: int):
        self.matrix = as_vec(np.atleast_2d(matrix), p)
        self.p = p
        self.codomain_dim, self.domain_dim = self.matrix.shape

    @classmethod
    def identity(cls, n: int, p: int) -> "LinearMap":
        return cls(np.eye(n, dtype=np.int64), p)

    def __call__(self, v) -> tuple[int, ...]:
        v = as_vec(v, self.p)
        if v.shape != (self.domain_dim,):
            raise DimensionMismatch("vector not in the domain")
        return tuple(int(c) for c in (self.matrix @ v) % self.p)

    def apply_rows(self, vs: np.ndarray) -> np.ndarray:
        return (as_vec(vs, self.p) @ self.matrix.T) % self.p

    def compose(self, other: "LinearMap") -> "LinearMap":
        return LinearMap((self.matrix @ other.matrix) % self.p, self.p)

    def is_bijective(self) -> bool:
        if self.domain_dim != self.codomain_dim:
            return False
        if (self.matrix.diagonal() == 1).all() and not np.tril(self.matrix, -1).any():
            return True  # upper unitriangular: determinant 1, no rank test needed
        return int(rank(self.matrix, self.p)) == self.domain_dim

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.p == other.p
            and self.matrix.shape == other.matrix.shape
            and bool((self.matrix == other.matrix).all())
        )

    def __hash__(self):
        return hash((self.p, self.matrix.tobytes(), self.matrix.shape))

    def __repr__(self):
        return f"LinearMap(p={self.p}, matrix={self.matrix.tolist()})"


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def enumerate_subspaces(k: int, n: int, p: int, budget: int = DEFAULT_BUDGET) -> list[Subspace]:
    """All k-dimensional subspaces of GF(p)^n, one canonical echelon form each."""
    if not 0 <= k <= n:
        raise DimensionMismatch(f"need 0 <= k <= n, got k={k}, n={n}")
    total = gaussian_binomial(n, k, p)
    check_budget(total, budget, f"{k}-subspaces of GF({p})^{n}")
    out = []
    for pivots in combinations(range(n), k):
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        base = np.zeros((k, n), dtype=np.int64)
        for i, c in enumerate(pivots):
            base[i, c] = 1
        for vals in product(range(p), repeat=len(free)):
            m = base.copy()
            for (i, j), v in zip(free, vals):
                m[i, j] = v
            out.append(Subspace.from_echelon(m, p, n))
    assert len(out) == total
    return out
