"""Memory guards: the verify kernels allocate O(|Y|^2) at most, never a |Y|^3
or (p^n)^2 * n temporary.  tracemalloc sees numpy's buffers, so a traced peak
is what a kernel allocates, not what the process happens to hold."""

import tracemalloc

import pytest

import numpy as np

from semipolar.apsg import SemipolarSpace
from semipolar.forms import group_tables
from semipolar.linalg import SplitTable
from semipolar.suites import SuiteConfig, applicable_suites, run_suite


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bisectors_suite_allocates_a_few_tables(sp_m2_gf3):
    space = sp_m2_gf3
    # the inputs the suite reads are built beforehand: they are not its temporaries
    space.value_table
    group_tables(space.p, space.ydim)
    peak = traced_peak(lambda: run_suite("bisectors", space, SuiteConfig()))
    # a |Y|^3 boolean tensor alone would be |Y| = 243 bytes per table element
    assert peak < 48 * space.size**2


@pytest.mark.parametrize(
    "name, instance",
    [pytest.param(name, "sp_m2_gf3", id=name) for name in ["gamma", "pencil", "triangles", "joinable", "recover"]]
    + [pytest.param("recover", "sp_cross_gf3", id="recover-cross")],
)
def test_point_loop_suites_allocate_a_few_tables(request, instance, name):
    # a fresh space, so the suite's own tables count, recover's AND table of
    # about 4 |Y|^2 bytes among them; the value table, the adjacency and the
    # group tables are inputs built beforehand
    space = SemipolarSpace(request.getfixturevalue(instance).form)
    space.adjacency
    group_tables(space.p, space.ydim)
    peak = traced_peak(lambda: run_suite(name, space, SuiteConfig()))
    # a |Y|^3 boolean tensor alone would be |Y| * |Y|^2 bytes
    assert peak < 48 * space.size**2


def test_recover_sweep_holds_no_pair_keys(sp_m2_gf3):
    # the pairs are read off the adjacency a block at a time, so the peak is
    # the AND table (4.4 |Y|^2 bytes) and one block's temporaries, about 15
    # |Y|^2 in all; int64 keys i * |Y| + j of every pair, split, joined and
    # sorted out of duplicates took it to 29.9
    space = SemipolarSpace(sp_m2_gf3.form)
    space.adjacency
    group_tables(space.p, space.ydim)
    peak = traced_peak(lambda: run_suite("recover", space, SuiteConfig()))
    assert peak < 16 * space.size**2


def test_gamma_suite_keeps_the_maximal_subspaces_as_codes(sp_m2_gf3):
    # the space holds about 4.2 |Y|^2 bytes after the suite, its line tables
    # and the 1,080 maximal planes as int32 code rows (0.7 |Y|^2) among them;
    # as frozensets the planes alone would be about 13 |Y|^2
    space = SemipolarSpace(sp_m2_gf3.form)
    space.adjacency
    group_tables(space.p, space.ydim)
    tracemalloc.start()
    try:
        run_suite("gamma", space, SuiteConfig())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 8 * space.size**2


@pytest.mark.parametrize("name", ["identities", "axioms"])
@pytest.mark.parametrize("instance", ["sp_m2_gf3", "sp_cross_gf3"])
def test_value_table_suites_allocate_a_few_tables(request, instance, name):
    space = request.getfixturevalue(instance)
    space.value_table
    group_tables(space.p, space.ydim)
    group_tables(space.p, space.nu)
    peak = traced_peak(lambda: run_suite(name, space, SuiteConfig()))
    # identities and axioms each read 18.0-18.4 |Y|^2 bytes on m2 and cross;
    # a flat-index lookup per shift, through an intp (|Y|, |Y|) index, took
    # identities to 46-54, and a |Y|^3 temporary is |Y| bytes per table element
    assert peak < 32 * space.size**2


def test_value_table_build_allocates_a_few_int32_tables(sp_m2_gf3):
    out = []
    peak = traced_peak(lambda: out.append(sp_m2_gf3.form.value_table()))
    # the table itself and one digit table; an int64 (|Y|, |Y|) temporary is two
    assert peak < 3 * out[0].nbytes


def test_group_tables_build_allocates_a_few_tables():
    out = []
    peak = traced_peak(lambda: out.append(group_tables.__wrapped__(3, 6)))
    vecs = out[0][0]
    # a few (p^n, n) int64 arrays; one (p^n, p^n) uint16 table alone is 15x vecs
    assert peak < 6 * vecs.nbytes


def test_hyperbolic_suite_holds_no_unpacked_layer():
    # over GF(5) the 4,836 polar lines as an unpacked mask over the 806 quadric
    # points would be 4,836 * 806 bytes; the closure holds them as member codes
    peak = traced_peak(lambda: run_suite("hyperbolic", None, SuiteConfig(field=5)))
    assert peak < 4836 * 806


def held_arrays(space) -> list:
    """The numpy arrays the space holds in its attributes, tuples and lists
    opened, and those of the group tables of Y and of V' that it reads; a
    `SplitTable` counts as its two halves.  Each array once."""
    found = {}

    def visit(x):
        if isinstance(x, np.ndarray):
            found[id(x)] = x
        elif isinstance(x, SplitTable):
            visit([x.hi, x.lo])
        elif isinstance(x, (tuple, list)):
            for y in x:
                visit(y)

    visit(list(vars(space).values()))
    visit(group_tables(space.p, space.ydim))
    visit(group_tables(space.p, space.nu))
    return list(found.values())


@pytest.mark.parametrize("instance", ["sp_m2_gf3", "sp_cross_gf3"])
def test_cached_tables_cost_at_most_two_bytes_per_point_pair(request, instance):
    # after every suite: the value table at code width and the adjacency are
    # the only (|Y|, |Y|) arrays held, 2 bytes per point pair together; every
    # other array, per-point arrays and the closure's code rows among them,
    # is smaller than the value table alone
    space = SemipolarSpace(request.getfixturevalue(instance).form)
    cfg = SuiteConfig()
    for name in applicable_suites(space, cfg):
        assert run_suite(name, space, cfg)["passed"], name
    size = space.size
    arrays = held_arrays(space)
    tables = {id(a): a for a in arrays if a.shape.count(size) >= 2}
    assert set(tables) == {id(space.value_table), id(space.adjacency)}
    assert sum(a.nbytes for a in tables.values()) <= 2 * size**2
    assert max(a.nbytes for a in arrays if id(a) not in tables) < space.value_table.nbytes
