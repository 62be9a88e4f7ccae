"""The public surface, and the names that left the library for the tests.

The package exports exactly the names below, written out in its
``__all__``: no submodule name is exported.  The Q(sqrt(3)) ring and
field arithmetic now lives in ``geometry_oracle`` and the other code only
the tests ran in ``helpers`` and the test modules; an AST scan of the
library, the benchmark and the tools finds none of those names, and the
options and members that went with them are gone from the classes that
remain.  A second scan keeps it so: every library definition is read by
the library, the benchmark or the tools, or is documented in README.
"""

import ast
import dataclasses
import inspect
import re
from collections import Counter
from pathlib import Path

import holderlevels
from holderlevels import levelset
from holderlevels.exact import CoordQ3, PointQ3, QSqrt3
from holderlevels.paf import PiecewiseAffineFn

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BernoulliWitnessFn", "BoundSearchParams", "CoordQ3", "DimensionEstimate",
    "FatCantorSet", "GraftedFn", "HolderCertificate", "HolderParams",
    "LevelSetTree", "LevelValue", "PhaseTransitionConfig", "PiecewiseAffineFn",
    "PointQ3", "QSqrt3", "SeparatedStructure", "boundary_family",
    "box_count_dimension", "cantor_level", "capacity_gap", "census_constant",
    "feasibility_search", "feasible_l", "graft", "graft_certificate_constant",
    "holder_certificate", "kappa_exponent", "line_crossing_count",
    "line_crossing_count_geometric", "lower_bound", "mass_distribution_lower",
    "min_graft_level", "phase_perturbation", "piecewise_constant_feasibility",
    "product_separated_structure", "random_standard_paf", "triangle_vertices",
    "trivial_upper_bound_sierpinski", "upper_bound", "well_conducting_census",
]

# deleted, or moved to tests/geometry_oracle.py and tests/helpers.py
REMOVED = {
    # levelset: deleted wrappers of LevelSetTree and extreme_pair
    "conductivity", "conservation_check", "conductivity_measure",
    "ExtremeLabeling", "extreme_labeling",
    # levelset: the copy of one tree level and its builder and guard
    "ApproxLevelSet", "approx_level_set", "checked_tree", "csv_summary",
    # levelset and triangles: the whole-family enumeration
    "_corner_values_checked", "subdivision_addresses", "iter_subdivision_addresses",
    # cantor: the IFS structure and its option
    "ifs_separated_structure", "AffineMap1D", "Cylinder", "self_similar",
    "_IFS_LEVELS", "_IFS_BASE",
    # cantor: the Fraction endpoint shift and the rectangle distance
    "_right_shift", "_distance_sq",
    # paf: the Fraction word table beside the integer one; cantor: the
    # log2 sides outside the one feasibility decision
    "word_table", "_words", "_log2_sides",
    # triangles and levelset: the wrapper around the boundary words and
    # the dict caches beside the cached functions
    "BoundaryFamilyL", "_boundary_words", "_BOUNDARY_CACHE", "_DIGIT_CACHE", "_STEPS_CACHE",
    # levelset: the table of every run block and its cell cache, which the
    # closed form _blocks replaced (the table is helpers.oracle_digit_blocks)
    "_digit_blocks", "_block_cells",
    # exact and triangles: the ring and field arithmetic
    "SQRT3", "from_fraction", "from_coord", "sign", "is_rational", "as_fraction",
    "inverse", "dist_sq", "scale_pow2", "_coerce", "_is_power_of_two",
    "rescaled_construction_triangles",
    "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__radd__",
    "__truediv__", "__rtruediv__", "__lt__", "__le__", "__gt__", "__ge__", "__float__",
    # paf, bernoulli, graft, cantor and triangles: fixtures and members only
    # the tests reached (DimensionEstimate.counts went too, but perfbench
    # names its own work counts "counts")
    "affine_from_corners", "constant_fn", "chained_bound", "iter_triangles",
    "is_locally_nonconstant", "bernoulli_cdf", "dyadic_cylinder_mass",
    "truncation_error", "labels_for", "min_gap", "rectangle", "ROOT_VERTICES",
    # paf: the wrapper that returned the vertex table's denominator _den
    "_denominator",
    # triangles: the reader of l, which _check_depth("l", l, 1) replaced
    "_check_l",
}


def _identifiers(tree: ast.AST):
    """(line, identifier) for every name a module binds, reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.value.lineno, node.arg
        elif isinstance(node, ast.alias):
            yield node.lineno, (node.asname or node.name).split(".")[-1]
            yield node.lineno, node.name.split(".")[-1]


def test_public_names_are_pinned():
    assert sorted(holderlevels.__all__) == PUBLIC


def test_removed_names_appear_nowhere_outside_the_tests():
    files = [p for d in ("src", "perfbench", "tools") for p in sorted((ROOT / d).rglob("*.py"))]
    assert files
    hits = [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in files
            for line, name in _identifiers(ast.parse(path.read_text(), str(path)))
            if name in REMOVED]
    assert hits == []


def test_every_src_definition_is_reached_outside_the_tests():
    # a function, class or method that only the tests call belongs in
    # tests/: its name must be read in src/ outside its own definition (a
    # re-export in __init__ is no caller), in perfbench/ or tools/, or be
    # documented in backticks in README
    library = {path: ast.parse(path.read_text(), str(path))
               for path in sorted((ROOT / "src" / "holderlevels").glob("*.py"))
               if path.name != "__init__.py"}
    reads = Counter(name for tree in library.values() for _, name in _identifiers(tree))
    outside = {name for d in ("perfbench", "tools") for path in sorted((ROOT / d).rglob("*.py"))
               for _, name in _identifiers(ast.parse(path.read_text(), str(path)))}
    documented = {word for span in re.findall(r"`([^`]*)`", (ROOT / "README.md").read_text())
                  for word in re.findall(r"\w+", span)}
    unreached = [f"{path.name}:{node.lineno}: {node.name}"
                 for path, tree in library.items() for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and not (node.name.startswith("__") and node.name.endswith("__"))
                 and reads[node.name] == sum(name == node.name for _, name in _identifiers(node))
                 and node.name not in outside | documented]
    assert len(library) >= 9
    assert unreached == []


def test_value_types_and_removed_members():
    # the exact types keep no arithmetic beyond what midpoint needs
    assert set(vars(CoordQ3)) & REMOVED == set()
    assert set(vars(QSqrt3)) & REMOVED == set()
    assert {"__add__", "__sub__", "__neg__"} & set(vars(PointQ3)) == set()
    assert "values" not in vars(PiecewiseAffineFn)


def test_values_the_code_derives_are_not_settable():
    # "standard" is read from the table, M is fn.lipschitz(), a cylinder's
    # corners follow from its indices, and the two test-only caps are fixed
    for make in (PiecewiseAffineFn, PiecewiseAffineFn._from_ints):
        assert "standard" not in inspect.signature(make).parameters
    assert not hasattr(holderlevels.random_standard_paf(1, 2, 0.5, 0.9, check=False),
                       "standard")
    assert [f.name for f in dataclasses.fields(holderlevels.HolderParams)] == ["alpha", "c"]
    config = holderlevels.PhaseTransitionConfig
    assert config.__dataclass_params__.frozen
    assert [f.name for f in dataclasses.fields(config) if f.init] \
        == ["alpha", "c", "k", "ix", "iy", "delta"]
    assert "relaxed" not in inspect.signature(holderlevels.census_constant).parameters
    assert "c_cap" not in inspect.signature(holderlevels.mass_distribution_lower).parameters
    # fn.holder is set by a passed certificate, never by the caller
    assert "holder" not in inspect.signature(PiecewiseAffineFn).parameters


def test_level_sets_are_read_from_the_tree_alone():
    # no second container for a tree level, and alpha comes from the
    # census's caller, never from a function's constants
    assert {"ApproxLevelSet", "approx_level_set", "checked_tree"} & set(vars(levelset)) == set()
    alpha = inspect.signature(holderlevels.well_conducting_census).parameters["alpha"]
    assert (alpha.kind, alpha.default) == (alpha.KEYWORD_ONLY, alpha.empty)
    reads_holder = _where("levelset", lambda n: getattr(n, "attr", None) == "holder")
    assert reads_holder == set()
    assert "_extend" in _where("levelset", lambda n: _called_name(n) == "scale")


# -- each rule written once: AST guards ---------------------------------

def _functions(module: str) -> dict[str, ast.FunctionDef]:
    """Every function and method of a library module, by name."""
    path = ROOT / "src" / "holderlevels" / f"{module}.py"
    tree = ast.parse(path.read_text(), str(path))
    return {node.name: node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _own_nodes(fn: ast.FunctionDef):
    """The nodes of a function's body, without those of functions nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        f = node.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    return None


def _where(module: str, found) -> set[str]:
    """Names of the functions of ``module`` with a node for which ``found`` holds."""
    return {name for name, fn in _functions(module).items()
            if any(found(node) for node in _own_nodes(fn))}


def test_cli_has_one_draw_build_and_resample_loop():
    def catches_collisions(node):
        return isinstance(node, ast.ExceptHandler) and any(
            getattr(n, "attr", getattr(n, "id", None)) == "LevelCollisionError"
            for n in ast.walk(node.type))

    assert _where("cli", catches_collisions) == {"_trees"}
    assert _where("cli", lambda n: _called_name(n) == "_level_draws") == {"_trees"}
    # selftest builds one tree at a fixed level value, with no draws
    assert _where("cli", lambda n: _called_name(n) == "LevelSetTree") == {
        "_trees", "cmd_selftest"}
    assert _where("cli", lambda n: _called_name(n) == "random_standard_paf") == {
        "_trees", "cmd_selftest"}
    # the six seeded-function options are declared once, on the parent
    # parser that both tree commands name
    declared: dict[str, list[str]] = {}
    parents = {}
    command = None
    for stmt in _functions("cli")["make_parser"].body:
        call = getattr(stmt, "value", None)
        if _called_name(call) == "add_parser":
            command = call.args[0].value
            parents[command] = [ast.unparse(k.value) for k in call.keywords
                                if k.arg == "parents"]
        elif _called_name(call) == "add_argument":
            owner = command if call.func.value.id == "p" else call.func.value.id
            declared.setdefault(owner, []).append(call.args[0].value)
    assert declared["tree_options"] == ["--seed", "--depth", "--l", "--level",
                                        "--alpha", "--c"]
    for command in ("levelset", "conductivity-hist"):
        assert parents[command] == ["[tree_options]"]
        assert set(declared[command]).isdisjoint(declared["tree_options"])


def test_bounds_take_their_logs_from_one_helper():
    def log_of(module):
        return lambda n: (isinstance(n, ast.Attribute) and n.attr in ("log", "power")
                          and isinstance(n.value, ast.Name) and n.value.id == module)

    assert _where("bounds", log_of("math")) == {"_arithmetic"}
    assert _where("bounds", log_of("mpmath")) == {"_arithmetic"}


def test_numpy_is_imported_by_the_float_kernels_alone():
    def imports_numpy(node):
        return (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy"
                                                     for a in node.names)
                or isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "numpy")

    kernels = {
        "paf": {"_vertex_points", "_vertex_arrays", "_pair_ratios", "_quadtree_scan"},
        "bounds": {"box_count_dimension"},
        "cantor": {"phase_perturbation"},
    }
    modules = sorted((ROOT / "src" / "holderlevels").glob("*.py"))
    assert {"paf", "bounds", "cantor", "cli", "__init__"} <= {m.stem for m in modules}
    for path in modules:
        assert _where(path.stem, imports_numpy) == kernels.get(path.stem, set()), path.stem
        # outside functions numpy is imported for type checkers only
        tree = ast.parse(path.read_text(), str(path))
        for_types = {id(n) for stmt in tree.body if isinstance(stmt, ast.If)
                     and ast.unparse(stmt.test) == "TYPE_CHECKING" for n in stmt.body}
        assert all(id(n) in for_types for n in _own_nodes(tree) if imports_numpy(n)), path.stem


def test_levelset_sums_kappa_exponents_in_one_function():
    def weighs_exponents(node):         # 1 << (top - e), the weight of 2**-e
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                and getattr(node.left, "value", None) == 1
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Sub))

    def sums_fractions(node):
        return _called_name(node) == "sum" and any(
            _called_name(n) == "Fraction" for arg in node.args for n in ast.walk(arg))

    # _split, the one weigher, lives with the run blocks, whose children it
    # splits; _digit_counts' 1 << (l - 1) is a digit's top bit, no weight
    assert _where("runs", weighs_exponents) == {"_split", "_digit_counts"}
    assert _where("levelset", weighs_exponents) == set()
    assert _where("levelset", sums_fractions) == set()
    assert _where("levelset", lambda n: _called_name(n) == "_split") == {
        "_kappa_sum", "_word_loop"}
    assert _where("runs", lambda n: _called_name(n) == "_split") == {"_block_children"}
    # conservation sums its members' exponents once (_kappa_sum): a run's
    # chain adds the exponent and count runs reads from its digit counts
    assert _where("levelset", lambda n: _called_name(n) == "_kappa_sum") == {"conservation"}
    assert _where("levelset", lambda n: _called_name(n) == "_run_weights") == {"conservation"}
    assert _where("runs", lambda n: _called_name(n) == "_digit_counts") == {
        "_heads", "_run_weights"}
    # no hand-written extreme words: a symbol repeated l times is spelled
    # only in _extreme_words, which the word loop and the kappa readers
    # call; a run block's children are read from _blocks' closed form
    def repeats_a_symbol(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and _called_name(node.left) == "str")

    assert _where("levelset", repeats_a_symbol) == {"_extreme_words"}
    assert _where("runs", repeats_a_symbol) == set()
    assert _where("levelset", lambda n: _called_name(n) == "_extreme_words") == {
        "_boundary_children", "kappa_exponent", "well_conducting_census"}


def test_nodes_below_the_crossing_come_from_the_runs_alone():
    # the word loop and the node view of the runs make the nodes below the
    # root, and only _extend runs the word loop; past c the readers of the
    # chains and the fill take a digit's block from runs, and a block's
    # words are spelled only by the node view (whose split _arm hands the
    # deepest level, from each run's last digit).  The run step names a collision from K's digit alone:
    # no word loop, no boundary child, no block child and no node.  _extend
    # has no per-node digit step and builds no node from the runs
    assert _where("levelset", lambda n: _called_name(n) == "LevelSetNode") == {
        "__init__", "_word_loop", "_expand_runs"}
    init = _functions("levelset")["__init__"]
    assert sum(_called_name(n) == "LevelSetNode" for n in _own_nodes(init)) == 1    # the root
    assert _where("levelset", lambda n: _called_name(n) == "_word_loop") == {"_extend"}
    assert _where("levelset", lambda n: _called_name(n) == "_blocks") == set()
    assert _where("levelset", lambda n: _called_name(n) in ("_chain", "_block_sums")) == {
        "histograms", "_expand_runs", "fill_measure"}
    assert _where("levelset", lambda n: _called_name(n) == "_last_digits") == {"_arm"}
    assert _where("levelset", lambda n: _called_name(n) == "_block_children") == {
        "_arm", "_expand_runs"}
    assert _where("levelset", lambda n: _called_name(n) == "_block_word") == {"_step_runs"}
    assert _where("runs", lambda n: _called_name(n) == "_block_word") == {"_block_children"}
    step = {_called_name(n) for n in _own_nodes(_functions("levelset")["_step_runs"])}
    assert not step & {"_word_loop", "_boundary_children", "_block_children", "LevelSetNode"}
    extend = _functions("levelset")["_extend"]
    assert not any(getattr(n, "id", getattr(n, "attr", None))
                   in ("_blocks", "_block_children", "_chain", "blocks")
                   for n in _own_nodes(extend))
    called = {_called_name(n) for n in _own_nodes(extend)}
    assert {"_word_loop", "_step_runs"} <= called and "_expand_runs" not in called


def test_the_tree_keeps_its_runs():
    # only _extend gives up the runs, at c, for a three-valued crossing
    # member; the node view of the runs never assigns the runs' K.  Each
    # run's (o, b, a) is read from its crossing member's corners once,
    # by _extend at c: no run reader past it calls odd_corner
    def names(node, attrs):
        return any(isinstance(n, ast.Attribute) and n.attr in attrs
                   and getattr(n.value, "id", None) == "self" for n in ast.walk(node))

    drops = [name for name, fn in _functions("levelset").items() for n in _own_nodes(fn)
             if isinstance(n, ast.Assign) and isinstance(n.value, ast.Constant)
             and n.value.value is None and any(names(t, {"_ks"}) for t in n.targets)]
    assert drops == ["_extend"]
    for view in ("_expand_runs", "_arm"):
        targets = [t for n in _own_nodes(_functions("levelset")[view]) for t in (
            n.targets if isinstance(n, ast.Assign) else
            [n.target] if isinstance(n, (ast.AugAssign, ast.AnnAssign)) else [])]
        assert targets and not any(names(t, {"_ks"}) for t in targets), view
    keeps = {name for name, fn in _functions("levelset").items() for n in _own_nodes(fn)
             if isinstance(n, (ast.Assign, ast.AnnAssign))
             and any(names(t, {"_runs"})
                     for t in (n.targets if isinstance(n, ast.Assign) else [n.target]))}
    assert keeps == {"__init__", "_extend"}
    assert _where("levelset", lambda n: _called_name(n) == "odd_corner") == {"_extend"}


def _imports(module: str) -> set[tuple[str, str]]:
    """(module, name) of every name a library module imports, the module's last part."""
    path = ROOT / "src" / "holderlevels" / f"{module}.py"
    nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
    return {((n.module or "").split(".")[-1], a.name)
            for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names} | {
        (a.name.split(".")[-1], a.name) for n in nodes if isinstance(n, ast.Import)
        for a in n.names}


def test_every_tree_reader_walks_the_chains():
    # one (member, run, K) iterator feeds every reader of a depth's runs,
    # and it alone asks whether the tree keeps runs at a depth: no reader
    # forks on the runs, and the mass check parses no address.  Past the
    # run step, only _chains takes the runs' K from the tree
    readers = {"histograms", "conservation", "_expand_runs", "_arm", "fill_measure",
               "_members"}
    assert readers <= _where("levelset", lambda n: _called_name(n) == "_chains")
    names_runs = _where("levelset", lambda n: isinstance(n, ast.Attribute)
                        and n.attr == "_ks" and getattr(n.value, "id", None) == "self")
    assert names_runs == {"__init__", "_extend", "_step_runs", "_chains"}
    keeps_runs = _where("levelset", lambda n: isinstance(n, ast.Compare)
                        and isinstance(n.ops[0], ast.IsNot) and ast.unparse(n.left) == "self._ks")
    assert keeps_runs == {"_chains"}
    assert "_run_chains" not in _functions("levelset")
    # the mass check reads the argument readers from triangles, and no
    # lattice or address function
    from_triangles = {name for module, name in _imports("bounds") if module == "triangles"}
    assert from_triangles and all(name.startswith("_check_") or name == "_rational"
                                  for name in from_triangles), from_triangles


def test_the_mass_check_reads_each_run_from_block_summaries():
    # a run's window and seam come from summaries cached per digit, so only
    # they and the worst cell's six line positions read a block's cells, in
    # runs, and _members yields each run's K rather than its blocks.  The
    # mass check reads two constants of _blocks itself: the zero block's
    # sum and the last line position
    def reads_cells(node):
        return _called_name(node) in ("_block_cell", "_weight", "_chain", "_digits")

    assert _where("runs", reads_cells) == {"_corner_cells", "_line_members"}
    assert _where("bounds", reads_cells) == set()
    assert _where("bounds", lambda n: _called_name(n) == "_line_members") == {"_window_members"}
    assert _where("bounds", lambda n: _called_name(n) == "_blocks") == {
        "_run_windows", "_window_members"}
    members = _functions("levelset")["_members"]
    assert not {"_blocks", "_block_cell", "_block_children", "_chain", "_block_sums"} & {
        _called_name(n) for n in _own_nodes(members)}


def test_argument_rules_are_written_once():
    # "alpha lies in (0, 1]" and "positive and finite" are each one reader
    # in triangles; the CLI's own flag checks keep their pinned messages
    def alpha_bound(node):
        return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
                and node.left.value == 0 and isinstance(node.ops[0], ast.Lt)
                and getattr(node.comparators[0], "id",
                            getattr(node.comparators[0], "attr", None)) == "alpha")

    def below_infinity(node):
        return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
                and node.left.value == 0 and isinstance(node.ops[0], ast.Lt)
                and any(ast.unparse(c) == "math.inf" for c in node.comparators))

    modules = [p.stem for p in sorted((ROOT / "src" / "holderlevels").glob("*.py"))
               if p.stem not in ("cli", "__init__")]
    assert len(modules) >= 8
    alpha = {(m, name) for m in modules for name in _where(m, alpha_bound)}
    positive = {(m, name) for m in modules for name in _where(m, below_infinity)}
    assert alpha == {("triangles", "_check_alpha")}
    assert positive == {("triangles", "_check_positive")}

    # c in (0, 1), M >= 0 and lipschitz >= 0 are read by _check_open_unit
    # and _check_nonnegative in triangles: no module bounds those names itself
    def bounds_a_rule_name(node):
        if not isinstance(node, ast.Compare):
            return False
        sides = [node.left, *node.comparators]
        return (all(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
                and any(isinstance(v, ast.Constant) and v.value == 0 for v in sides)
                and any(getattr(v, "id", getattr(v, "attr", None)) in ("c", "M", "lipschitz")
                        for v in sides))

    assert {(m, name) for m in modules for name in _where(m, bounds_a_rule_name)} == set()
    readers = {(m, name, _called_name(n)) for m in modules for name, fn in _functions(m).items()
               for n in _own_nodes(fn)
               if _called_name(n) in ("_check_open_unit", "_check_nonnegative")}
    assert readers == {("cantor", "piecewise_constant_feasibility", "_check_open_unit"),
                       ("cantor", "piecewise_constant_feasibility", "_check_nonnegative"),
                       ("cantor", "__post_init__", "_check_open_unit"),
                       ("graft", "graft_certificate_constant", "_check_nonnegative")}

    # a count's lower bound is _check_depth's third argument: no function
    # compares a name it passed to _check_depth and then raises, but for
    # the upper bounds listed with what they bound
    upper_bounds = {
        ("cantor", "__post_init__", "index >= 1 << self.k"): "ix, iy index 2**k intervals",
        ("levelset", "histograms", "first > n"): "the histograms run from first to n",
    }
    bounded = set()
    for m in modules:
        path = ROOT / "src" / "holderlevels" / f"{m}.py"
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            counts = {ast.unparse(n.args[1]) for n in _own_nodes(fn)
                      if _called_name(n) == "_check_depth"}
            bounded |= {(m, fn.name, ast.unparse(c)) for n in _own_nodes(fn)
                        if isinstance(n, ast.If)
                        and any(isinstance(r, ast.Raise) for stmt in n.body for r in ast.walk(stmt))
                        for c in ast.walk(n.test) if isinstance(c, ast.Compare)
                        and counts & {ast.unparse(v) for v in (c.left, *c.comparators)}}
    assert bounded == set(upper_bounds)


def test_runs_alone_take_a_runs_digits_apart():
    # a run's K and a line position are laid out in base 2**l, most
    # significant digit first, and only runs.py reads that layout: outside
    # it no shift is by l or a multiple of it, which also rules out a
    # (1 << l) - 1 digit mask.  A name assigned l times something counts as
    # a multiple.  The shifts by l that read no digit are listed with what
    # they do; scale()'s shift is by the word length minus L, not by l
    not_digit_reads = {
        ("levelset", "_expand_runs", "b << l"):
            "b' = b 2**l + k d, the corner a block's children share",
        ("levelset", "well_conducting_census", "1 << l"):
            "B = 3 (2**l - 1), the number of boundary words",
        ("bounds", "_run_windows", "row << k * l"):
            "a seam member's row: its run's, then the k l bits runs._corner_cells gives",
        ("bounds", "_run_windows", "col << k * l"):
            "a seam member's col: its run's, then the k l bits runs._corner_cells gives",
    }

    def by_l(node, derived) -> bool:
        if isinstance(node, ast.Name):
            return node.id == "l" or node.id in derived
        if isinstance(node, ast.Attribute):
            return node.attr == "l"
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and (by_l(node.left, derived) or by_l(node.right, derived)))

    def digit_shifts(fn):
        pairs = []
        for n in _own_nodes(fn):
            if isinstance(n, ast.Assign):
                for target in n.targets:
                    if isinstance(target, ast.Tuple) and isinstance(n.value, ast.Tuple):
                        pairs += zip(target.elts, n.value.elts)
                    else:
                        pairs.append((target, n.value))
        derived: set[str] = set()
        while True:
            more = {t.id for t, v in pairs if isinstance(t, ast.Name) and by_l(v, derived)}
            if more <= derived:
                break
            derived |= more
        return {ast.unparse(n) for n in _own_nodes(fn) if isinstance(n, ast.BinOp)
                and isinstance(n.op, (ast.LShift, ast.RShift)) and by_l(n.right, derived)}

    modules = [p.stem for p in sorted((ROOT / "src" / "holderlevels").glob("*.py"))]
    assert {"runs", "levelset", "bounds"} <= set(modules)
    found = {(m, name, shift) for m in modules if m != "runs"
             for name, fn in _functions(m).items() for shift in digit_shifts(fn)}
    assert found == set(not_digit_reads)
    # the layout sits in runs: K is built, cut and listed there
    assert _where("runs", lambda n: isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)
                  and by_l(n.right, set())) >= {"_run_ks"}
    # and runs reads no other module of the library
    assert {m for m, _ in _imports("runs")} <= {"__future__", "functools", "itertools"}
