"""Layout guards: the exact oracles live in gcirculant.oracle and nowhere else.

The production modules carry only index-encoded arrays and the run path;
the tuple model, the Fraction phases, the quadratic-time oracles and the
selftest built on them sit in one module that the experiment path never
loads.  Every module but the oracle needs only the standard library and
numpy at run time.  In `cli`, each check is named once, in `_CHECKS`, and
the run path derives its arrays and run order from that table.  Importing
`cli` loads no numpy.random, numpy.fft or numpy.ma, no check loads
numpy.ma, and a one-thread run loads no concurrent.futures.  `spectra` holds
the one chunk size of the block reductions, and the covariance check reads
the second-moment model only through `limits.predicted_pair_moments`.  The
transform has one buffer convention: `forward` works in its caller's array,
and `cli` reaches it only through `spectra`.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import gcirculant

PACKAGE = Path(gcirculant.__file__).resolve().parent
PRODUCTION_MODULES = ("groups.py", "fourier.py", "spectra.py", "ensembles.py")
ORACLE_NAMES = frozenset(
    {
        # the tuple model of elements and characters, with exact phases
        "_snap_phasor", "phasor_array", "Element", "Character", "identity",
        "_check_coords", "element", "element_from_index", "element_index", "coords_matrix",
        "character", "character_from_index", "character_index", "elements",
        "characters", "mul", "inv", "_involution_indices", "involution_subgroup",
        "char_phase", "char_value", "is_real_character", "conjugate_character",
        "_phase_numerators", "character_column", "character_table",
        "subgroup_closure", "CharacterRestriction", "restriction_on",
        "restrict_character", "restrict_to_involutions",
        # transforms and products straight from the definitions
        "_finite", "dft_naive", "fft_fast", "inverse_fft", "_difference_table", "convolve",
        # the dense matrix and its eigen-relation residual
        "DENSE_SIZE_CAP", "dense_matrix", "eigen_residual",
        # the spectrum's exact second moments, through the run path's own shaping
        "exact_moments",
        # the `gcirculant selftest` suite
        "SELFTEST_GROUPS", "selftest",
        # Monte Carlo helpers only the tests use
        "NormRatioPoint", "norm_ratio_curve", "MomentReport", "moment_check",
    }
)
# test-only helpers whose job the run path already does; the tests use the run path
REMOVED_DUPLICATES = frozenset(
    {"run_selftest", "real_eigenvalues", "std_complex_gaussian", "normal_cdf", "second_moments"}
    # the indicator arrays the covariance check built its prediction from;
    # limits.predicted_pair_moments is the one array form of the model
    | {"pair_indicators"}
)
# the tuple model's index maps, once GroupSpec methods; only the oracle uses them
MOVED_INDEX_MAPS = frozenset({"index_of", "coords_of", "_strides"})

# what importing cli must not load: numpy.random and numpy.fft pay their
# import inside the run, where run_s measures it, not hidden in start-up; and
# numpy.ma (about 1.3 MiB, pulled in by np.median or np.unique) has no use
LAZY_MODULES = ("numpy.random", "numpy.fft", "numpy.ma")
CLI_IMPORT = f"""
import json, sys
import gcirculant.cli
print(json.dumps([name for name in {LAZY_MODULES!r} if name in sys.modules]))
"""
EVERY_CHECK = """
import json, sys
from gcirculant.cli import CHECK_NAMES, ExperimentPlan, run_experiment
from gcirculant.ensembles import EnsembleConfig

plan = ExperimentPlan(group="4,2", cfg=EnsembleConfig(seed=5), trials=1000, checks=CHECK_NAMES)
run_experiment(plan)
print(json.dumps("numpy.ma" in sys.modules))
"""
# what a one-thread run must not load: concurrent.futures (with logging, queue
# and traceback) is imported only when a run starts threads
ONE_THREAD_RUN = """
import json, sys
from gcirculant.cli import ExperimentPlan, run_experiment
from gcirculant.ensembles import EnsembleConfig

checks = ("limit_distance", "covariance", "norm_curve", "lindeberg")
run_experiment(
    ExperimentPlan(group="4,2", cfg=EnsembleConfig(seed=5), trials=1000, checks=checks, jobs=1)
)
print(json.dumps([name for name in ("concurrent.futures", "logging") if name in sys.modules]))
"""
RUN_PATH = """
import json, sys
from gcirculant.cli import ExperimentPlan, run_experiment
from gcirculant.ensembles import EnsembleConfig

checks = ("limit_distance", "covariance", "norm_curve", "lindeberg")
run_experiment(ExperimentPlan(group="4,2", cfg=EnsembleConfig(seed=5), trials=1000, checks=checks))
print(json.dumps({
    name: sorted(vars(module))
    for name, module in sys.modules.items()
    if name == "gcirculant" or name.startswith("gcirculant.")
}))
"""


def top_level_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / module).read_text())


def test_spectra_owns_the_one_chunk_size():
    # every block reduction reads spectra._CHUNK through spectra._chunks, so no
    # other module may define a chunk size of its own
    owners = {}
    for path in PACKAGE.glob("*.py"):
        for name in top_level_definitions(ast.parse(path.read_text())):
            if name.endswith("_CHUNK"):
                owners.setdefault(path.name, set()).add(name)
    assert owners == {"spectra.py": {"_CHUNK"}}
    assert "_chunks" in top_level_definitions(parse("spectra.py"))


def test_oracle_defines_every_oracle_name():
    assert ORACLE_NAMES <= top_level_definitions(parse("oracle.py"))


def imported_modules(tree: ast.Module) -> set[str]:
    """Last component of every module an import names, and of every name it takes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update([node.module or ""] + [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return {name.split(".")[-1] for name in names}


def test_production_modules_hold_no_oracle_code():
    for module in PRODUCTION_MODULES:
        tree = parse(module)
        assert not ORACLE_NAMES & top_level_definitions(tree), module
        assert "oracle" not in imported_modules(tree), module


def test_transform_has_one_buffer_convention():
    # forward overwrites the array it is given: no plan-made buffer, no work=
    # mode, and cli leaves the buffer to spectra.eigenvalue_block
    from gcirculant import fourier, spectra

    assert not hasattr(fourier.TransformPlan, "work")
    for fn in (fourier.TransformPlan.forward, spectra.eigenvalue_block):
        assert "work" not in inspect.signature(fn).parameters, fn.__qualname__
    assert "fourier" not in imported_modules(parse("cli.py"))


def test_cli_and_limits_keep_only_the_run_path():
    for module in ("cli.py", "limits.py"):
        assert not ORACLE_NAMES & top_level_definitions(parse(module)), module
    for path in PACKAGE.glob("*.py"):
        if path.name != "oracle.py":
            tree = ast.parse(path.read_text())
            defs = (ast.FunctionDef, ast.ClassDef)
            defined = {n.name for n in ast.walk(tree) if isinstance(n, defs)}  # methods too
            removed = REMOVED_DUPLICATES | MOVED_INDEX_MAPS
            assert not removed & (defined | top_level_definitions(tree)), path.name


def test_cli_uses_the_oracle_only_as_oracle_selftest():
    nodes = list(ast.walk(parse("cli.py")))
    names = [n for n in nodes if isinstance(n, ast.Name) and n.id == "oracle"]
    attributes = [n.attr for n in nodes if isinstance(n, ast.Attribute) and n.value in names]
    # every mention of the module reads an attribute, and that attribute is selftest
    assert attributes and set(attributes) == {"selftest"} and len(attributes) == len(names)
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            # only `from . import oracle`: no name is taken out of the oracle
            assert node.module != "oracle", ast.unparse(node)


def imported_top_level_names(tree: ast.Module) -> set[str]:
    """Top-level package of every absolute import; relative imports are "gcirculant"."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("gcirculant" if node.level else (node.module or "").split(".")[0])
    return names


def test_runtime_dependencies_are_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "gcirculant"}
    modules = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "oracle.py")
    assert "limits.py" in modules and "cli.py" in modules
    for module in modules:
        assert imported_top_level_names(parse(module)) <= allowed, module


def run_fresh(code: str):
    """The JSON that `code` prints in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=120,
    )
    return json.loads(result.stdout)


def test_cli_import_leaves_the_lazy_numpy_modules_unloaded():
    assert run_fresh(CLI_IMPORT) == []


def test_no_check_loads_numpy_ma():
    assert run_fresh(EVERY_CHECK) is False


def test_one_thread_run_loads_no_thread_pool():
    assert run_fresh(ONE_THREAD_RUN) == []


def test_experiment_path_never_loads_the_oracle():
    loaded = run_fresh(RUN_PATH)
    assert "gcirculant.cli" in loaded
    assert "gcirculant.oracle" not in loaded
    for name, attributes in loaded.items():
        assert not ORACLE_NAMES & set(attributes), name


def test_each_check_is_named_only_in_the_checks_table():
    from gcirculant import cli

    assert cli.CHECK_NAMES == tuple(cli._CHECKS)
    bodies = {n.name: n for n in parse("cli.py").body if isinstance(n, ast.FunctionDef)}
    for name in ("_trial_shapes", "_trial_results", "run_experiment"):
        strings = {n.value for n in ast.walk(bodies[name]) if isinstance(n, ast.Constant)}
        assert not strings & set(cli.CHECK_NAMES), name


def test_covariance_check_reads_the_model_only_through_limits():
    # the prediction's parameters are read in limits.predicted_pair_moments
    body = next(
        n for n in parse("cli.py").body
        if isinstance(n, ast.FunctionDef) and n.name == "_check_covariance"
    )
    names = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
    assert "predicted_pair_moments" in names
    assert not names & {"alpha", "beta", "involution_fraction"}
