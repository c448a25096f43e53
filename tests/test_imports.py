"""The import contract: a command loads only the modules it runs, nothing
loads ``dataclasses``, and the package's public names resolve on first use."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import qident

# every name the package exported when its __init__ imported each submodule
_PUBLIC = {
    "errors": (
        "BadParams", "DivisionInexact", "DomainViolation", "DslError",
        "MissingParam", "NonConvergent", "NonIntegerExponent",
        "NonUnitConstantTerm", "NotSelfConjugate", "ParseError", "QidentError",
        "TruncationRequired", "UnboundVariable", "UnknownBijection",
        "UnknownDomain", "UnknownIdentity",
    ),
    "series": ("MultiSeries", "QSeries", "poch_finite", "poch_infinite",
               "qbinom", "qq_factorial"),
    "partitions": (
        "DistinctPartition", "Partition", "PartitionPair", "SignedDistinctSet",
        "conjugate", "distinct_odd_to_selfconj", "domain_validator",
        "durfee_size", "enumerate_domain", "enumerate_partitions",
        "selfconj_to_distinct_odd",
    ),
    "bijections": (
        "BijectionReport", "check_bijection", "durfee_join", "durfee_split",
        "nu3_forward", "nu3_inverse", "phi", "phi_inv", "psi", "psi_inv",
        "rho", "rho_inv", "tau",
    ),
    "identities": (
        "IDENTITY_IDS", "IdentityCase", "VerifyReport", "build_side", "p_nu",
        "p_omega", "q1_limit_check", "s_sum", "verify",
    ),
    "dsl": ("evaluate", "parse", "unparse"),
}

_SRC = str(Path(qident.__file__).resolve().parents[1])


def _modules_after(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code`` (which
    may print nothing to stdout)."""
    probe = (code + "\nimport json, sys\n"
             "sys.__stdout__.write(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out))


def _after_main(*argv) -> set:
    return _modules_after(
        "import contextlib, io\n"
        "from qident.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n")


def test_import_loads_no_submodule():
    loaded = _modules_after("import qident")
    assert {m for m in loaded if m.startswith("qident")} == {"qident"}
    assert "dataclasses" not in loaded


_EVALUATOR = {"qident", "qident.cli", "qident.errors", "qident.dsl", "qident.budget",
              "qident.syntax", "qident.series", "qident.kernel"}


def test_eval_loads_only_dsl_and_series():
    loaded = _after_main("eval", "q", "--trunc", "3")
    assert {m for m in loaded if m.startswith("qident")} == _EVALUATOR | {
        "qident.cli_eval"}
    assert not loaded & {"qident.partitions", "qident.bijections",
                         "qident.identities", "dataclasses"}


def test_verify_of_series_sides_loads_the_evaluator_and_identities():
    loaded = _after_main("verify", "ay1", "--no-comb", "--trunc", "10")
    assert {m for m in loaded if m.startswith("qident")} == _EVALUATOR | {
        "qident.cli_verify", "qident.identities"}
    assert "dataclasses" not in loaded


def _nodes(modules) -> int:
    """The AST nodes of the qident modules among ``modules``."""
    return sum(sum(1 for _ in ast.walk(ast.parse(
        Path(import_module(m).__file__).read_text(encoding="utf-8"))))
        for m in modules if m.split(".")[0] == "qident")


# the modules off every command's main route, each loaded on first use
_ON_FIRST_USE = {"qident.exact", "qident.series_ops", "qident.printing",
                 "qident.recount", "qident.demos"}


@pytest.mark.parametrize("argv, bound, first_use", [
    (("eval", "q", "--trunc", "3"), 11650, set()),
    (("verify", "ay1", "--no-comb", "--trunc", "10"), 13000, set()),
    (("bijection", "phi", "--n", "1"), 7600, set()),
    # every Gaussian binomial of an exact side is a chain in the exact
    # product's window, so the side loads exact but not series_ops
    *((("verify", name, "--n", "7", "--no-comb"), 14400, {"qident.exact"})
      for name in ("thm21", "middle", "qbinom_thm")),
], ids=["eval", "verify", "bijection", "thm21", "middle", "qbinom_thm"])
def test_command_compiles_within_its_budget(argv, bound, first_use):
    # a cold launch compiles every module it loads, about 1.75 ms per
    # 1 000 AST nodes, so a command loads only its own handler, and what
    # is off its main route only when it runs it
    loaded = _after_main(*argv)
    assert _nodes(loaded) <= bound
    assert loaded & _ON_FIRST_USE == first_use


def test_exact_division_loads_on_first_use():
    loaded = _modules_after("from qident.dsl import evaluate\n"
                            "evaluate('(1-q^3)*(1-q)^(-1)', {}, None)")
    assert "qident.exact" in loaded


def test_series_operations_load_on_first_use():
    # an exact power of a factor that is no chain is expanded, and a
    # reciprocal of a series that is no Pochhammer power is an inverse
    loaded = _modules_after("from qident.dsl import evaluate\n"
                            "evaluate('(1+q)^2', {}, None)")
    assert "qident.series_ops" in loaded
    loaded = _after_main("eval", "(1+q+q^2)^(-1)", "--trunc", "10")
    assert "qident.series_ops" in loaded and "qident.exact" not in loaded


def test_printing_loads_on_first_use():
    loaded = _modules_after("from qident.dsl import evaluate, parse, unparse\n"
                            "assert unparse(parse('q^2')) == 'q^2'")
    assert "qident.printing" in loaded and "qident.series_ops" not in loaded
    loaded = _modules_after("from qident.dsl import evaluate\n"
                            "assert repr(evaluate('q', {}, 3)) == 'MultiSeries(1*<q>)'")
    assert "qident.printing" in loaded


@pytest.mark.parametrize("argv", [
    ("table", "--max-n", "3"),
    ("verify", "q1limit", "--n", "1"),
    ("verify", "thm21", "--n", "1"),
], ids=["table", "q1limit", "enumeration-side"])
def test_recounts_load_on_first_use(argv):
    assert "qident.recount" in _after_main(*argv)


def test_recounts_are_served_by_identities():
    from qident import identities, recount

    for name in identities._RECOUNTS:
        assert getattr(identities, name) is getattr(recount, name), name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        identities.nope


def test_demos_load_on_first_use():
    loaded = _after_main("bijection", "phi", "--n", "1", "--demo", "(1)|()")
    assert "qident.demos" in loaded


def test_bijection_loads_no_dsl_or_identities():
    loaded = _after_main("bijection", "phi", "--n", "1")
    assert not loaded & {"qident.dsl", "qident.identities", "qident.series",
                         "dataclasses"}
    assert "qident.bijections" in loaded


def test_list_loads_no_dsl_or_series():
    loaded = _after_main("list")
    assert not loaded & {"qident.dsl", "qident.series", "dataclasses"}
    assert "qident.identities" in loaded


@pytest.mark.parametrize("module", ["budget", "kernel", "syntax"])
def test_split_module_imports_first(module):
    # each half of a split module loads on its own, before the other half
    loaded = _modules_after(f"import qident.{module}")
    assert f"qident.{module}" in loaded


def test_kernel_loads_below_the_series():
    # the imports run one way, kernel -> series -> dsl
    loaded = _modules_after("import qident.kernel")
    assert "qident.series" not in loaded and "qident.dsl" not in loaded
    # the kernel reaches its size checks only when it runs them
    assert "qident.budget" not in loaded


def test_split_modules_reexport():
    from qident import dsl, series, syntax

    # the public constructors live beside the values they build
    for name in ("poch_finite", "poch_infinite", "qbinom", "qq_factorial"):
        assert getattr(series, name).__module__ == "qident.series", name
    for name in ("BinOp", "Call", "Int", "Name", "Neg", "Pow", "Token",
                 "MAX_POWER_BITS", "parse", "unparse"):
        assert getattr(dsl, name) is getattr(syntax, name), name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        series.nope


# Compiling a module holds its whole parse tree at once, about 400 B per
# node, and with bytecode not written every launch compiles its modules:
# the largest tree a command compiles sets its cold-launch memory peak
MAX_AST_NODES = 4000


@pytest.mark.parametrize("path", sorted(Path(qident.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_parse_tree_is_small(path):
    nodes = sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    assert nodes <= MAX_AST_NODES


def test_public_names_resolve():
    for module, names in _PUBLIC.items():
        home = import_module(f"qident.{module}")
        for name in names:
            assert getattr(qident, name) is getattr(home, name), name
    star: dict = {}
    exec("from qident import *", star)
    expected = {name for names in _PUBLIC.values() for name in names}
    assert set(qident.__all__) == expected
    assert expected <= set(star)
    assert all(star[name] is getattr(qident, name) for name in expected)
    assert qident.__version__ == "0.1.0"
    assert expected <= set(dir(qident))


def test_submodules_resolve():
    from qident import bijections

    assert bijections is sys.modules["qident.bijections"]
    for module in _PUBLIC:
        assert getattr(qident, module) is import_module(f"qident.{module}")


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        qident.nope
    with pytest.raises(ImportError):
        exec("from qident import nope", {})


def test_capped_families_load_on_first_use():
    # the weight-capped families are a module of their own: a sweep of
    # phi, psi, tau or rho does not load it, one of nu3 or durfee_split does
    assert "qident.capped" not in _after_main("bijection", "phi", "--n", "1")
    assert "qident.capped" in _after_main("bijection", "nu3", "--n", "1",
                                          "--k", "1", "--cap", "9")
    loaded = _modules_after("import qident.capped")
    assert {"qident.capped", "qident.partitions"} <= loaded


def test_capped_families_join_the_table():
    from qident import capped, partitions
    from qident.errors import UnknownDomain

    assert partitions.DOMAIN_NAMES == (
        "B1", "B2", "B3", "P", "P_gt", "DS", "OE", "O", "DO")
    for name, row in capped.DOMAINS.items():
        assert partitions.domain_validator(name) is row[3]
    with pytest.raises(UnknownDomain, match=r"unknown domain 'Q'; choose from"
                       r" \('B1', 'B2', 'B3', 'P', 'P_gt', 'DS', 'OE', 'O', 'DO'\)"):
        partitions.domain_validator("Q")
