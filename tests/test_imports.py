"""Import hygiene: a command loads only the layers it runs.

Package re-exports resolve on first attribute access and a matrix
backend's module is imported only when that backend is used, so each
check below runs in a fresh interpreter and inspects ``sys.modules``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = ("repro", "repro.core", "repro.graph", "repro.grammar",
            "repro.obs", "repro.service", "repro.regular", "repro.matrices")

#: Prints the sorted ``sys.modules`` names as JSON on stdout's last line.
_REPORT = ("\nimport json, sys\n"
           "print(json.dumps(sorted(sys.modules)))\n")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep
           + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _modules_after(code: str) -> set:
    result = _python(textwrap.dedent(code) + _REPORT)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def _modules_after_cli(*argv: str) -> set:
    return _modules_after(f"""
        from repro.cli import main
        try:
            main({list(argv)!r})
        except SystemExit:
            pass
    """)


def _loaded(modules: set, *names: str) -> list:
    """The loaded modules that are one of *names* or inside one."""
    return sorted(module for module in modules
                  if any(module == name or module.startswith(name + ".")
                         for name in names))


@pytest.fixture
def graph_file(tmp_path) -> str:
    path = tmp_path / "graph.txt"
    path.write_text("0 a 1\n1 a 2\n2 b 3\n3 b 4\n", encoding="utf-8")
    return str(path)


class TestCommandImports:
    HEAVY = ("numpy", "scipy", "asyncio", "repro.service")

    def test_import_cli_loads_no_backend_or_service(self):
        assert _loaded(_modules_after("import repro.cli"), *self.HEAVY,
                       "repro.graph.request") == []

    def test_help_loads_no_backend_or_service(self):
        assert _loaded(_modules_after_cli("--help"), *self.HEAVY) == []

    @pytest.mark.parametrize("command", [
        ["path", "--source", "0", "--target", "4"],
        ["query", "--semiring", "length"],
    ])
    def test_annotated_answers_load_no_numpy(self, graph_file, command):
        """A first closure on a small graph runs on the row map."""
        modules = _modules_after_cli(*command, "--graph", graph_file,
                                     "--grammar-name", "dyck1", "--json")
        assert _loaded(modules, "numpy", "scipy") == []

    @pytest.mark.parametrize("command", [
        ["query", "--grammar-name", "dyck1"],
        ["update", "--grammar-name", "dyck1", "--insert"],
        ["rpq", "--regex", "a b"],
    ], ids=["query", "update", "rpq"])
    def test_relations_on_setmatrix_load_no_numpy(self, graph_file,
                                                  command):
        """The pure-Python backend prints a relation through the pure
        Python writer: neither NumPy nor SciPy is imported."""
        if command[-1] == "--insert":
            command = [*command, graph_file]
        modules = _modules_after_cli(*command, "--graph", graph_file,
                                     "--backend", "setmatrix", "--json")
        assert "repro.core.pair_writer" in modules
        assert _loaded(modules, "numpy", "scipy") == []

    def test_snapshot_loads_no_server_stack(self, graph_file, tmp_path):
        """A ``single-path`` snapshot writes its relational section from
        the length closure's rows as ``array('q')`` CSR, so even on the
        default ``sparse`` backend it imports neither SciPy nor, on a
        small graph, NumPy."""
        for relations in ("relational", "all-path"):
            modules = _modules_after_cli(
                "snapshot", "--graph", graph_file, "--grammar-name", "dyck1",
                "--output", str(tmp_path / "index.snapshot"),
                "--semantics", relations, "single-path")
            assert "repro.service.snapshot" in modules
            assert _loaded(modules, "repro.service.server",
                           "repro.service.query_service",
                           "repro.service.replica", "repro.regular",
                           "numpy", "scipy") == []

    def test_query_batch_loads_no_service(self, graph_file, tmp_path):
        batch = tmp_path / "batch.jsonl"
        batch.write_text('{"source": "0", "target": 4}\n{"sources": [1]}\n',
                         encoding="utf-8")
        modules = _modules_after_cli(
            "query", "--graph", graph_file, "--grammar-name", "dyck1",
            "--batch", str(batch), "--json")
        assert {"repro.core.batch", "repro.graph.request"} <= modules
        assert _loaded(modules, "repro.service") == []

    def test_query_service_loads_no_batch_closure(self):
        """A served batch is a loop of lookups: the service never loads
        the cold batch solver."""
        modules = _modules_after("import repro.service.query_service")
        assert "repro.service.query_service" in modules
        assert "repro.core.batch" not in modules


class TestLayoutRule:
    """One annotated closure runs on one layout; a process's first
    closure on a small graph leaves NumPy unloaded, and every later one,
    one over more than ``ARRAY_LAYOUT_EDGES`` edges or one of counting
    takes the arrays when NumPy imports."""

    SMALL = '[(0, "a", 1), (1, "a", 2), (2, "b", 3), (3, "b", 4)]'

    def _layouts(self, edges: str, semiring: str = "LENGTH") -> list:
        result = _python(textwrap.dedent(f"""
            import json
            from repro.core.semiring import ({semiring}_SEMIRING,
                                             solve_annotated)
            from repro.grammar import get_grammar
            from repro.graph import LabeledGraph

            graph = LabeledGraph.from_edges({edges})
            layouts = []
            for _ in range(2):
                result = solve_annotated(graph, get_grammar("dyck1"),
                                         {semiring}_SEMIRING)
                layouts.append(sorted({{type(matrix).__name__ for matrix
                                        in result.matrices.values()}}))
            print(json.dumps(layouts))
        """))
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    @property
    def arrays(self) -> str:
        """The array class's name, or the row map's without NumPy."""
        try:
            import numpy  # noqa: F401
        except ImportError:
            return "AnnotatedMatrix"
        return "ScalarAnnotatedMatrix"

    def test_second_closure_takes_the_arrays(self):
        assert self._layouts(self.SMALL) == [["AnnotatedMatrix"],
                                             [self.arrays]]

    def test_a_first_counting_closure_takes_the_arrays(self):
        """Counting's Kleene loop runs a round count the graph's size
        does not bound, so even a small first closure pays the import."""
        assert self._layouts(self.SMALL, "COUNTING") == [[self.arrays]] * 2

    def test_a_large_first_closure_takes_the_arrays(self):
        from repro.core.semiring import ARRAY_LAYOUT_EDGES

        chain = f'[(i, "a", i + 1) for i in range({ARRAY_LAYOUT_EDGES + 1})]'
        assert self._layouts(chain) == [[self.arrays], [self.arrays]]


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), (package, name)
            assert name in dir(module), (package, name)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018

    def test_star_import_and_dir(self):
        names = _modules_after("""
            import repro
            namespace = {}
            exec("from repro import *", namespace)
            missing = set(repro.__all__) - set(namespace)
            assert not missing, missing
            assert set(repro.__all__) <= set(dir(repro))
        """)
        assert "repro.core.engine" in names

    def test_registries_list_the_same_names(self):
        result = _python(textwrap.dedent("""
            import json
            import repro
            from repro.core.semiring import SEMIRINGS
            from repro.grammar import GRAMMAR_REGISTRY
            from repro.matrices import available_backends
            print(json.dumps([repro.available_strategies(),
                              available_backends(), sorted(SEMIRINGS),
                              sorted(GRAMMAR_REGISTRY)]))
        """))
        assert result.returncode == 0, result.stderr
        strategies, backends, semirings, grammars = json.loads(
            result.stdout.splitlines()[-1])
        assert strategies == ["blocked", "delta", "naive"]
        assert "setmatrix" in backends
        assert set(backends) <= {"bitset", "dense", "setmatrix", "sparse"}
        assert semirings == ["boolean", "counting", "length", "viterbi"]
        assert grammars == ["chain", "dyck1", "points-to", "query1",
                            "query1-cnf", "query2", "rna"]


def test_backend_without_its_dependency_is_a_usage_error(graph_file):
    """``--backend sparse`` on a host without SciPy exits 2 with one
    argparse error line, not a traceback."""
    result = _python(textwrap.dedent("""
        import sys

        class NoSciPy:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "scipy":
                    raise ImportError("scipy is blocked")

        sys.meta_path.insert(0, NoSciPy())
        from repro.cli import main
        sys.exit(main(sys.argv[1:]))
    """), "query", "--graph", graph_file, "--grammar-name", "dyck1",
        "--backend", "sparse")
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    error = result.stderr.strip().splitlines()[-1]
    assert "error: argument --backend" in error and "sparse" in error


@pytest.mark.parametrize("backend_args", [["--backend", "sparse"], []])
def test_backend_failing_to_load_is_a_clean_error(graph_file, backend_args):
    """SciPy that is found but fails to import (a broken install) makes
    the ``sparse`` backend, explicit or default, an error line naming
    the cause, not a traceback."""
    pytest.importorskip("numpy")
    result = _python(textwrap.dedent("""
        import importlib.machinery
        import sys

        class BrokenLoader:
            def create_module(self, spec):
                return None

            def exec_module(self, module):
                raise ImportError("scipy is broken")

        class BrokenSciPy:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "scipy":
                    return importlib.machinery.ModuleSpec(
                        name, BrokenLoader())

        sys.meta_path.insert(0, BrokenSciPy())
        from repro.cli import main
        sys.exit(main(sys.argv[1:]))
    """), "query", "--graph", graph_file, "--grammar-name", "dyck1",
        *backend_args)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    [error] = result.stderr.strip().splitlines()
    problem, _, available = error.partition("; available: ")
    assert problem == ("error: matrix backend 'sparse' failed to load: "
                       "scipy is broken")
    assert "setmatrix" in available.split(", ")
    assert "sparse" not in available
