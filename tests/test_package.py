"""The package namespace re-exports exactly the layers' public names, no
layer borrows another's private names, every function the benchmark
traces by name exists, every source file parses under the Python 3.10
grammar, and the command runs as a module without loading dataclasses,
json, typing or random at start-up."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import gofknots
from gofknots import burau, classify, cli, modular, twobridge, words

PACKAGE_DIR = Path(gofknots.__file__).resolve().parent


def test_all_is_the_union_of_the_layer_exports():
    # gofknots.cli is the command; it defines no __all__ and exports nothing
    exported = {"__version__"}
    for module in (words, burau, modular, twobridge, classify):
        exported.update(module.__all__)
    assert sorted(gofknots.__all__) == sorted(exported)
    for name in gofknots.__all__:
        assert hasattr(gofknots, name), name


def test_modular_binds_nothing_from_burau():
    # the quotient decides conjugacy without matrices
    borrowed = [
        name
        for name, value in vars(modular).items()
        if getattr(value, "__module__", None) == burau.__name__
    ]
    assert borrowed == []


def test_burau_binds_nothing_from_modular():
    # the matrices decide no braid identity, so the matrix oracles of the
    # tests stay independent of the quotient
    borrowed = [
        name
        for name, value in vars(burau).items()
        if getattr(value, "__module__", None) == modular.__name__
    ]
    assert borrowed == []
    assert not hasattr(burau, "equal_in_b3")


def test_test_oracles_are_not_exported():
    for name in ("find_conjugator_brute", "matrix_equal_in_b3", "psl_matrix"):
        assert name not in gofknots.__all__
        assert not hasattr(gofknots, name)


def load_spans():
    """bench/spans.py, the benchmark's table of per-layer metrics."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_is_public_in_its_layer():
    # bench/spans.py raises KeyError in Tracer.report for a metric whose
    # function is gone, which breaks the traced benchmark run
    spans = load_spans()
    keys = {m.how.function for m in spans.METRICS if isinstance(m.how, spans.Within)}
    keys |= {
        m.name.rpartition(".")[0]
        for m in spans.METRICS
        if m.how in (spans.CALLS, spans.SELF_S) or isinstance(m.how, (spans.Sum, spans.Max, spans.Within))
    }
    layers = dict(words=words, burau=burau, modular=modular, twobridge=twobridge, classify=classify)
    assert "twobridge.normalize_two_bridge" in keys
    for key in sorted(keys):
        layer, name = key.split(".")
        assert name in layers[layer].__all__, key
        assert name in dict(spans.public_functions(layers[layer])), key


def test_the_syllable_metrics_read_the_length_of_a_free_product_word():
    # FreeProductWord.__len__ has no caller in src/: bench/spans.py calls
    # len() on the word project returns and on the one cyclic_normal_form
    # takes, so the traced benchmark run needs it
    how = {m.name: m.how for m in load_spans().METRICS}
    fw = modular.project(words.parse_braid("a b A b B a a"))
    assert len(fw) == len(fw.syllables) > 0
    assert how["modular.project.syllables_out"].value((None,), fw) == len(fw)
    assert how["modular.cyclic_normal_form.syllables"].value((fw,), None) == len(fw)


def test_no_module_imports_a_private_name():
    borrowed = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                borrowed += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert borrowed == []


def test_every_source_file_parses_as_python_3_10():
    # the grammar of the oldest Python the package supports; a check of
    # syntax only, not of the library calls a file makes
    root = PACKAGE_DIR.parents[1]
    paths = sorted(path for top in ("src", "tests", "bench") for path in (root / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_result_to_record_lives_in_the_cli():
    assert "result_to_record" not in gofknots.__all__
    assert not hasattr(gofknots, "result_to_record")
    assert not hasattr(classify, "result_to_record")
    assert callable(cli.result_to_record)


def test_cli_import_loads_no_code_generation_or_json():
    # dataclasses drags in inspect, ast, dis and tokenize; json is imported
    # only by the two commands that print it
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import gofknots.cli\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "gofknots.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}), added
    done = subprocess.run(
        [sys.executable, "-m", "gofknots.cli", "classify", "-3", "5", "--json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["label"] == "ExceptionL72(+1)"


def test_cli_import_loads_neither_typing_nor_random():
    # -S skips the site hook, which may import both itself and so hide an
    # import by the package
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, gofknots.cli; print(' '.join(sys.modules))"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "gofknots.cli" in loaded
    assert loaded.isdisjoint({"typing", "random"}), loaded & {"typing", "random"}


def test_verify_paper_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run(
        [sys.executable, "-m", "gofknots.cli", "verify-paper"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "verify-paper: PASS"
