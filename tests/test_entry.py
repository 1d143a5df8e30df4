"""Fresh-interpreter contracts: lazy package import, CLI module sets, exit codes.

Each test starts its own ``python`` process, because in the test process
pytest has already imported every submodule, so a missing lazy import or a
command that loads too much cannot show there.  Assertions are on module
sets and outputs, never on time.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import spreadnum

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENGINE = {"spreadnum.engine", "spreadnum.graphs"}


def _python(*args: str, memory_mb: int | None = None) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))

    def cap_memory() -> None:
        limit = memory_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap_memory if memory_mb else None,
    )


def _probe(script: str, *flags: str):
    proc = _python(*flags, "-c", script)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _spread(*argv: str) -> tuple[int, str, str, set[str]]:
    """Run ``python -m spreadnum.cli``: exit code, stdout, the stderr lines
    that are not import-time records, and the ``spreadnum.*`` modules the
    process imported."""
    proc = _python("-X", "importtime", "-m", "spreadnum.cli", *argv)
    modules, other = set(), []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.startswith("spreadnum."):
                modules.add(name)
        else:
            other.append(line)
    return proc.returncode, proc.stdout, "\n".join(other), modules


def test_package_import_loads_no_submodule():
    loaded = _probe(
        "import json, sys, spreadnum\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('spreadnum.'))))"
    )
    assert loaded == []


def test_cli_import_and_usage_error_load_no_submodule():
    loaded = _probe(
        "import json, sys, spreadnum.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('spreadnum.'))))"
    )
    assert loaded == ["spreadnum.cli"]
    code, out, err, loaded = _spread("solve", "--p", "1")
    assert code == 2 and out == "" and "usage" in err
    assert loaded == set()


def test_one_name_loads_only_its_submodule():
    loaded = _probe(
        "import json, sys, spreadnum\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('spreadnum.'))\n"
        "spreadnum.Graph\n"
        "after_graph = loaded()\n"
        "spreadnum.solver.Budget\n"
        "print(json.dumps([after_graph, loaded()]))"
    )
    assert loaded == [
        ["spreadnum.graphs"],
        ["spreadnum.engine", "spreadnum.graphs", "spreadnum.solver"],
    ]


def test_every_public_name_resolves_and_is_listed():
    doc = _probe(
        "import json, spreadnum\n"
        "listed = dir(spreadnum)\n"
        "print(json.dumps({\n"
        "    'unlisted': [n for n in spreadnum.__all__ if n not in listed],\n"
        "    'unresolved': [n for n in spreadnum.__all__ if not hasattr(spreadnum, n)],\n"
        "}))"
    )
    assert doc == {"unlisted": [], "unresolved": []}
    assert set(spreadnum._HOME) == set(spreadnum.__all__)
    for name in spreadnum.__all__:
        value = getattr(spreadnum, name)
        assert value is getattr(sys.modules[f"spreadnum.{spreadnum._HOME[name]}"], name)
        # A record class without a docstring gets its signature as __doc__.
        if callable(value):
            assert value.__doc__ and not value.__doc__.startswith(f"{name}("), name


def test_star_import_binds_every_public_name():
    names = _probe(
        "import json\n"
        "from spreadnum import *\n"
        "import spreadnum\n"
        "print(json.dumps([n for n in spreadnum.__all__ if n not in globals()]))"
    )
    assert names == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spreadnum.no_such_name
    out = _probe(
        "import json, spreadnum\n"
        "try:\n"
        "    spreadnum.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert "no_such_name" in out


COMMAND_MODULES = [
    (["closure", "--family", "cycle", "5", "--p", "1", "--q", "1", "--set", "0,1"], ENGINE),
    (["check", "--family", "path", "4", "--p", "1", "--q", "1", "--set", "0"], ENGINE),
    (["solve", "--family", "cycle", "5", "--p", "2", "--q", "1"], ENGINE | {"spreadnum.solver"}),
    (["tree", "--family", "path", "6", "--p", "1", "--q", "1"], ENGINE | {"spreadnum.trees"}),
    (["partition", "--family", "star", "5", "--q", "1"], ENGINE | {"spreadnum.trees"}),
    (["property-pnp", "--family", "path", "3", "--p", "2"], ENGINE | {"spreadnum.trees"}),
    (["formula", "--family", "cycle", "7", "--p", "2", "--q", "2"], ENGINE | {"spreadnum.formulas"}),
    (["grid", "--p", "2", "--q", "1", "--m", "6", "--n", "5"], ENGINE | {"spreadnum.formulas"}),
    (["witness", "--p", "2", "--q", "2", "--m", "5", "--n", "4"], ENGINE | {"spreadnum.formulas"}),
    (["perimeter", "--m", "3", "--n", "3", "--cells", "1,1;1,2"], ENGINE | {"spreadnum.formulas"}),
    (
        ["probe-conjecture", "--m", "3", "--n", "3"],
        ENGINE | {"spreadnum.formulas", "spreadnum.solver"},
    ),
    (
        ["gadget", "--family", "path", "3", "--kind", "spreading", "--p", "2"],
        ENGINE | {"spreadnum.gadgets", "spreadnum.solver"},
    ),
    (
        ["certify", "--family", "path", "3", "--kind", "qforcing", "--q", "2"],
        ENGINE | {"spreadnum.gadgets", "spreadnum.solver"},
    ),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES, ids=[a[0] for a, _ in COMMAND_MODULES])
def test_command_loads_only_its_modules(argv, modules):
    code, out, err, loaded = _spread(*argv)
    assert code == 0, err
    json.loads(out)
    assert loaded == modules


@pytest.mark.parametrize(
    "statement",
    ["from spreadnum import *"]
    + [f"from spreadnum.cli import main; main({argv!r})" for argv, _ in COMMAND_MODULES],
    ids=["star-import"] + [argv[0] for argv, _ in COMMAND_MODULES],
)
def test_no_command_loads_dataclasses(statement):
    # Only modules loaded after the snapshot count: site may import anything.
    loaded = _probe(
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert any(m.startswith("spreadnum.") for m in loaded)
    assert "dataclasses" not in loaded


def test_revalidation_survives_optimize():
    # Under -O every assert is gone: a witness that fails its closure must
    # still raise, both for a grid witness and for an exact result.
    doc = _probe(
        "import json, sys\n"
        "import spreadnum.engine as engine, spreadnum.formulas as formulas\n"
        "from spreadnum import SpreadParams, path, sigma_tree\n"
        "formulas.is_spreading_set = lambda G, params, seeds: False\n"
        "real = engine.closure\n"
        "engine.closure = lambda G, params, seeds: (frozenset(), real(G, params, seeds)[1])\n"
        "errors = []\n"
        "for call in (lambda: formulas.grid_witness(2, 1, 5, 5),\n"
        "             lambda: sigma_tree(path(4), SpreadParams(1, 1))):\n"
        "    try:\n"
        "        errors.append(repr(call()))\n"
        "    except AssertionError as exc:\n"
        "        errors.append(str(exc))\n"
        "print(json.dumps([sys.flags.optimize, errors]))",
        "-O",
    )
    assert doc == [1, ["witness failed validation", "witness failed re-validation"]]


def test_exit_2_bad_family():
    for family in (["nosuch", "3"], ["cartesian_product", "2", "2"]):
        code, out, err, loaded = _spread("formula", "--family", *family, "--p", "1", "--q", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "family" in err
        assert loaded == ENGINE | {"spreadnum.formulas"}


def test_exit_3_budget_exhausted():
    code, out, err, loaded = _spread(
        "solve", "--family", "grid", "4", "4", "--p", "3", "--q", "3", "--budget", "1"
    )
    assert code == 3 and err == ""
    assert json.loads(out) == {"status": "budget_exhausted", "evaluations": 1, "lower_bound": 8}
    assert loaded == ENGINE | {"spreadnum.solver"}


def test_exit_4_open_grid_and_open_witness():
    code, out, err, loaded = _spread("grid", "--p", "3", "--q", "3", "--m", "5", "--n", "5")
    assert code == 4 and err == "" and out == '{"status":"open"}\n'
    assert loaded == ENGINE | {"spreadnum.formulas"}
    # The witness command reaches exit 4 through OpenProblemError instead.
    code, out, err, loaded = _spread("witness", "--p", "3", "--q", "3", "--m", "5", "--n", "5")
    assert code == 4 and err == "" and json.loads(out)["status"] == "open"
    assert loaded == ENGINE | {"spreadnum.formulas"}


@pytest.mark.parametrize(
    "argv",
    [
        ["tree", "--edges", "{big}", "--p", "1", "--q", "1"],
        ["solve", "--family", "grid", "100000", "100000", "--p", "1", "--q", "1"],
        ["closure", "--family", "complete", "100000", "--p", "1", "--q", "1", "--set", "0"],
        ["witness", "--p", "4", "--q", "1", "--m", "100000", "--n", "100000"],
        ["probe-conjecture", "--m", "2000", "--n", "2000"],
        ["gadget", "--family", "path", "200000", "--kind", "qforcing", "--q", "3"],
        ["gadget", "--family", "path", "3", "--kind", "spreading", "--p", "3000"],
    ],
    ids=[
        "edges-header",
        "grid-family",
        "complete-family",
        "witness",
        "probe",
        "qforcing-gadget",
        "spreading-gadget",
    ],
)
def test_oversized_input_is_rejected_before_allocating(tmp_path, argv):
    big = tmp_path / "big.txt"
    big.write_text("n 1000000000\n0 1\n", encoding="utf-8")
    argv = [a.replace("{big}", str(big)) for a in argv]
    # Under a 256 MB address-space cap, building any of these graphs fails
    # with MemoryError (exit 1) instead of exhausting the machine.
    proc = _python("-m", "spreadnum.cli", *argv, memory_mb=256)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stdout == ""
    assert "too large" in proc.stderr


def test_deep_search_runs_without_recursion():
    # A path at (2, 1) needs 1,051 of its 2,100 vertices, so the subset search
    # is over a thousand seeds deep: deeper than Python's recursion limit.
    argv = ["solve", "--family", "path", "2100", "--p", "2", "--q", "1"]
    proc = _python("-m", "spreadnum.cli", *argv, memory_mb=256)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert json.loads(proc.stdout)["value"] == 1051
