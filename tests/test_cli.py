"""CLI behavior: JSON payloads, exit codes, stability, file input."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadnum import solver
from spreadnum.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_solve_grid(capsys):
    code, doc = run_json(
        capsys, "solve", "--family", "grid", "3", "3", "--p", "3", "--q", "1"
    )
    assert code == 0
    assert doc["value"] == 6 and doc["status"] == "exact"
    assert len(doc["witness"]) == 6


def test_grid_formula(capsys):
    code, out, _ = run_cli(capsys, "grid", "--p", "2", "--q", "1", "--m", "6", "--n", "5")
    assert code == 0
    assert out == '{"status":"formula","value":6}\n'


def test_grid_open_exit_code(capsys):
    code, doc = run_json(capsys, "grid", "--p", "3", "--q", "4", "--m", "10", "--n", "10")
    assert code == 4
    assert doc == {"status": "open"}


def test_witness_open_exit_code(capsys):
    code, doc = run_json(capsys, "witness", "--p", "3", "--q", "3", "--m", "5", "--n", "5")
    assert code == 4
    assert doc["status"] == "open"


def test_witness_uncovered_is_invalid_input(capsys):
    code, doc = run_json(capsys, "witness", "--p", "2", "--q", "1", "--m", "9", "--n", "2")
    assert code == 0 and len(doc["cells"]) == 6  # 2-row boards are covered at (2, 1)
    code, out, err = run_cli(capsys, "witness", "--p", "2", "--q", "1", "--m", "2000", "--n", "2000")
    assert code == 2 and out == "" and "too large" in err
    # An impossible board is rejected by perimeter as it is by grid.
    code, out, err = run_cli(capsys, "perimeter", "--m", "0", "--n", "-3", "--cells", ";")
    assert code == 2 and out == "" and "dimensions" in err


def test_closure_trace(capsys):
    code, doc = run_json(
        capsys, "closure", "--family", "cycle", "4", "--p", "1", "--q", "1", "--set", "0"
    )
    assert code == 0
    assert doc == {"final": [0], "initial": [0], "steps": []}
    code, out, _ = run_cli(
        capsys, "closure", "--family", "path", "3", "--p", "1", "--q", "1", "--set", ""
    )
    assert code == 0 and out == '{"final":[],"initial":[],"steps":[]}\n'


def test_check_set_and_sequence(capsys):
    code, doc = run_json(
        capsys, "check", "--family", "complete", "5", "--p", "2", "--q", "2",
        "--set", "0,1,2",
    )
    assert code == 0 and doc == {"spreading": True}
    code, doc = run_json(
        capsys, "check", "--family", "path", "3", "--p", "1", "--q", "2",
        "--set", "1", "--sequence", "0,2",
    )
    assert code == 0 and doc == {"valid_sequence": True}


def test_tree_and_partition(capsys):
    code, doc = run_json(
        capsys, "tree", "--family", "star", "11", "--p", "2", "--q", "7"
    )
    assert code == 0 and doc["value"] == 10
    code, doc = run_json(capsys, "partition", "--family", "star", "5", "--q", "1")
    assert code == 0 and doc["count"] == 3


def test_formula_subcommand(capsys):
    code, doc = run_json(
        capsys, "formula", "--family", "cycle", "8", "--p", "2", "--q", "1"
    )
    assert code == 0 and doc == {"status": "formula", "value": 5}
    code, doc = run_json(
        capsys, "formula", "--family", "star", "6", "--p", "1", "--q", "2"
    )
    assert code == 0 and doc == {"status": "formula", "value": 3}
    code, out, _ = run_cli(
        capsys, "formula", "--family", "complete_bipartite", "3", "3", "--p", "2", "--q", "1"
    )
    assert code == 0 and out == '{"status":"formula","value":4}\n'


def test_q_inf_spelling(capsys):
    code, doc = run_json(
        capsys, "solve", "--family", "path", "5", "--p", "2", "--q", "inf"
    )
    assert code == 0 and doc["value"] == 3


def test_witness_payload(capsys):
    code, doc = run_json(capsys, "witness", "--p", "2", "--q", "4", "--m", "10", "--n", "5")
    assert code == 0
    assert doc["size"] == 8
    assert [1, 1] in doc["cells"] and [10, 5] in doc["cells"]


def test_perimeter(capsys):
    code, doc = run_json(
        capsys, "perimeter", "--m", "5", "--n", "5", "--cells", "1,1;2,1"
    )
    assert code == 0 and doc == {"perimeter": 6}


def test_gadget_payload(capsys):
    code, doc = run_json(
        capsys, "gadget", "--family", "path", "3", "--kind", "qforcing", "--q", "2"
    )
    assert code == 0
    assert doc["n"] == 18
    assert doc["labels"]["3"] == "a1^0"
    code, doc = run_json(
        capsys, "gadget", "--family", "path", "3", "--kind", "spreading", "--p", "2"
    )
    assert code == 0 and doc["n"] == 6


def test_certify_payloads(capsys):
    code, doc = run_json(
        capsys, "certify", "--family", "path", "3", "--kind", "qforcing", "--q", "2"
    )
    assert code == 0
    assert doc["equal"] is True and doc["zero_forcing"] == 1
    code, doc = run_json(
        capsys, "certify", "--family", "cycle", "4", "--kind", "spreading",
        "--p", "2", "--q", "1",
    )
    assert code == 0
    assert doc["gadget_spreading"] == 4 and doc["equal"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "qforcing", "--q", "1"],
        ["--kind", "spreading", "--p", "1", "--q", "1"],
    ],
    ids=["qforcing", "spreading"],
)
def test_certify_rejects_gadget_parameters_before_searching(capsys, argv):
    # A budget of 10 runs out in the base search, so a check made after it
    # would report budget exhaustion (exit 3) instead of the bad parameter.
    code, out, err = run_cli(
        capsys, "certify", "--family", "grid", "4", "4", *argv, "--budget", "10"
    )
    assert code == 2 and out == "" and ">= 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gadget", "--kind", "qforcing"],
        ["gadget", "--kind", "spreading"],
        ["certify", "--kind", "spreading", "--q", "1"],
    ],
    ids=["gadget-qforcing", "gadget-spreading", "certify-spreading"],
)
def test_missing_gadget_parameter_is_invalid(capsys, monkeypatch, argv):
    # The gadget module rejects the missing parameter before any search.
    charged = []
    monkeypatch.setattr(solver.Budget, "charge", lambda self: charged.append(self))
    code, out, err = run_cli(capsys, argv[0], "--family", "grid", "3", "3", *argv[1:])
    assert code == 2 and out == "" and charged == []
    assert err.startswith("error: gadget requires integer") and err.rstrip().endswith("None")


def test_probe_conjecture(capsys):
    code, doc = run_json(capsys, "probe-conjecture", "--m", "3", "--n", "3")
    assert code == 0
    assert doc["sigma_33"] == 5 and doc["sigma_34"] == 5 and doc["equal"] is True


def test_probe_conjecture_6x5_within_default_budget(capsys):
    code, doc = run_json(capsys, "probe-conjecture", "--m", "6", "--n", "5")
    assert code == 0
    assert doc["sigma_33"] == doc["sigma_34"] == 15 and doc["equal"] is True


def test_probe_conjecture_6x6_within_default_budget(capsys):
    code, doc = run_json(capsys, "probe-conjecture", "--m", "6", "--n", "6")
    assert code == 0
    assert doc["sigma_33"] == doc["sigma_34"] == 18 and doc["equal"] is True


def test_probe_budget_exit(capsys):
    code, doc = run_json(capsys, "probe-conjecture", "--m", "3", "--n", "3", "--budget", "2")
    assert code == 3
    assert doc["equal"] is None


def test_property_pnp_search_and_check(capsys):
    code, doc = run_json(capsys, "property-pnp", "--family", "path", "5", "--p", "2")
    assert code == 0 and doc["found"] is True
    code, doc = run_json(
        capsys, "property-pnp", "--family", "path", "5", "--p", "2",
        "--set", "0,2,4", "--ordering", "1,3",
    )
    assert code == 0 and doc["holds"] is True
    code, doc = run_json(capsys, "property-pnp", "--family", "star", "5", "--p", "2")
    assert code == 0 and doc == {"found": False}


def test_property_pnp_search_beyond_small_trees(capsys):
    code, doc = run_json(capsys, "property-pnp", "--family", "path", "20", "--p", "2")
    assert code == 0 and doc["found"] is True and doc["holds"] is True
    assert len(doc["set"]) == 11 and len(doc["ordering"]) == 9


def test_property_pnp_set_without_ordering_is_invalid(capsys):
    code, out, err = run_cli(
        capsys, "property-pnp", "--family", "path", "5", "--p", "2", "--set", "0,2,4"
    )
    assert code == 2 and out == ""
    assert "--set and --ordering must be given together" in err


def test_solve_budget_exhausted_exit(capsys):
    code, doc = run_json(
        capsys, "solve", "--family", "grid", "3", "3", "--p", "2", "--q", "2",
        "--budget", "3",
    )
    assert code == 3
    assert doc["status"] == "budget_exhausted"
    assert doc["evaluations"] == 3
    assert "lower_bound" in doc


def test_solve_budget_exhausted_reports_edge_bound(capsys):
    # ceil((mn + m + n)/3) = 16 on the 6x6 grid at p = 3
    code, doc = run_json(
        capsys, "solve", "--family", "grid", "6", "6", "--p", "3", "--q", "3",
        "--budget", "1000",
    )
    assert code == 3
    assert doc["status"] == "budget_exhausted"
    assert doc["lower_bound"] >= 16


def test_edges_file_input(tmp_path, capsys):
    f = tmp_path / "g.edges"
    f.write_text("0 1\n1 2\n")
    code, doc = run_json(capsys, "solve", "--edges", str(f), "--p", "1", "--q", "1")
    assert code == 0 and doc["value"] == 1


def test_tree_p2_on_long_path(tmp_path, capsys):
    from spreadnum import SpreadParams, path, serialize_edge_list, sigma_tree

    g = path(2000)
    f = tmp_path / "path.edges"
    f.write_text(serialize_edge_list(g))
    code, doc = run_json(capsys, "tree", "--edges", str(f), "--p", "2", "--q", "1")
    assert code == 0 and doc["status"] == "exact"
    assert doc["value"] == sigma_tree(g, SpreadParams(2, 1)).value == 1001


def test_invalid_edges_file(tmp_path, capsys):
    f = tmp_path / "bad.edges"
    f.write_text("0 0\n")
    code, out, err = run_cli(capsys, "solve", "--edges", str(f), "--p", "1", "--q", "1")
    assert code == 2
    assert out == ""
    assert "self-loop" in err
    f.write_text("n 2\n0 5\n")
    code, out, err = run_cli(capsys, "solve", "--edges", str(f), "--p", "1", "--q", "1")
    assert code == 2 and out == "" and "header" in err


_NOISE = st.one_of(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map("{0[0]} {0[1]}".format),
    st.integers(0, 12).map("n {}".format),
    st.sampled_from(["", "n", "n x", "n -1", "n 2 3", "7", "-1 2", "0 1 2", "a b", "1.5 2"]),
)


@st.composite
def _edge_files(draw):
    # A random tree, so that the tree commands get past parsing, with a few
    # lines of noise: self-loops, cycles, bad headers and bad tokens.
    n = draw(st.integers(0, 10))
    tree = [f"{draw(st.integers(0, v - 1))} {v}" for v in range(1, n)]
    return draw(st.permutations(tree + draw(st.lists(_NOISE, max_size=4))))


@settings(max_examples=100, deadline=None)
@given(
    _edge_files(),
    st.sampled_from(
        [
            ["check", "--p", "1", "--q", "1", "--set", "0"],
            ["solve", "--p", "2", "--q", "1", "--budget", "40"],
            ["tree", "--p", "2", "--q", "inf"],
            ["partition", "--q", "1"],
            ["property-pnp", "--p", "2"],
            ["gadget", "--kind", "qforcing", "--q", "2"],
            ["certify", "--kind", "spreading", "--p", "2", "--q", "1", "--budget", "40"],
        ]
    ),
)
def test_malformed_edge_files_exit_0_2_or_3(tmp_path_factory, lines, argv):
    f = tmp_path_factory.getbasetemp() / "fuzz.edges"
    f.write_text("\n".join(lines), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], "--edges", str(f), *argv[1:]])
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
    else:
        json.loads(out.getvalue())


def test_missing_graph_is_invalid(capsys):
    code, out, err = run_cli(capsys, "solve", "--p", "1", "--q", "1")
    assert code == 2 and "graph" in err


def test_bad_family_is_invalid(capsys):
    code, _, err = run_cli(capsys, "solve", "--family", "blob", "3", "--p", "1", "--q", "1")
    assert code == 2 and "family" in err


def test_nonpositive_q_is_invalid(capsys):
    code, out, err = run_cli(capsys, "solve", "--family", "path", "3", "--p", "1", "--q", "0")
    assert code == 2 and out == ""
    assert err == "error: SpreadParams requires integer q >= 1, got 0\n"


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err


def _usage_error(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_edges_and_family_are_exclusive(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n", encoding="utf-8")
    argv = ["--edges", str(edges), "--family", "grid", "3", "3", "--p", "1", "--q", "1"]
    err = _usage_error(capsys, "solve", *argv)
    assert "not allowed with argument" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["grid", "--p", "2", "--q", "two", "--m", "3", "--n", "3"], "integer or 'inf'"),
        (
            ["closure", "--family", "path", "3", "--p", "1", "--q", "1", "--set", "0,x"],
            "integer ids",
        ),
        (["perimeter", "--m", "3", "--n", "3", "--cells", "1,1;1,2,3"], "'col,row'"),
        (["perimeter", "--m", "3", "--n", "3", "--cells", "1,a"], "must be integers"),
    ],
    ids=["q", "ids", "cell-arity", "cell-integer"],
)
def test_malformed_option_values_are_usage_errors(capsys, argv, message):
    assert message in _usage_error(capsys, *argv)


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--seed", "1", "grid", "--p", "2", "--q", "1", "--m", "3", "--n", "3"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err


def test_output_is_byte_stable(capsys):
    args = ["solve", "--family", "grid", "3", "3", "--p", "3", "--q", "1"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ["closure", "--family", "grid", "4", "4", "--p", "2", "--q", "2", "--set", "0,5,10,15"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
