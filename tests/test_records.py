"""The record contract: every public record survives pickle and deepcopy,
rejects field assignment, serializes to a pinned document and keeps its
constructor errors."""

from __future__ import annotations

import copy
import pickle

import pytest

import spreadnum as sn

P = sn.SpreadParams


def _graph_with_cached_properties():
    G = sn.cycle(5)
    assert G.degrees == (2,) * 5 and not G.is_tree
    return G


#: name -> (builder through the public API, one field, pinned to_json or None)
RECORDS = {
    "SpreadParams": (lambda: P(1, sn.INFINITY), "q", None),
    "SpreadTrace": (
        lambda: sn.closure(sn.cycle(5), P(1, 1), [0, 1])[1],
        "steps",
        {"initial": [0, 1], "steps": [[1, 2], [2, 3], [0, 4]], "final": [0, 1, 2, 3, 4]},
    ),
    "SigmaResult": (
        lambda: sn.sigma_exact(sn.path(4), P(2, 1)),
        "value",
        {
            "status": "exact",
            "value": 3,
            "witness": [0, 1, 3],
            "trace": {"initial": [0, 1, 3], "steps": [[1, 2]], "final": [0, 1, 2, 3]},
        },
    ),
    "SigmaResult-open": (lambda: sn.grid_sigma(3, 3, 5, 5), "status", {"status": "open"}),
    "Graph": (_graph_with_cached_properties, "n", None),
    "Graph-labelled": (lambda: sn.build_spreading_gadget(sn.path(3), 2), "labels", None),
    "FamilySpec": (lambda: sn.family_from_tokens(["grid", "3", "4"]), "args", None),
    "ConjectureProbe": (
        lambda: sn.probe_grid_conjecture(3, 3),
        "equal",
        {"m": 3, "n": 3, "sigma_33": 5, "sigma_34": 5, "equal": True},
    ),
    "Partition": (
        lambda: sn.subtree_partition(sn.star(5), 1),
        "parts",
        {"count": 3, "parts": [[3], [4], [0, 1, 2]]},
    ),
    "UpperBoundReport": (
        lambda: sn.tree_upper_bound(sn.star(6), 2, 1),
        "bound",
        {"bound": 5, "attained": True, "reason": "star"},
    ),
    "PnpStep": (
        lambda: sn.search_property_pnp(sn.path(3), 2).steps[0],
        "vertex",
        {"vertex": 1, "pulled": [0, 2], "blue_neighbors": 2, "seed_edges": 0, "forest_components": 1},
    ),
    "PnpReport": (
        lambda: sn.search_property_pnp(sn.path(3), 2),
        "holds",
        {
            "holds": True,
            "reason": None,
            "set": [0, 2],
            "ordering": [1],
            "remainder": 0,
            "excess_sum": 0,
            "seed_edges": 0,
            "steps": [
                {"vertex": 1, "pulled": [0, 2], "blue_neighbors": 2, "seed_edges": 0, "forest_components": 1}
            ],
        },
    ),
    "QForcingCertificate": (
        lambda: sn.certify_qforcing_gadget(sn.path(3), 2),
        "equal",
        {"zero_forcing": 1, "gadget_forcing": 1, "equal": True, "lifts_checked": 2, "lifts_valid": True},
    ),
    "SpreadingCertificate": (
        lambda: sn.certify_spreading_gadget(sn.path(3), 2, 1),
        "expected",
        {
            "forcing": 1,
            "gadget_spreading": 3,
            "expected": 3,
            "equal": True,
            "lifts_checked": 2,
            "lifts_valid": True,
        },
    ),
}


def test_every_public_record_is_covered():
    records = {name.split("-")[0] for name in RECORDS}
    assert {type(build()).__name__ for build, _, _ in RECORDS.values()} == records
    classes = {n for n in sn.__all__ if isinstance(getattr(sn, n), type)}
    # Budget is a mutable evaluation counter, not a record.
    assert records == {n for n in classes if not issubclass(getattr(sn, n), Exception)} - {"Budget"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    build, field, doc = RECORDS[name]
    record = build()
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    if doc is not None:
        assert record.to_json() == doc


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: P(0, 1), "SpreadParams requires integer p >= 1, got 0"),
        (lambda: sn.SigmaResult(1, "bogus"), "unknown status 'bogus'"),
        (lambda: sn.SigmaResult(2, "exact", frozenset({0})), "witness size disagrees with value"),
        (lambda: sn.FamilySpec("nosuch", (3,)), "unknown family 'nosuch'"),
        (lambda: sn.FamilySpec("grid", (3,)), "grid takes 2 parameter(s), got 1"),
        (lambda: sn.FamilySpec("cycle", (2,)), "cycle requires integer size >= 3, got 2"),
    ],
    ids=["params", "status", "witness-size", "family", "arity", "size"],
)
def test_constructor_errors_keep_their_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_records_are_tuples_and_replace_validates():
    params = P(2, 1)
    assert params == (2, 1) and params._asdict() == {"p": 2, "q": 1}
    assert params._replace(q=sn.INFINITY).q_is_infinite
    for record, change in [
        (params, {"p": 0}),
        (sn.grid_sigma(2, 1, 3, 4), {"status": "bogus"}),
        (sn.FamilySpec("grid", (3, 4)), {"args": (3,)}),
    ]:
        with pytest.raises(ValueError):
            record._replace(**change)
    part = sn.subtree_partition(sn.star(5), 1)
    assert len(part) == 3 and list(part) == list(part.parts) and type(part.parts) is tuple
