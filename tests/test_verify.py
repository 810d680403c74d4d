"""The exhaustive enumerator and the verification reports."""

from fractions import Fraction

import pytest

from autgraph import (
    GraphError,
    Multigraph,
    canonical_key,
    cycle_graph,
    enumerate_classes,
    erase_external,
    family_predicate,
    multi_edge_graph,
    path_graph,
    verify_beta,
    verify_lemmas,
)
from autgraph.recursion import BlockLimits
from autgraph.verify import BetaVerification, ClassCheck


# ----------------------------------------------------------------------
# enumeration

def test_enumerate_conn_3_0():
    found = enumerate_classes("conn", 3, 0, 0)
    assert set(found) == {canonical_key(path_graph(3))}


def test_enumerate_biconn_2_2():
    found = enumerate_classes("biconn", 2, 2, 0)
    assert set(found) == {canonical_key(multi_edge_graph(3))}


def test_enumerate_two_edge_3_2():
    found = enumerate_classes("two_edge", 3, 2, 0)
    assert len(found) == 2


def test_enumerate_aux_families():
    found = enumerate_classes("aux", 3, 2, 0, j=2)
    assert set(found) == {canonical_key(Multigraph(3, ((1, 2), (1, 2), (2, 3), (2, 3))))}
    assert not enumerate_classes("aux", 3, 2, 0, j=3)


def test_enumerate_with_legs_counts_label_placements():
    found = enumerate_classes("conn", 2, 0, 1)
    assert len(found) == 1  # both placements of x1 on an edge are isomorphic
    found2 = enumerate_classes("conn", 2, 0, 2)
    assert len(found2) == 2  # labels together vs apart


def test_enumerate_cycles_family_with_limits():
    plain = enumerate_classes("two_edge_cycles", 4, 2, 0)
    limited = enumerate_classes("two_edge_cycles", 4, 2, 0, options=BlockLimits(3, 1))
    assert set(limited) <= set(plain)


def test_enumerate_bound_checks():
    with pytest.raises(GraphError):
        enumerate_classes("conn", 6, 2, 0)
    with pytest.raises(GraphError):
        enumerate_classes("conn", 3, 0, 4)
    with pytest.raises(GraphError):
        enumerate_classes("mystery", 3, 0, 0)


def test_enumeration_is_monotone_across_families():
    for n, k in ((3, 1), (4, 1), (3, 2), (4, 2)):
        biconn = set(enumerate_classes("biconn", n, k, 0))
        two_edge = set(enumerate_classes("two_edge", n, k, 0))
        conn = set(enumerate_classes("conn", n, k, 0))
        assert biconn <= two_edge <= conn


def test_family_predicates_ignore_legs():
    """Guard: every family is leg-blind.

    The engine computes leg-free values and places the legs on the result
    afterwards.  That is exact only while membership in a family does not
    depend on where the legs sit; a predicate that looked at legs would make
    the engine silently wrong for s > 0.
    """
    hub = Multigraph(4, ((1, 2), (1, 2), (1, 3), (1, 3), (1, 4), (1, 4)))
    corpus = [Multigraph(4, hub.edges, (("x1", v),)) for v in range(1, 5)]
    for n in range(1, 6):
        for k in range(0, 6 - n):
            corpus.extend(enumerate_classes("conn", n, k, 1).values())
    predicates = {
        "conn": family_predicate("conn"),
        "biconn": family_predicate("biconn"),
        "two_edge": family_predicate("two_edge"),
        "two_edge_cycles": family_predicate("two_edge_cycles"),
        "aux2": family_predicate("aux", j=2),
        "aux3": family_predicate("aux", j=3),
        "two_edge limits (3, 1)": family_predicate("two_edge", options=BlockLimits(3, 1)),
    }
    for name, predicate in predicates.items():
        accepted = 0
        for g in corpus:
            assert g.num_legs == 1
            member = predicate(g)
            assert member == predicate(erase_external(g)), (name, g)
            accepted += member
        assert accepted, f"{name} accepts no graph of the corpus"


# ----------------------------------------------------------------------
# verify_beta

def test_verify_beta_cycles():
    for n in range(3, 6):
        report = verify_beta("biconn", n, 1, 0)
        assert report.passed
        assert [check.coefficient for check in report.checks] == [Fraction(1, 2 * n)]


def test_verify_beta_conn_4_0():
    report = verify_beta("conn", 4, 0, 0)
    assert report.passed
    assert sorted(check.coefficient for check in report.checks) == [
        Fraction(1, 6),
        Fraction(1, 2),
    ]


def test_verify_beta_two_edge_3_2():
    report = verify_beta("two_edge", 3, 2, 0)
    assert report.passed
    assert sorted(check.coefficient for check in report.checks) == [
        Fraction(1, 8),
        Fraction(1, 4),
    ]


def test_verify_beta_aux():
    report = verify_beta("aux", 3, 2, 0, j=2)
    assert report.passed
    assert report.class_count == 1


def test_verify_beta_report_serialization():
    report = verify_beta("biconn", 3, 1, 0)
    data = report.to_json_dict()
    assert data["passed"] is True
    assert data["classes"][0]["coefficient"] == "1/6"
    assert data["classes"][0]["match"] is True
    assert "pass" in report.to_text()


def test_verification_report_flags_problems():
    triangle = cycle_graph(3)
    key = canonical_key(triangle)
    bad = BetaVerification(
        family="biconn",
        n=3,
        k=1,
        s=0,
        j=0,
        checks=[
            ClassCheck(key=key, graph=triangle, coefficient=Fraction(1, 5), expected=Fraction(1, 6))
        ],
        missing=[(key, triangle)],
        extra=[],
    )
    assert not bad.passed
    text = bad.to_text()
    assert "FAIL" in text and "mismatch" in text and "missing" in text


# ----------------------------------------------------------------------
# lemma suite

def test_verify_lemmas_small_bound():
    report = verify_lemmas(bound=4)
    assert report.passed
    names = [check.name for check in report.checks]
    assert len(names) == len(set(names)) == 8
    assert all(check.cases > 0 for check in report.checks)


def test_verify_lemmas_bound_validation():
    with pytest.raises(GraphError):
        verify_lemmas(bound=2)
    with pytest.raises(GraphError):
        verify_lemmas(bound=12)


def test_verify_lemmas_json():
    report = verify_lemmas(bound=4)
    data = report.to_json_dict()
    assert data["passed"] is True
    assert len(data["checks"]) == 8
