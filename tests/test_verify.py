import json

import pytest

from delpezzo.verify import (
    AUT_ORDERS,
    full_report,
    schlafli_report,
    stabilizer_chain_check,
    verify_table1,
)


def test_table1_all_pass():
    checks = verify_table1()
    assert all(c.ok for c in checks), [c.to_json() for c in checks if not c.ok]


@pytest.mark.parametrize("d", range(1, 7))
def test_stabilizer_chain(d):
    checks = stabilizer_chain_check(d)
    assert all(c.ok for c in checks), [c.to_json() for c in checks if not c.ok]


@pytest.mark.parametrize("broken", ["labels", "domain"])
def test_stabilizer_chain_reports_a_failed_transport(broken, monkeypatch):
    from delpezzo import verify
    from delpezzo.permgroup import PermutationGroup

    if broken == "labels":
        monkeypatch.setattr(verify, "maps_labels", lambda *args: False)
    else:  # the whole group for the stabilizer: a generator moves E_6 and leaves the domain
        monkeypatch.setattr(PermutationGroup, "stabilizer_of_point", lambda self, point: self)
    checks = {c.claim: c for c in stabilizer_chain_check(3)}
    assert not checks["stabilizer transports to degree-4 automorphisms"].ok
    assert checks["stabilizer transports to degree-4 automorphisms"].computed is False
    assert not any("transported group order" in claim or "injective" in claim for claim in checks)
    assert len(checks) == 4


def test_stabilizer_chain_rejects_degree_seven():
    with pytest.raises(ValueError):
        stabilizer_chain_check(7)


def test_schlafli_report_all_pass():
    checks = schlafli_report()
    assert all(c.ok for c in checks), [c.to_json() for c in checks if not c.ok]


def test_check_json_shape():
    check = verify_table1()[0].to_json()
    assert set(check) == {"claim", "expected", "computed", "pass"}


def test_full_report_serializes_and_passes():
    report = full_report()
    assert report["all_pass"]
    assert report["failures"] == []
    json.dumps(report)  # JSON-serializable end to end


def test_expected_orders_table():
    assert AUT_ORDERS == {
        1: 696729600,
        2: 2903040,
        3: 51840,
        4: 1920,
        5: 120,
        6: 12,
        7: 2,
    }
    assert AUT_ORDERS[3] == 2**7 * 3**4 * 5
