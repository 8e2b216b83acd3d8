"""Pytest root conftest: make the in-tree package importable.

This mirrors an editable install (``pip install -e .``) without requiring
one, so the test and benchmark suites run directly from a source checkout.
It also holds every ``housekeeping()`` either suite drives to the pin
invariant (see :func:`pin_invariant_after_housekeeping`).
"""

import os
import sys
import threading
from collections import defaultdict

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture(autouse=True)
def pin_invariant_after_housekeeping(monkeypatch):
    """Hold every ``housekeeping()`` a test drives to the pin invariant.

    ``set(database.pinned_snapshots) == set(pincushion.pinned_ids)``, one
    reference each (``tests.helpers.pin_invariant_violation``).  The state is
    read first and judged only if, afterwards, no *other* thread has ever
    pinned on that database: a client mid-pin on another thread holds a
    reference the pincushion does not know yet, which is not a leak.
    """
    from repro.core.api import TxCacheClient
    from repro.deployment import TxCacheDeployment
    from tests.helpers import pin_invariant_violation

    pinners = defaultdict(set)  # id(database) -> threads that pinned on it
    pin_new_snapshot = TxCacheClient._pin_new_snapshot
    housekeeping = TxCacheDeployment.housekeeping

    def recording_pin(client):
        pinners[id(client.database)].add(threading.get_ident())
        return pin_new_snapshot(client)

    def checked_housekeeping(deployment, *args, **kwargs):
        housekeeping(deployment, *args, **kwargs)
        violation = pin_invariant_violation(deployment)
        if violation and pinners[id(deployment.database)] <= {threading.get_ident()}:
            raise AssertionError(violation)

    monkeypatch.setattr(TxCacheClient, "_pin_new_snapshot", recording_pin)
    monkeypatch.setattr(TxCacheDeployment, "housekeeping", checked_housekeeping)
