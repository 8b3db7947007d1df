"""Quarantine-then-rebuild for corrupt artifact-store entries.

The store must never serve bytes that fail their integrity digest — and
it must not destroy the evidence either: the corrupt file moves into
``.quarantine/`` (preserving its bytes for forensics) and the artifact
is recomputed fresh.
"""

from __future__ import annotations

import pytest

from repro.harness.engine import ArtifactStore, QUARANTINE_DIR
from repro.telemetry.metrics import get_registry
from tests.helpers import store_cache

#: Store accounting is read from a per-test registry.
pytestmark = pytest.mark.usefixtures("fresh_registry")


def _seed(store: ArtifactStore, tag: str = "q"):
    key = store.key("misc", tag=tag)
    store.put("misc", key, {"payload": tag})
    return key, store.path("misc", key)


class TestQuarantine:
    def test_corrupt_file_moves_to_quarantine_with_bytes_intact(
            self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = _seed(store)
        damaged = b"not an artifact at all"
        path.write_bytes(damaged)

        assert store.get("misc", key) is None
        assert not path.exists()
        parked = store.quarantine_path("misc", key)
        assert parked.read_bytes() == damaged
        assert store_cache(store)["quarantined"] == 1
        # Quarantined bytes are invisible to the addressable tree.
        assert store.get("misc", key) is None

    def test_digest_failure_quarantines_and_counts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = _seed(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))

        assert store.get("misc", key) is None
        counters = get_registry().counters
        assert counters["store/digest_failures"] == 1
        assert counters["store/quarantined"] == 1
        assert store_cache(store)["corrupt"] == 1

    def test_rebuild_after_quarantine_is_fresh(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = _seed(store)
        path.write_bytes(b"junk")
        assert store.get("misc", key) is None
        value = store.fetch("misc", key, lambda: {"payload": "rebuilt"})
        assert value == {"payload": "rebuilt"}
        # The rebuilt artifact reads back clean; the quarantined one
        # still sits aside untouched.
        assert store.get("misc", key) == {"payload": "rebuilt"}
        assert store.quarantine_path("misc", key).exists()

    def test_second_corruption_overwrites_quarantine_slot(self, tmp_path):
        """Re-corruption of the same key must not fail on the occupied
        quarantine slot (os.replace semantics)."""
        store = ArtifactStore(tmp_path)
        key, path = _seed(store)
        path.write_bytes(b"first corruption")
        assert store.get("misc", key) is None
        store.put("misc", key, {"payload": "again"})
        store.path("misc", key).write_bytes(b"second corruption")
        assert store.get("misc", key) is None
        assert store_cache(store)["quarantined"] == 2
        parked = store.quarantine_path("misc", key)
        assert parked.read_bytes() == b"second corruption"

    def test_quarantine_dir_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = _seed(store, tag="layout")
        path.write_bytes(b"x")
        store.get("misc", key)
        parked = store.quarantine_path("misc", key)
        assert parked == (tmp_path / QUARANTINE_DIR / "misc"
                          / f"{key}.pkl")
