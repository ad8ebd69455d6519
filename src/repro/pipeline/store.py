"""The persistent campaign store: a content-addressed verdict log.

Campaigns at the paper's Table IV scale outlive a process — and a
session.  This module gives a :class:`repro.api.Session`'s campaigns
an on-disk memory: an append-only JSONL log of verdict records keyed by
the *content* of the cell that produced them::

    (CLitmus.digest(), profile name, source model, augment, budget)

Content addressing (not test names) makes cross-run sharing sound: two
different tests that both happen to be called ``LB001`` get distinct
keys, while the same test re-generated under a new name replays its
stored verdict.  The log is append-only with last-write-wins replay, so
concurrent shards can share one file per shard and a crashed campaign
resumes from whatever it managed to append.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterator, List, Optional, Union

#: bump when the record layout changes incompatibly; loaders skip records
#: from other schemas instead of mis-replaying them.
STORE_SCHEMA = 1

#: the record fields that form a cell's identity.
KEY_FIELDS = ("digest", "profile", "source_model", "augment", "budget_candidates")


def cell_key(
    digest: str,
    profile_name: str,
    source_model: str,
    augment: bool,
    budget_candidates: int,
) -> str:
    """The store key of one campaign cell (a stable, printable string)."""
    return "|".join(
        (digest, profile_name, source_model, str(int(bool(augment))),
         str(budget_candidates))
    )


def record_key(record: Dict[str, object]) -> str:
    """The store key a verdict record belongs under."""
    return cell_key(
        str(record["digest"]),
        str(record["profile"]),
        str(record["source_model"]),
        bool(record["augment"]),
        int(record["budget_candidates"]),  # type: ignore[arg-type]
    )


class CampaignStore:
    """An append-only JSONL store of campaign verdict records.

    One record per line; loading replays the log with last-write-wins,
    so re-recording a cell simply supersedes the old verdict.  A torn
    final line (crashed writer) is cut off when the store opens — counted
    in ``skipped``, never appended onto — so the next :meth:`put` starts
    a fresh line and no stored verdict is lost to the fragment.  Appends
    are thread-safe; cross-process writers should use one store file per
    shard and merge reports, not share a file.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._records: Dict[str, Dict[str, object]] = {}
        self.loaded = 0
        self.skipped = 0
        self.appended = 0
        if os.path.exists(self.path):
            self._repair_tail()
            self._load()

    def _repair_tail(self) -> None:
        """Make the file end in a newline: a final line without one is
        a crashed writer's work — kept (newline added) if it is a whole
        JSON value, truncated away otherwise."""
        with open(self.path, "rb") as handle:
            if handle.seek(0, os.SEEK_END) == 0:
                return
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return  # the common case: no write access needed
            handle.seek(0)
            data = handle.read()
        start = data.rfind(b"\n") + 1
        with open(self.path, "rb+") as handle:
            try:
                json.loads(data[start:])
            except ValueError:
                handle.truncate(start)
                self.skipped += 1
            else:
                handle.seek(0, os.SEEK_END)
                handle.write(b"\n")

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    self.skipped += 1
                    continue
                if not isinstance(record, dict) or record.get("schema") != STORE_SCHEMA:
                    self.skipped += 1
                    continue
                if any(field not in record for field in KEY_FIELDS):
                    self.skipped += 1
                    continue
                self._records[record_key(record)] = record
                self.loaded += 1

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self._records.get(key)

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def records(self) -> List[Dict[str, object]]:
        return list(self._records.values())

    def put(self, record: Dict[str, object]) -> str:
        """Append one verdict record and return its key."""
        record = dict(record, schema=STORE_SCHEMA)
        key = record_key(record)
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
            self._records[key] = record
            self.appended += 1
        return key
