"""The one atomic JSON writer and digest-sharded store behind every
lasting output of the pipeline.

Three kinds of document outlive the process that produced them, each
filed under a content digest:

- analysis reports served by :class:`repro.store.ResultStore`;
- model-checking verdicts in :class:`repro.mc.cache.McVerdictCache`;
- fuzz corpus entries and deviation artifacts under ``--corpus-dir``
  (:class:`repro.fuzz.Fuzzer`).

All of them are written by :func:`write_json`: the text goes to a temp
file in the target directory and ``os.replace`` renames it into place,
so a reader, a concurrent writer or a later campaign sees the old
document or the new one, never a torn one.

:class:`BlobStore` is the store the first two share: one schema-stamped
envelope ``{"digest", "key", <payload field>}`` per entry at
``<root>/<digest[:2]>/<digest>.json``, so directories stay small at
millions of entries.  An entry that does not parse, whose envelope is
wrong (digest mismatch, unknown wire-format major, payload not a JSON
object) or whose payload does not decode is *quarantined* (moved to
``<root>/quarantine``) and read as a miss — one bad file must never take
a reader down or poison later lookups of the same digest.  Subclasses
name the payload field, the :mod:`repro.obs` counter prefix and the
error type.

This module imports only :mod:`repro.obs` and :mod:`repro.schema`:
:mod:`repro.store` imports :mod:`repro.core`, which imports
:mod:`repro.mc`, so the shared code cannot live in either package.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, Generic, List, Optional, Type, TypeVar

from . import obs, schema

__all__ = ["BlobStore", "write_json"]

T = TypeVar("T")


def write_json(path: Path, payload: object, *, pretty: bool = False,
               unlink_counter: str) -> None:
    """Atomically replace ``path`` with ``payload`` as sorted-key JSON.

    ``pretty`` indents by two and ends the file with a newline (the
    hand-readable fuzz artifacts); otherwise the JSON is compact.  If the
    write fails, the temp file is removed (a failed removal is counted
    under ``unlink_counter``) and the error propagates.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, default=str,
                      indent=2 if pretty else None)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".{path.stem[:8]}-",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text + "\n" if pretty else text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            obs.count(unlink_counter)
        raise


class BlobStore(Generic[T]):
    """JSON-on-disk content-addressed store, sharded by digest prefix."""

    QUARANTINE = "quarantine"
    #: Envelope field that holds the payload.
    PAYLOAD: str
    #: Prefix of the ``repro.obs`` counters (``<prefix>hits``, ...).
    COUNTER: str
    #: Raised for a malformed digest.
    ERROR: Type[Exception]

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _encode(self, value: T) -> Any:
        """The JSON payload filed for ``value`` (the value itself here)."""
        return value

    def _decode(self, payload: Dict) -> Any:
        """The value a payload stands for.

        Raises ``ValueError``, ``KeyError`` or ``TypeError`` on a payload
        it cannot decode; :meth:`get` quarantines such an entry.
        """
        return payload

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        if len(digest) < 3 or not all(c in "0123456789abcdef"
                                      for c in digest):
            raise self.ERROR(f"malformed digest {digest!r}")
        return self.root / digest[:2] / f"{digest}.json"

    def put(self, digest: str, value: T,
            key: Optional[Dict] = None) -> Path:
        """File ``value`` under its digest (atomic; last writer wins)."""
        entry = schema.stamp({
            "digest": digest,
            "key": key,
            self.PAYLOAD: self._encode(value),
        })
        path = self.path_for(digest)
        write_json(path, entry,
                   unlink_counter=f"{self.COUNTER}tmp_unlink_failures")
        obs.count(f"{self.COUNTER}writes")
        return path

    def get(self, digest: str) -> Optional[T]:
        """The stored value, or ``None`` on a miss.

        A corrupted entry is moved to the quarantine directory and
        reported as a miss (see the module docstring).
        """
        path = self.path_for(digest)
        try:
            raw = path.read_bytes()
        except OSError:
            obs.count(f"{self.COUNTER}misses")
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict):
                raise ValueError(f"entry is {type(entry).__name__}, "
                                 f"not an object")
            schema.check(entry, f"{self.PAYLOAD} entry")
            if entry.get("digest") != digest:
                raise ValueError(f"digest mismatch: entry says "
                                 f"{entry.get('digest')!r}")
            payload = entry[self.PAYLOAD]
            if not isinstance(payload, dict):
                raise ValueError(f"{self.PAYLOAD} is "
                                 f"{type(payload).__name__}, not an object")
            value = self._decode(payload)
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            obs.count(f"{self.COUNTER}misses")
            return None
        obs.count(f"{self.COUNTER}hits")
        return value

    def contains(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    # ------------------------------------------------------------------
    def _quarantine(self, path: Path) -> None:
        quarantine = self.root / self.QUARANTINE
        quarantine.mkdir(parents=True, exist_ok=True)
        target = quarantine / path.name
        with self._lock:
            try:
                os.replace(path, target)
            except OSError:       # pragma: no cover - already moved/gone
                obs.count(f"{self.COUNTER}quarantine_failures")
                return
        obs.count(f"{self.COUNTER}quarantined")

    # ------------------------------------------------------------------
    def digests(self) -> List[str]:
        """Every digest currently filed (sorted; excludes quarantine)."""
        found = []
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name == self.QUARANTINE:
                continue
            for entry in sorted(shard.glob("*.json")):
                found.append(entry.stem)
        return found

    def stats(self) -> Dict[str, int]:
        quarantined = 0
        quarantine = self.root / self.QUARANTINE
        if quarantine.is_dir():
            quarantined = sum(1 for _ in quarantine.iterdir())
        return {"entries": len(self.digests()),
                "quarantined": quarantined}
