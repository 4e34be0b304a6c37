"""Content-addressed storage for certificate DER blobs.

The archive's unit of deduplication is the raw certificate.  Root
stores share most of their roots — the same NSS certificate appears in
hundreds of snapshots across ten providers — so the corpus's ~68k
entry occurrences collapse to a few hundred distinct DER blobs.  The
:class:`ContentStore` keys every blob by its SHA-256 hex digest (the
same fingerprint the whole analysis layer uses as certificate
identity) and lays it out in a sharded object directory::

    objects/
      3f/3fa1c2...9be.der      # first two hex chars shard the namespace
      a0/a07744...01c.der

Writes are idempotent and atomic: an object that already exists is
never rewritten (re-ingest of an unchanged corpus touches nothing),
and new objects land via a temp file + ``os.replace`` so a crashed
ingest can never leave a half-written object under its final name.
Reads verify the content address by default, so a flipped byte on disk
surfaces as :class:`~repro.errors.ArchiveCorruptionError` naming the
damaged file rather than as silently wrong analysis output.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.archive.io import atomic_write_bytes
from repro.errors import ArchiveCorruptionError, ArchiveError

#: Directory name of the object store inside an archive root.
OBJECTS_DIR = "objects"
#: Suffix given to every stored blob (they are all certificate DER).
OBJECT_SUFFIX = ".der"
#: A valid object name: lowercase hex, long enough to shard (no path
#: separators, so a name can never escape the object directory).
_OBJECT_NAME = re.compile(r"[0-9a-f]{3,}")


def content_address(data: bytes) -> str:
    """The SHA-256 hex digest that names ``data`` in the store."""
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class PutResult:
    """Outcome of one :meth:`ContentStore.put`."""

    fingerprint: str
    created: bool  # False when the object was already present


class ContentStore:
    """A sharded, content-addressed object directory."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    # -- layout ----------------------------------------------------------

    def path_for(self, fingerprint: str) -> Path:
        """Where the object named ``fingerprint`` lives (or would live)."""
        if _OBJECT_NAME.fullmatch(fingerprint) is None:
            raise ArchiveError(f"not a SHA-256 hex fingerprint: {fingerprint!r}")
        return self.root / fingerprint[:2] / f"{fingerprint}{OBJECT_SUFFIX}"

    # -- writes ----------------------------------------------------------

    def put(self, data: bytes) -> PutResult:
        """Store ``data`` under its content address (idempotent, atomic)."""
        fingerprint = content_address(data)
        path = self.path_for(fingerprint)
        if path.exists():
            return PutResult(fingerprint=fingerprint, created=False)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, data, site="object")
        return PutResult(fingerprint=fingerprint, created=True)

    def remove(self, fingerprint: str) -> bool:
        """Delete one object (GC of orphans); True when a file was removed."""
        path = self.path_for(fingerprint)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    # -- reads -----------------------------------------------------------

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    def get(self, fingerprint: str, *, verify: bool = True) -> bytes:
        """The object's bytes; integrity-checked against its address.

        ``verify=True`` (the default) re-hashes the bytes and raises
        :class:`ArchiveCorruptionError` on mismatch — queries must fail
        loudly on damaged storage, never return plausible garbage.
        """
        path = self.path_for(fingerprint)
        try:
            data = path.read_bytes()
        except FileNotFoundError as exc:
            raise ArchiveCorruptionError(
                f"object {fingerprint} missing from content store ({path})",
                fingerprint=fingerprint,
                path=str(path),
            ) from exc
        if verify:
            actual = content_address(data)
            if actual != fingerprint:
                raise ArchiveCorruptionError(
                    f"object {fingerprint} is corrupt: stored bytes hash to "
                    f"{actual} ({path})",
                    fingerprint=fingerprint,
                    path=str(path),
                )
        return data

    def fingerprints(self) -> Iterator[str]:
        """Every object name on disk, in sorted order."""
        if not self.root.is_dir():
            return
        for shard in sorted(p for p in self.root.iterdir() if p.is_dir()):
            for path in sorted(shard.glob(f"*{OBJECT_SUFFIX}")):
                yield path.name.removesuffix(OBJECT_SUFFIX)

    def __len__(self) -> int:
        return sum(1 for _ in self.fingerprints())
