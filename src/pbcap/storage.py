"""Storage-unit directory layout, the append-only decision log, and
the one staged writer that every file pbcap creates goes through."""

from __future__ import annotations

import json
import os
import uuid
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import asdict
from pathlib import Path

from .errors import ValidationError
from .policy import Decision

LOG_NAME = "decisions.log"
NAME_MAX = 255  # bytes in one file name on common file systems


def _safe_name(name: str, what: str) -> str:
    """``name`` if it is one file name that ``os`` can encode in at most
    NAME_MAX bytes; a longer one would fail only when its payload is linked."""
    if not name or name in (".", "..") or "/" in name or "\\" in name or "\x00" in name:
        raise ValidationError(f"{what} {name!r} is not a safe file name")
    try:
        size = len(os.fsencode(name))
    except UnicodeEncodeError:
        raise ValidationError(f"{what} {name!r} cannot be encoded as a file name") from None
    if size > NAME_MAX:
        raise ValidationError(f"{what} {name!r} is {size} bytes long; a file name takes at most {NAME_MAX}")
    return name


def check_file_id(file_id: str) -> str:
    """Return ``file_id`` if a unit directory can hold it; raise ValidationError if not.

    A file id is one safe file name that does not start with '.', since
    dot names in a unit directory are the store's temporary files.
    """
    _safe_name(file_id, "file id")
    if file_id.startswith("."):
        raise ValidationError(f"file id {file_id!r} starts with '.', which marks temporary files")
    return file_id


def check_storage_unit(unit: str) -> str:
    """Return ``unit`` if it can name a unit directory; raise ValidationError if not.

    A storage unit is one safe file name other than the decision log's.
    """
    _safe_name(unit, "storage unit")
    if unit == LOG_NAME:
        raise ValidationError(f"storage unit {unit!r} is the decision log's name")
    return unit


def _dot_name(path: Path) -> Path:
    # not named after path, whose name may already be as long as a name can be
    return path.parent / f".{uuid.uuid4().hex}.tmp"


def write_new(files: Sequence[tuple[Path, bytes, int]], replace: bool) -> None:
    """Write every ``(path, data, mode)`` of ``files``, or none of them.

    Stage: each ``data`` is written in full to a new dot file next to its
    ``path``, created with ``O_EXCL`` and ``mode``, so a 0600 file is
    never wider.  Commit: each staged file is moved onto its path, by
    ``os.replace`` if ``replace``, else by ``os.link``, which refuses a
    path that exists.  A replaced file is kept under a dot name until
    every path is committed.  If a step fails, each path committed so far
    gets its old file back or is removed, no dot file is left, and the
    OSError is raised again naming the path whose step failed.
    """
    staged, kept, committed = [], [], []
    try:
        for path, data, mode in files:
            staged.append(_dot_name(path))
            fd = os.open(staged[-1], os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
            try:
                fh = open(fd, "wb")
            except BaseException:
                os.close(fd)
                raise
            with fh:
                fh.write(data)
        for (path, _, _), tmp in zip(files, staged):
            old = _dot_name(path) if replace else None
            if old:
                try:
                    os.link(path, old)
                    kept.append(old)
                except FileNotFoundError:
                    old = None
                os.replace(tmp, path)
            else:
                os.link(tmp, path)
            committed.append((path, old))
    except OSError as exc:
        for done, old in reversed(committed):
            with suppress(OSError):
                if old:
                    os.replace(old, done)
                else:
                    done.unlink()
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
    finally:
        for dot in staged + kept:
            with suppress(OSError):
                dot.unlink(missing_ok=True)


class StorageLayout:
    """Root directory with one subdirectory per storage unit.

    ``store`` is the only mutating entry point.  A payload is written by
    ``write_new``, staged as a ``.<hex>.tmp`` in its unit directory and
    linked to its target name, which fails if that name exists.  So a
    failed write leaves neither a partial payload nor a log line, and a repeated
    ``file_id`` is refused while the earlier payload stays.  If its log
    line cannot be written, the linked payload is removed again, so stored
    payloads and log lines stay one to one.  Dot names in a unit directory
    are reserved for those temporary files.  Submissions are stored one at
    a time, so the decision log takes no lock.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        if not self.root.is_dir():
            raise ValidationError(f"storage root {self.root} does not exist")
        # refused here, or a payload would be stored before its log line fails
        if self.log_path.exists() and not self.log_path.is_file():
            raise ValidationError(f"decision log {self.log_path} is not a regular file")

    @property
    def log_path(self) -> Path:
        return self.root / LOG_NAME

    def store(self, decision: Decision, payload: bytes) -> Path:
        """Place the payload in the winning unit and log the decision.

        Every refusal, and every ``OSError`` on the way, is a
        ValidationError that leaves no payload and no log line behind.
        """
        unit = check_storage_unit(decision.storage_unit)
        file_name = check_file_id(decision.file_id)
        unit_dir = self.root / unit
        target = unit_dir / file_name
        try:
            try:
                unit_dir.mkdir(exist_ok=True)
            except FileExistsError:
                raise ValidationError(f"storage unit {unit!r} is not a directory") from None
            try:
                write_new([(target, payload, 0o666)], replace=False)
            except FileExistsError:
                raise ValidationError(f"file id {file_name!r} is already stored in {unit!r}") from None
            try:
                self.log(decision)
            except OSError:
                target.unlink()
                raise
        except OSError as exc:
            raise ValidationError(
                f"cannot store file id {file_name!r} in storage unit {unit!r}: {exc.strerror or exc}"
            ) from None
        return target

    def log(self, decision: Decision) -> None:
        """Append the decision's JSON line.  An append that fails part-way
        is cut off again, so the log holds only whole lines."""
        line = (json.dumps(asdict(decision), sort_keys=True) + "\n").encode("utf-8")
        with self.log_path.open("ab", buffering=0) as fh:
            size = fh.tell()
            try:
                while line:  # an unbuffered write may be short on a full disk
                    line = line[fh.write(line):]
            except OSError:
                fh.truncate(size)
                raise
