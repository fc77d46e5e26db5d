"""The fleet's shared state as files under its artifact directory — no
broker process stands between a worker and its siblings. Every file is
written under a temporary name and renamed into place, so a reader
sees a whole old version or a whole new one, never a torn one.

* ``gens/<name>/<d>/`` — generation ``d`` of an index, written by
  :func:`write_generation` and never modified afterwards. Numbers are
  never reused: a rejected directory keeps its as ``<d>.quarantine``.
* ``current.json`` — ``{name: "<d>"}``, what the fleet serves.
* ``snapshots/`` — a :class:`DirMapping`, one JSON file per worker.
* ``.lock`` — a :class:`FileLock`: ``flock`` on a file opened once per
  acquisition, which the kernel drops when its holder dies (a SIGKILLed
  coordinator cannot wedge later admin operations) and which excludes
  other threads as well as other processes.
"""

from __future__ import annotations

import fcntl
import fnmatch
import json
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..act import serialize
from ..act.index import ACTIndex
from .shard import ShardMap, write_slices

CURRENT = "current.json"
GENS = "gens"
LOCK = ".lock"
FULL = "full.npz"
SHARD_MAP = "shard_map.json"
MANIFEST = "MANIFEST"
_TMP = ".tmp-"
_QUARANTINE = ".quarantine"


def write_json(path, value) -> None:
    """``path`` holds ``value`` whole, or keeps what it held."""
    data = json.dumps(value)  # before any file exists: may raise
    path = Path(path)
    temp = path.with_name(
        f".{path.name}.{os.getpid()}-{threading.get_ident()}.partial")
    with open(temp, "w") as fp:
        fp.write(data)
    os.replace(temp, path)


def read_json(path):
    with open(path, "rb") as fp:
        return json.load(fp)


def read_current(root) -> Dict[str, int]:
    """What the fleet serves, ``{name: d}`` (empty before it starts)."""
    try:
        return {name: int(d)
                for name, d in read_json(Path(root) / CURRENT).items()}
    except FileNotFoundError:
        return {}


def replace_current(root, current: Dict[str, int]) -> None:
    write_json(Path(root) / CURRENT,
               {name: str(d) for name, d in sorted(current.items())})


def generation_dir(root, name: str, d: int) -> Path:
    return Path(root) / GENS / name / str(d)


def write_generation(root, name: str, *, index: Optional[ACTIndex] = None,
                     full_from=None, source=None,
                     shard_map: Optional[ShardMap] = None,
                     data_generation: Optional[int] = None,
                     first: int = 1,
                     report: Optional[dict] = None) -> int:
    """Write ``name``'s next generation directory under a temporary
    name and rename it into place complete; returns its number, one
    above every number used under ``gens/<name>/`` and at least
    ``first``.

    ``full.npz`` is hard-linked from ``full_from`` (no bytes, one page
    cache), copied where it cannot be, or ``index`` written. With a
    ``shard_map``, each slot gets its slice (``slot<k>.npz``) and
    ``shard_map.json`` this name's ranges. ``MANIFEST``, last, lists
    members and bytes (no hashing pass: every archive carries its own
    checksums), the number, the data and map generations and the
    ``source`` a path-less reload re-reads. ``report`` accumulates
    ``bytes_written`` and the slicing's ``cut_s``/``write_s``.
    """
    gens = Path(root) / GENS / name
    gens.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{_TMP}{os.getpid()}-", dir=gens))
    report = {} if report is None else report
    try:
        full = tmp / FULL
        written = 0
        if full_from is None:
            serialize.save_index(index, full)
            written = full.stat().st_size
        else:
            try:
                os.link(full_from, full)
            except OSError:
                written = Path(shutil.copyfile(full_from, full)).stat().st_size
        if shard_map is not None:
            if index is None:
                index = serialize.load_index(full, mmap_mode="r")
            paths = write_slices(index, shard_map, tmp, name, report)
            written += sum(path.stat().st_size for path in paths.values())
            write_json(tmp / SHARD_MAP, ShardMap(
                shard_map.generation, {name: shard_map.ranges[name]},
                shard_map.num_slots).to_wire())
        d = max([first - 1] + [int(entry.split(".")[0])
                               for entry in os.listdir(gens)
                               if entry[0].isdigit()]) + 1
        write_json(tmp / MANIFEST, {
            "name": name, "generation": d,
            "data_generation": data_generation or d,
            "map_generation": (None if shard_map is None
                               else shard_map.generation),
            "source": None if source is None else str(source),
            "members": {member.name: member.stat().st_size
                        for member in sorted(tmp.iterdir())},
        })
        os.rename(tmp, gens / str(d))
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    report["bytes_written"] = report.get("bytes_written", 0) + written
    return d


def first_generation(record) -> dict:
    """:func:`write_generation`'s arguments for a materialized record's
    (an :class:`~repro.serve.registry.IndexGeneration`) first directory:
    hard-linked from the file it was loaded from, or the index it built
    saved, numbered after it — a process holding the record keeps it."""
    return dict(index=record.index, full_from=record.path,
                source=record.path, first=record.generation)


def quarantine_generation(root, name: str, d: int) -> str:
    """Move a rejected directory aside for forensics; its number stays."""
    path = generation_dir(root, name, d)
    target = path.with_name(f"{d}{_QUARANTINE}")
    os.rename(path, target)
    return str(target)


def collect_generations(root, name: str, keep: Iterable[int]) -> int:
    """Delete ``name``'s generation directories other than ``keep``, and
    temporaries of writers that died mid-write (only the admin lock's
    holder calls this, so no live writer has one); returns how many
    directories went. A mapped file outlives its unlink."""
    gens = Path(root) / GENS / name
    keep = {str(d) for d in keep}
    removed = 0
    for entry in os.listdir(gens):
        if entry.startswith(_TMP):
            shutil.rmtree(gens / entry, ignore_errors=True)
        elif entry.isdigit() and entry not in keep:
            shutil.rmtree(gens / entry, ignore_errors=True)
            removed += 1
    return removed


class DirMapping:
    """The part of ``dict`` the fleet uses, over one directory.

    Keys are file names (``str(key)``: slot 0 reads back as ``"0"``),
    values anything :mod:`json` round-trips. Dot-names — writers'
    temporaries — are not keys. Reading a missing key, or a directory
    removed at shutdown, gives the default; writing there raises
    ``OSError``.
    """

    def __init__(self, path):
        self.path = str(path)

    def reset(self) -> "DirMapping":
        """Start empty: nothing a previous run left is this run's."""
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def _file(self, key) -> str:
        return os.path.join(self.path, str(key))

    def get(self, key, default=None):
        try:
            return read_json(self._file(key))
        except FileNotFoundError:
            return default

    def __setitem__(self, key, value) -> None:
        write_json(self._file(key), value)

    def __delitem__(self, key) -> None:
        try:
            os.unlink(self._file(key))
        except FileNotFoundError:  # dict's contract, caught by callers
            raise KeyError(key) from None  # repro-lint: ignore[RL005]

    def _names(self, pattern: str) -> List[str]:
        try:
            return fnmatch.filter(os.listdir(self.path), pattern)
        except FileNotFoundError:
            return []

    def keys(self) -> List[str]:
        return self._names("[!.]*")

    def items(self) -> List[Tuple[str, object]]:
        """Every record; one deleted after the listing is skipped."""
        records = ((key, self.get(key)) for key in self.keys())
        return [(key, value) for key, value in records if value is not None]

    def sweep_partials(self, pid: int) -> None:
        """Remove the temporaries a writer killed mid-write left."""
        for name in self._names(f".*.{pid}-*.partial"):
            os.unlink(self._file(name))


class FileLock:
    """A ``threading.Lock``'s ``acquire``/``release``, over ``flock``."""

    def __init__(self, path):
        self.path = str(path)
        self._fd = None  # the holder's descriptor, while held

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        start = time.monotonic()
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._fd, fd = fd, None
                    return True
                except BlockingIOError:
                    if not blocking or (
                            0 <= timeout <= time.monotonic() - start):
                        return False
                time.sleep(0.01)
        finally:
            if fd is not None:
                os.close(fd)

    def release(self) -> None:
        fd, self._fd = self._fd, None
        # unlock, not only close: a worker forked while this was held
        # shares the open file description and would keep it locked
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
