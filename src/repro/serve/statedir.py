"""The fleet's shared state as files under its artifact directory, next
to the side archives its processes already exchange there — no broker
process stands between a worker and its siblings.

* :class:`DirMapping` — one JSON file per key, written under a temporary
  name and moved into place with :func:`os.replace`: a reader sees a
  whole old record or a whole new one, never a torn one.
* :class:`FileLock` — ``flock`` on a file opened once per acquisition.
  The kernel drops it when its holder dies (a SIGKILLed coordinator
  cannot wedge later admin operations); one open file description per
  acquisition excludes other threads as well as other processes, and
  leaves no in-process half for a forked child to inherit held.
"""

from __future__ import annotations

import fcntl
import fnmatch
import json
import os
import shutil
import threading
import time
from typing import List, Tuple


class DirMapping:
    """The part of ``dict`` the fleet uses, over one directory.

    Keys are file names (``str(key)``: slot 0 reads back as ``"0"``),
    values anything :mod:`json` round-trips. Dot-names — writers'
    temporaries, the lock file — are not keys. Reading a missing key, or
    a directory removed at shutdown, gives the default; writing there
    raises ``OSError``.
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
            with open(self._file(key), "rb") as fp:
                return json.load(fp)
        except FileNotFoundError:
            return default

    def __setitem__(self, key, value) -> None:
        data = json.dumps(value)  # before any file exists: may raise
        temp = self._file(
            f".{key}.{os.getpid()}-{threading.get_ident()}.partial")
        with open(temp, "w") as fp:
            fp.write(data)
        os.replace(temp, self._file(key))

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
