"""RL006 fixture: a Manager broker constructed in the serving layer."""
import multiprocessing


class Fleet:
    def start(self):
        self._ctx = multiprocessing.get_context("fork")
        self._manager = self._ctx.Manager()               # line 8
        self._control = self._manager.dict()
        return multiprocessing.Manager().Lock()           # line 10


def broker():
    from multiprocessing.managers import SyncManager
    return SyncManager()                                  # line 15


_BROKER = multiprocessing.managers.SyncManager()          # line 18
