"""RL006 fixture: construction deferred past import (fork-safe)."""
import socket
import threading


def prewarm():
    # post-fork seam: each worker builds its own resources
    watcher = threading.Thread(target=print, daemon=True)
    sock = socket.socket()
    return watcher, sock


if __name__ == "__main__":
    # the main guard never runs on import: exempt
    _MAIN_THREAD = threading.Thread(target=print, daemon=True)


def broker():
    # outside src/repro/serve/ a deferred Manager is no finding
    import multiprocessing
    return multiprocessing.Manager()
