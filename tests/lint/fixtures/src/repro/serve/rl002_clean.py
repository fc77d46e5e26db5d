"""RL002 fixture: threads, and names that only look alike."""
import concurrent
import socketserver
import threading
from concurrent import interpreters_are_not_futures
from . import asyncio_notes  # relative: a sibling module, not asyncio

asyncio = "a string, not the module"


def serve(handler):
    worker = threading.Thread(target=handler, daemon=True)
    return worker, socketserver.ThreadingTCPServer, concurrent, asyncio
