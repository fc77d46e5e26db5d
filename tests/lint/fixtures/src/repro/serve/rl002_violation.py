"""RL002 fixture: a second concurrency model under serve/."""
import asyncio
import concurrent.futures as cf
from asyncio import sleep
from concurrent import futures


def pool():
    from concurrent.futures import ThreadPoolExecutor  # line 9: deferred
    import asyncio.events                              # line 10: submodule
    return ThreadPoolExecutor, asyncio, cf, sleep, futures
