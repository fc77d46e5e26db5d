"""RL002 fixture: outside serve/, asyncio is someone else's business."""
import asyncio
from concurrent.futures import ThreadPoolExecutor


async def main():
    with ThreadPoolExecutor(1) as pool:
        await asyncio.get_running_loop().run_in_executor(pool, print)
