"""RL003 fixture: a hygienic hot function."""
import time

import numpy as np


def query_batch(name, lngs, lats):  # repro-lint: hot
    started = time.perf_counter()
    arr = np.asarray(lngs) + np.asarray(lats)   # vectorised, no loop
    if arr.size == 0:
        # raise-site formatting only runs on the cold error path
        raise ValueError(f"empty batch for {name!r}")
    try:
        total = float(arr.sum())
    except (TypeError, OverflowError) as exc:
        # except-handler formatting is the cold path too
        detail = f"bad batch: {exc}"
        raise ValueError(detail) from exc
    for _ in range(3):   # loop over a literal, not an array parameter
        total += 0.0
    return total, time.perf_counter() - started


def _plan_one(index, parts):  # repro-lint: hot
    weights = np.cumsum(index.weights)

    def first_key(row, need):
        # a nested def is not the kernel: the per-cut walk may loop
        # over a row's (at most two) candidate slots
        for slot in np.flatnonzero(weights[row] > need).tolist():
            return slot
        return None

    return [first_key(0, np.uint64(k)) for k in range(1, parts)]
