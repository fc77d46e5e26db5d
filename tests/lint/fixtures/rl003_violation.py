"""RL003 fixture: hot-path hygiene violations in a hot function."""
import json
import logging
import time

import numpy as np


def query(name, lngs, lats):  # repro-lint: hot
    logging.info("query for %s", name)      # line 10: logging
    payload = json.dumps({"name": name})    # line 11: json
    label = f"query:{name}"                 # line 12: eager f-string
    out = []
    for lng in lngs:                        # line 14: loop over param
        out.append(lng)
    started = time.time()                   # line 16: warning
    return payload, label, out, started


def helper(lngs):
    # not a hot function: identical shapes are out of scope
    label = "helper:{}".format(len(lngs))
    for lng in lngs:
        logging.info("point %s", lng)
    return label


def slice_index(index, spans):  # repro-lint: hot
    kept = []
    for cell, entry in index.core.iter_cells():   # line 30: per-cell loop
        kept.append((cell, entry))
    return kept, spans


def refine_pairs(keys, lngs):  # repro-lint: hot
    _, first = np.unique(keys, axis=0, return_index=True)  # line 36: rows
    return np.unique(lngs), first     # 1-D unique is fine


def from_cells(cls, cells, entries, lookup_words, fanout):  # repro-lint: hot
    nodes = {}
    for cell, entry in zip(cells, entries):       # line 42: per-cell loop
        nodes[cell] = entry
    return cls, nodes, lookup_words, fanout


def write_slices(index, shard_map, artifact_dir, name, generation):  # repro-lint: hot
    owned = {}
    for cell, entry in index.core.iter_cells():   # line 49: per-cell loop
        owned[shard_map.route_one(name, cell)] = entry
    logging.info("cut %s for %d slots", name, len(owned))  # line 51
    return owned, artifact_dir, generation


def join(self, lngs, lats, exact=False):  # repro-lint: hot
    counts = {}
    for k, lng in enumerate(lngs):                # line 57: per-point loop
        counts[k] = counts.get(k, 0) + 1
    return counts, lats, exact


def merged(self, other):  # repro-lint: hot
    label = f"{self} + {other}"                   # line 63: eager f-string
    return label
