"""RL003 fixture: hot-path hygiene violations in a hot function."""
import json
import logging
import time


def query(name, lngs, lats):
    logging.info("query for %s", name)      # line 8: logging
    payload = json.dumps({"name": name})    # line 9: json
    label = f"query:{name}"                 # line 10: eager f-string
    out = []
    for lng in lngs:                        # line 12: loop over param
        out.append(lng)
    started = time.time()                   # line 14: warning
    return payload, label, out, started


def helper(lngs):
    # not a hot function: identical shapes are out of scope
    label = "helper:{}".format(len(lngs))
    for lng in lngs:
        logging.info("point %s", lng)
    return label


def slice_index(index, spans):
    kept = []
    for cell, entry in index.core.iter_cells():   # line 28: per-cell loop
        kept.append((cell, entry))
    return kept, spans
