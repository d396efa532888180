#!/usr/bin/env python3
"""Compare two --bench-json directories run by run, key by key.

Usage: compare_runs.py DIR_A DIR_B

Every file in DIR_A must have a namesake in DIR_B and vice versa.
Each pair must hold the same keys, in the same order, with the same
literal values (numbers are compared as written, not as floats).
Top-level keys under `sim.host.` are host-side measurements (wall
time, host profile) and are the only ones ignored.

Exit 0 when the directories match; otherwise print the first
difference and exit 1 (exit 2 on a usage error).
"""

import json
import os
import sys

HOST_PREFIX = "sim.host."


class Obj(list):
    """A JSON object as its (key, value) pairs in file order."""


def flatten(obj, path=()):
    """(key path, value) leaves of a parsed object, in file order."""
    for k, v in obj:
        if isinstance(v, Obj):
            yield from flatten(v, path + (k,))
        else:
            yield path + (k,), v


def load(path):
    """The file's leaves minus sim.host.* keys, keyed by their
    /-joined path, with every number kept as its literal text."""
    with open(path, encoding="utf-8") as f:
        obj = json.load(f, object_pairs_hook=Obj, parse_float=str,
                        parse_int=str, parse_constant=str)
    if not isinstance(obj, Obj):
        raise ValueError("not a JSON object")
    return [("/".join(p), v) for p, v in flatten(obj)
            if not p[-1].startswith(HOST_PREFIX)]


def first_difference(a_path, b_path):
    """A description of the first difference, or None."""
    a, b = load(a_path), load(b_path)
    a_vals, b_vals = dict(a), dict(b)
    if len(a_vals) != len(a) or len(b_vals) != len(b):
        return "duplicate key"
    for k, _ in a:
        if k not in b_vals:
            return f"key {k} missing from B"
    for k, _ in b:
        if k not in a_vals:
            return f"extra key {k} in B"
    for k, v in a:
        if b_vals[k] != v:
            return f"key {k}: {v} != {b_vals[k]}"
    for (ka, _), (kb, _) in zip(a, b):
        if ka != kb:
            return f"key order: {ka} vs {kb}"
    return None


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    dir_a, dir_b = argv[1], argv[2]
    names_a = sorted(os.listdir(dir_a))
    names_b = sorted(os.listdir(dir_b))
    for name in names_a:
        if name not in names_b:
            print(f"{name}: missing from {dir_b}")
            return 1
    for name in names_b:
        if name not in names_a:
            print(f"{name}: extra in {dir_b}")
            return 1
    for name in names_a:
        try:
            diff = first_difference(os.path.join(dir_a, name),
                                    os.path.join(dir_b, name))
        except (OSError, ValueError) as e:
            print(f"{name}: {e}")
            return 1
        if diff is not None:
            print(f"{name}: {diff}")
            return 1
    print(f"{len(names_a)} runs match (sim.host.* ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
