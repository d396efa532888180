#!/usr/bin/env python3
"""Compare two --bench-json directories run by run, key by key.

Usage: compare_runs.py DIR_A DIR_B [--expect-differ GLOB[,GLOB]]
                                   [--expect-removed KEY[,KEY]]

Every file in DIR_A must have a namesake in DIR_B and vice versa.
Each pair must hold the same keys, in the same order, with the same
literal values (numbers are compared as written, not as floats).
Top-level keys under `sim.host.` are host-side measurements (wall
time, host profile) and are the only ones ignored.

A re-baseline states what it expects to move:
  --expect-differ   files whose names match a glob may differ (they
                    must still exist on both sides); the first
                    difference and count of differing keys of each is
                    reported.
  --expect-removed  each key (a key path, or its last component, e.g.
                    dispatcher.groupMembersDegraded) must be in every
                    DIR_A file and in no DIR_B file; it is then left
                    out of the comparison.

Exit 0 when the directories match; otherwise print the first
difference and exit 1 (exit 2 on a usage error).
"""

import argparse
import fnmatch
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


def is_key(path, key):
    """Whether leaf @path is @key (a full path or its last part)."""
    return path == key or path.endswith("/" + key)


def strip_removed(leaves, removed, side, must_have):
    """(@leaves without the @removed keys, None), or (None, error) if
    a key is missing where it must be present or present where it
    must not be."""
    for r in removed:
        if any(is_key(k, r) for k, _ in leaves) != must_have:
            where = "missing from" if must_have else "still in"
            return None, f"key {r} {where} {side}"
    return [(k, v) for k, v in leaves
            if not any(is_key(k, r) for r in removed)], None


def differences(a, b):
    """Descriptions of every difference between two leaf lists, the
    first one first."""
    out = []
    a_vals, b_vals = dict(a), dict(b)
    if len(a_vals) != len(a) or len(b_vals) != len(b):
        return ["duplicate key"]
    out += [f"key {k} missing from B" for k, _ in a if k not in b_vals]
    out += [f"extra key {k} in B" for k, _ in b if k not in a_vals]
    out += [f"key {k}: {v} != {b_vals[k]}" for k, v in a
            if k in b_vals and b_vals[k] != v]
    if not out:
        for (ka, _), (kb, _) in zip(a, b):
            if ka != kb:
                return [f"key order: {ka} vs {kb}"]
    return out


def compare(a_path, b_path, removed):
    """(differences, error) of one file pair."""
    a, err = strip_removed(load(a_path), removed, "A", True)
    if err is None:
        b, err = strip_removed(load(b_path), removed, "B", False)
    if err is not None:
        return None, err
    return differences(a, b), None


def split_list(text):
    """The items of a comma-separated option value."""
    return [x for x in text.split(",") if x] if text else []


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    ap.add_argument("--expect-differ", default="")
    ap.add_argument("--expect-removed", default="")
    args = ap.parse_args(argv[1:])  # exits 2 on a usage error
    globs = split_list(args.expect_differ)
    removed = split_list(args.expect_removed)
    dir_a, dir_b = args.dir_a, args.dir_b
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
    differed = 0
    for name in names_a:
        try:
            diffs, err = compare(os.path.join(dir_a, name),
                                 os.path.join(dir_b, name), removed)
        except (OSError, ValueError) as e:
            err = str(e)
        if err is not None:
            print(f"{name}: {err}")
            return 1
        if any(fnmatch.fnmatch(name, g) for g in globs):
            differed += 1
            print(f"{name}: expected to differ: "
                  + (f"{len(diffs)} keys differ, first {diffs[0]}"
                     if diffs else "identical"))
        elif diffs:
            print(f"{name}: {diffs[0]}")
            return 1
    print(f"{len(names_a) - differed} runs match, {differed} expected "
          f"to differ (sim.host.* ignored)" if globs else
          f"{len(names_a)} runs match (sim.host.* ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
