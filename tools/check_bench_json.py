#!/usr/bin/env python3
"""Checks that figure-bench artifacts have the one output shape. Stdlib only.

    check_bench_json.py BENCH_x.json [BENCH_y.json ...]
        Validates each file; exits 1 if any is malformed.

    check_bench_json.py --smoke BIN_DIR
        Runs five figure benches from BIN_DIR at small sizes in a fresh
        temporary directory and validates what each writes (the
        bench_json_shape ctest). The two tallies over a file-backed ledger
        run at segment sizes where their pinned-bytes bound is below their
        ballot log, so their O(segment) check can fail.

The shape, written by bench/figure_bench.h:

    {"bench": name, "host": {...}, "config": {...},
     "tables": {"table": [row, ...], ...}, "checks": {"check": bool, ...}}

The file is named BENCH_<bench>.json; host holds exactly the fields in HOST;
config values and table cells are numbers, strings or booleans; every row
of a table has the keys of its first row, in order; every check passed.
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TOP = ["bench", "host", "config", "tables", "checks"]
HOST = {
    "nproc": int,
    "cpu_model": str,
    "avx2": bool,
    "avx512ifma": bool,
    "sha_ni": bool,
    "ndebug": bool,
    "optimized": bool,
    "compiler": str,
    "git_head": str,
}
GIT_HEAD = re.compile(r"([0-9a-f]{40}(-dirty)?|unknown)")

SMOKE = [
    ("dleq_fs", ["fig_dleq_fs", "--n", "16"]),
    ("ledger", ["fig_ledger_stream", "--entries", "512", "--threads", "2"]),
    ("replication", ["fig_replication", "--segment", "64"]),
    ("revote", ["fig_revote", "--ballots", "512", "--tally", "64", "--threads", "1,2",
                "--segment", "4"]),
    ("stream_tally", ["fig_stream_tally", "--ballots", "128", "--threads", "1,2",
                      "--segment", "8"]),
]


def unique_keys(pairs):
    keys = [key for key, _ in pairs]
    duplicates = sorted({key for key in keys if keys.count(key) > 1})
    if duplicates:
        raise ValueError(f"duplicate keys {duplicates}")
    return dict(pairs)


def reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def is_flat(value):
    return isinstance(value, (bool, int, float, str))


def check_flat_object(obj, where, errors):
    if not isinstance(obj, dict):
        errors.append(f"{where} is not an object")
        return
    for key, value in obj.items():
        if not is_flat(value):
            errors.append(f"{where}.{key} is not a number, string or boolean")


def check_document(doc, path):
    """Returns the list of ways `doc`, read from `path`, misses the shape."""
    if not isinstance(doc, dict) or list(doc) != TOP:
        return [f"top-level keys must be exactly {TOP}"]
    errors = []
    bench = doc["bench"]
    if not isinstance(bench, str) or not bench:
        errors.append("bench is not a non-empty string")
    elif path.name != f"BENCH_{bench}.json":
        errors.append(f"bench {bench!r} does not match the file name {path.name}")

    host = doc["host"]
    if not isinstance(host, dict) or sorted(host) != sorted(HOST):
        errors.append(f"host keys must be exactly {sorted(HOST)}")
    else:
        for key, kind in HOST.items():
            value = host[key]
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                errors.append(f"host.{key} is not a {kind.__name__}")
        if isinstance(host["nproc"], int) and host["nproc"] < 1:
            errors.append("host.nproc is not positive")
        if isinstance(host["git_head"], str) and not GIT_HEAD.fullmatch(host["git_head"]):
            errors.append("host.git_head is not a commit id or 'unknown'")

    check_flat_object(doc["config"], "config", errors)

    tables = doc["tables"]
    if not isinstance(tables, dict) or not tables:
        errors.append("tables is not a non-empty object")
    else:
        for name, rows in tables.items():
            if not isinstance(rows, list) or not rows:
                errors.append(f"tables.{name} is not a non-empty list")
                continue
            first = list(rows[0]) if isinstance(rows[0], dict) else None
            for i, row in enumerate(rows):
                where = f"tables.{name}[{i}]"
                check_flat_object(row, where, errors)
                if isinstance(row, dict) and list(row) != first:
                    errors.append(f"{where} keys differ from the first row's")

    checks = doc["checks"]
    if not isinstance(checks, dict):
        errors.append("checks is not an object")
    else:
        for name, ok in checks.items():
            if not isinstance(ok, bool):
                errors.append(f"checks.{name} is not a boolean")
            elif not ok:
                errors.append(f"check {name} failed")
    return errors


def check_file(path):
    try:
        doc = json.loads(path.read_text(), object_pairs_hook=unique_keys,
                         parse_constant=reject_constant)
    except (OSError, ValueError) as error:
        return [str(error)]
    return check_document(doc, path)


def report(path, errors):
    for error in errors:
        print(f"{path}: {error}")
    if not errors:
        print(f"{path}: ok")
    return not errors


def smoke(bin_dir):
    ok = True
    with tempfile.TemporaryDirectory(prefix="votegral-bench-json-") as scratch:
        for name, command in SMOKE:
            binary = Path(bin_dir) / command[0]
            run = subprocess.run([str(binary), *command[1:]], cwd=scratch,
                                 stdout=subprocess.DEVNULL)
            if run.returncode != 0:
                print(f"{' '.join(command)}: exit {run.returncode}")
                ok = False
                continue
            path = Path(scratch) / f"BENCH_{name}.json"
            ok = report(path.name, check_file(path)) and ok
    return ok


def main(argv):
    if len(argv) == 2 and argv[0] == "--smoke":
        return 0 if smoke(argv[1]) else 1
    if not argv or argv[0].startswith("--"):
        print("usage: check_bench_json.py BENCH_x.json ... | --smoke BIN_DIR", file=sys.stderr)
        return 2
    results = [report(arg, check_file(Path(arg))) for arg in argv]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
