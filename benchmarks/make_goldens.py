"""Regenerate the goldens the benchmark checks answers against.

    python benchmarks/make_goldens.py

Run this only when a change to reflexa's answers is intended, and say so
with the change: the benchmark counts every answer that differs from a
golden as a failed operation.

- golden/corpus_report.json: the bytes `reflexa corpus run` prints, and
  golden/corpus_exit.json its exit code.
- golden/queries.json: for every query any seed can produce
  (`queries.all_queries`, 1512 documents), the digest of its exit code
  and output.
"""

from __future__ import annotations

import json
import subprocess
import sys

import common
import queries


def corpus():
    proc = subprocess.run(
        [sys.executable, "-m", "reflexa.cli", "corpus", "run", "--workers", str(common.nproc())],
        cwd=common.ROOT,
        env=common.child_env(),
        stdout=subprocess.PIPE,
        check=False,
    )
    common.CORPUS_GOLDEN.write_bytes(proc.stdout)
    (common.GOLDEN / "corpus_exit.json").write_text(json.dumps({"exit": proc.returncode}) + "\n")
    print(f"corpus: exit {proc.returncode}, {len(proc.stdout)} bytes")


def query_table():
    common.use_checkout_src()
    from reflexa import cli

    table = {}
    for q, path in queries.write_documents(queries.all_queries(), common.WORK / "docs"):
        code, text = common.run_query(cli, path)
        if common.has_error_payload(text):
            raise SystemExit(f"query {q.key} returned an error payload: {text}")
        table[q.key] = common.answer_digest(code, text)
    common.QUERIES_GOLDEN.write_text(json.dumps(table, sort_keys=True, indent=0) + "\n")
    print(f"queries: {len(table)} digests")


def main():
    common.GOLDEN.mkdir(exist_ok=True)
    corpus()
    query_table()


if __name__ == "__main__":
    main()
