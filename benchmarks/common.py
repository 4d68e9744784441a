"""Paths, the checkout's reflexa, and the answer digests the goldens hold."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
WORK = ROOT / ".bench_run"
SPANS = WORK / "spans"
CORPUS_GOLDEN = GOLDEN / "corpus_report.json"
QUERIES_GOLDEN = GOLDEN / "queries.json"


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources, no goldens)."""


def use_checkout_src():
    """Import reflexa from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "reflexa" / "__init__.py").is_file():
        raise SetupError(f"no reflexa sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import reflexa

    if Path(reflexa.__file__).resolve().parent != SRC / "reflexa":
        raise SetupError(f"reflexa imported from {reflexa.__file__}, not from {SRC}")
    return reflexa


def child_env():
    """Environment for child interpreters: the checkout's `src/` first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.pop("REFLEXA_BUDGET", None)  # the goldens use the default budgets
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_query(cli, path) -> tuple:
    """One workspace document through the public CLI: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["-w", str(path), "run"])
    return code, buf.getvalue()


def answer_digest(code: int, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:20]


def has_error_payload(text: str) -> bool:
    try:
        payload = json.loads(text)
    except ValueError:
        return True
    return any("error" in job for job in payload.get("jobs", [])) or "error" in payload


def canonical(block) -> str:
    return json.dumps(block, sort_keys=True)


def corpus_tasks() -> list:
    """The corpus tasks, (kind, name), in the order the report lists their blocks."""
    from reflexa import corpus

    return [tuple(t) for t in corpus.corpus_tasks()]


def report_blocks(report: dict) -> dict:
    """Report blocks keyed by the corpus task that produced them."""
    return dict(zip(corpus_tasks(), report["algebras"] + report["criteria"]))
