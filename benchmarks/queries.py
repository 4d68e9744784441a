"""Seeded stream of one-job workspace documents over Nakayama algebras.

A query is one workspace document holding one algebra, at most one module
and one job.  The algebra is a Nakayama algebra: a linear (A_n) or cyclic
quiver with 1 to 7 vertices in which every path of one length (2 to 4) is
killed.  Their projectives are uniserial, so every resolution term stays
small; random monomial algebras can make `check-conditions` allocate
matrices of many thousand rows, which this stream must not time.

Fields rotate over Q, F_3, F_32003 and F_2147483647, so the stream runs
Fraction arithmetic, the int64 numpy path (small p) and the Python path
(large p).  F_2, which the acceptance corpus covers, is never used.
Jobs rotate over `check-conditions`, `invariants` of a simple and the
injective resolution of a simple.

One pass of the stream is every (shape, field, job) triple once: 42
shapes x 4 fields x 3 jobs = 504 documents, so every seed asks for the
same amount of algebra work (random shapes made the pass time of two
seeds differ by a quarter).  The seed decides which simple each
(shape, job) pair asks about for each field, and the order of the pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FIELDS = ("Q", "F3", "F32003", "F2147483647")
KINDS = ("check-conditions", "invariants", "resolve")
VERTICES = range(1, 8)
LENGTHS = (2, 3, 4)
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Query:
    cyclic: bool
    vertices: int
    length: int
    field: str
    kind: str
    vertex: int  # the simple's vertex; 0 for check-conditions

    @property
    def key(self) -> str:
        shape = f"{'C' if self.cyclic else 'L'}{self.vertices}r{self.length}"
        return f"{shape}/{self.field}/{self.kind}/{self.vertex}"

    def arrows(self):
        n = self.vertices
        count = n if self.cyclic else n - 1
        return [(f"a{i}", i, (i + 1) % n) for i in range(count)]

    def relations(self):
        """Every path of length `length`, as arrow names in path order."""
        n, ell = self.vertices, self.length
        out = []
        for start in range(n):
            if not self.cyclic and start + ell > n - 1:
                continue
            out.append([f"a{(start + k) % n}" for k in range(ell)])
        return out

    def document(self) -> dict:
        algebra = {
            "field": self.field,
            "quiver": {
                "vertices": self.vertices,
                "arrows": [{"name": a, "src": s, "dst": t} for a, s, t in self.arrows()],
            },
            "relations": self.relations(),
        }
        doc = {"algebras": {"N": algebra}, "modules": {}, "jobs": []}
        if self.kind == "check-conditions":
            doc["jobs"].append(
                {"command": "check-conditions", "algebra": "N", "ln": [[1, 2], [2, 2]], "cap": 4}
            )
            return doc
        doc["modules"]["S"] = {
            "algebra": "N",
            "side": "left",
            "dims": {str(self.vertex): 1},
            "actions": {},
        }
        if self.kind == "invariants":
            doc["jobs"].append({"command": "invariants", "module": "S", "cap": 4})
        else:
            doc["jobs"].append(
                {"command": "resolve", "module": "S", "injective": True, "degree": 4}
            )
        return doc


def shapes():
    """The shape pool: (cyclic, vertices, length), 42 entries."""
    return [(c, n, ell) for c in (False, True) for n in VERTICES for ell in LENGTHS]


def all_queries():
    """Every query any seed can produce (the golden table covers these)."""
    out = []
    for cyclic, n, ell in shapes():
        for fld in FIELDS:
            out.append(Query(cyclic, n, ell, fld, "check-conditions", 0))
            for kind in KINDS[1:]:
                for v in range(n):
                    out.append(Query(cyclic, n, ell, fld, kind, v))
    return out


def stream(seed: int):
    """One pass: the 504 queries of `seed`, in seeded order.

    For each (shape, job) pair the four fields ask about the simples at
    the first four vertices of a seeded permutation of the quiver's
    vertices (repeating when there are fewer than four).
    """
    rng = random.Random(seed)
    out = []
    for cyclic, n, ell in shapes():
        for kind in KINDS:
            perm = list(range(n))
            rng.shuffle(perm)
            for i, fld in enumerate(FIELDS):
                vertex = 0 if kind == "check-conditions" else perm[i % n]
                out.append(Query(cyclic, n, ell, fld, kind, vertex))
    rng.shuffle(out)
    return out


def write_documents(qs, directory):
    """Put each query's document in `directory`; returns (query, path) pairs.

    A document is named after its query key, which determines its content,
    so a file written by an earlier run is reused as it is: truncating or
    deleting files is slow on some file systems, creating them is not.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for q in qs:
        path = directory / (q.key.replace("/", "_") + ".json")
        text = json.dumps(q.document())
        if not path.is_file() or path.read_text() != text:
            path.write_text(text)
        out.append((q, path))
    return out
