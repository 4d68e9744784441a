"""One set-up of a workload in a fresh process; prints its duration in seconds.

    python benchmarks/setup_probe.py corpus|queries SEED WORKDIR

Times importing reflexa from the checkout and building the workload's
inputs: the 13 corpus algebras through `corpus.build_algebra`, or the
seeded query documents, written to WORKDIR.  Interpreter start-up is not
reflexa's set-up and is left out.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import common  # noqa: E402
import queries  # noqa: E402


def main(argv):
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    common.use_checkout_src()
    import reflexa.cli  # noqa: F401  (the queries call reflexa through the CLI)
    from reflexa import corpus

    if workload == "corpus":
        for name in corpus.corpus_names():
            corpus.build_algebra(name)
    else:
        queries.write_documents(queries.stream(seed), workdir)
    print(time.perf_counter() - T0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
