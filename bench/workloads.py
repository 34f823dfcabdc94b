"""The benchmark's workloads: which matroid files, which commands, what order.

A workload is a fixed set of jobs; each job is one ``matvol`` command line
on one input file.  The seed draws the random graphic matroids and the job
order; the uniform ladder is the same for every seed.  ``verify`` runs on
the program's own catalog, so its inputs are written by the worker after
``full_catalog`` and only its order comes from here.

Why these three:

* ``decompose`` is bound by the rank memo fills of ``Matroid.rank`` (every
  basis scanned for every subset), with ``from_bases`` validation on the
  ``bases:`` files and ``coconnected_flats`` in ``invariants``; it runs no
  volume engine and no oracle.
* ``volume`` is bound by the tuple-sum engine, the weak-bound independent
  volumes in particular; rank work is small.  Graphic inputs run at
  ``--threads 1`` and ``--threads 2`` so the thread pool's effect shows.
* ``verify`` is bound by the geometry oracle (hull facets and volumes) over
  many tiny matroids, and reaches the matroid layer through ``truncate`` and
  greedy rank queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import inputs

VERIFY_CATALOG_MAX_N = 5


@dataclass(frozen=True)
class Job:
    command: str          # decompose | volume | invariants | verify
    input: str            # Input.name, or the catalog file for verify
    polytope: str | None = None
    threads: int | None = None

    def argv(self, path: str) -> list[str]:
        out = [self.command, path]
        if self.polytope is not None:
            out += ["--polytope", self.polytope]
        if self.threads is not None:
            out += ["--threads", str(self.threads)]
        return out


@dataclass(frozen=True)
class Plan:
    inputs: dict[str, inputs.Input]
    jobs: list[Job]
    catalog_max_n: int | None = None  # verify: the worker builds the inputs


POLYTOPES = ("base", "indep", "flag")


def decompose(seed: int) -> Plan:
    """U(2, n), U(3, n) and random graphic matroids for n = 9..13 edges,
    on 4..7 vertices up to n = 11 and on 3..5 vertices above, where a rank
    table (every basis scanned for each of the 2^n subsets) gets dear.

    Each matroid is decomposed for all three polytopes; ``invariants`` runs
    for n <= 11, where its 2^n contractions stay within a few hundred
    milliseconds.
    Graphic inputs alternate between ``graph:`` and ``bases:`` files.
    """
    rng = random.Random(f"decompose:{seed}")
    found: list[inputs.Input] = []
    shapes = {9: (4, 5, 6, 7), 10: (4, 5, 6, 7), 11: (4, 5, 6, 7), 12: (3, 4, 5), 13: (3, 4, 5)}
    for n, vertex_counts in shapes.items():
        found += [inputs.uniform_input(2, n), inputs.uniform_input(3, n)]
        for vertices in vertex_counts:
            graph, bases = inputs.pick_graph(rng, vertices, n, connected=False)
            if (n + vertices) % 2:
                text = inputs.bases_text(n, bases)
            else:
                text = inputs.graph_text(graph)
            found.append(inputs.Input(f"G{n}_{vertices}", text, n, bases))
    jobs = []
    for item in found:
        jobs += [Job("decompose", item.name, p) for p in POLYTOPES]
        if item.n <= 11:
            jobs.append(Job("invariants", item.name))
    rng.shuffle(jobs)
    return Plan({i.name: i for i in found}, jobs)


def volume(seed: int) -> Plan:
    """Uniform ladder n = 3..7 plus connected random graphic matroids with
    4..7 edges: base volumes for n <= 7, independent for n <= 6, flag for
    n <= 6 (uniform) and n <= 5 (graphic, where the hull oracle checks it).

    U(5, 6) independent is left out: its weak-bound tuple sum alone takes
    about 50 s, longer than a whole run may take.
    """
    rng = random.Random(f"volume:{seed}")
    found: dict[str, inputs.Input] = {}
    jobs: list[Job] = []
    for n in range(3, 8):
        for k in range(1, n):
            item = inputs.uniform_input(k, n)
            found[item.name] = item
            jobs.append(Job("volume", item.name, "base", 1))
            if n <= 6 and (k, n) != (5, 6):
                jobs.append(Job("volume", item.name, "indep", 1))
            if n <= 6:
                jobs.append(Job("volume", item.name, "flag", 1))
    shapes = {4: (3,), 5: (3, 4), 6: (3, 4, 5), 7: (4, 5, 6)}
    for n, vertex_counts in shapes.items():
        for vertices in vertex_counts:
            for copy in range(2):
                graph, bases = inputs.pick_graph(rng, vertices, n, connected=True)
                name = f"G{n}_{vertices}_{copy}"
                found[name] = inputs.Input(name, inputs.graph_text(graph), n, bases)
                polytopes = ["base"] + (["indep"] if n <= 6 else []) + (["flag"] if n <= 5 else [])
                jobs += [Job("volume", name, p, t) for p in polytopes for t in (1, 2)]
    rng.shuffle(jobs)
    return Plan(found, jobs)


def verify(seed: int) -> Plan:
    """``verify <file>`` for every entry of ``full_catalog(5)``; the worker
    writes the files, in an order it draws from this seed."""
    return Plan({}, [], catalog_max_n=VERIFY_CATALOG_MAX_N)


WORKLOADS = {"decompose": decompose, "volume": volume, "verify": verify}
