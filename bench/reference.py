"""The exact stdout every job must print, computed by independent routes.

Each job's expected output is built here in full, header included, and
compared with the sha256 of every output the job printed, so one check
covers the report format, the byte-stability of repeated runs and the
``--threads 1``/``--threads 2`` pairs (both must equal the same text).

Routes, none of them the one the job takes:

* ``decompose``: the profile inversions ``y_from_z_gp`` / ``y_from_z_q`` of
  rank profiles from the benchmark's own rank table (the program reads
  signed beta/gamma contraction tables instead); ``flag`` is the sum of the
  base decompositions of all truncations.
* ``invariants``: the benchmark's own Tutte expansion, a rank-sum gamma and
  the beta-table support, all from its own rank table.  beta is taken as
  the Tutte coefficient b[1,0] (Crapo), not from the alternating rank sum.
* ``volume``: closed forms on the uniform ladder (Eulerian numbers for base
  and independent volumes, Postnikov's permutohedron formula for flags) and
  the geometry oracle ``volume_exact`` on graphic matroids.
* ``verify``: ``OK (k checks)`` with k = 3, or 2 when the matroid has a loop
  and the flag check does not apply.
"""

from __future__ import annotations

import hashlib

import inputs


def _subset(mask: int) -> str:
    return "{" + ",".join(str(e + 1) for e in range(mask.bit_length()) if mask >> e & 1) + "}"


def _by_size(masks):
    return sorted(masks, key=lambda a: (a.bit_count(), a))


class References:
    """Expected outputs, cached per input; ``mv`` is the imported matvol."""

    def __init__(self, mv):
        self.mv = mv
        self._ranks: dict[str, list[int]] = {}

    def ranks(self, item: inputs.Input) -> list[int]:
        if item.name not in self._ranks:
            self._ranks[item.name] = inputs.rank_table(item.n, item.bases)
        return self._ranks[item.name]

    def expected(self, command: str, polytope: str | None, item: inputs.Input, data: bytes) -> str:
        header = f"# command: {command}" + (f" --polytope {polytope}" if polytope else "")
        lines = [header, f"# input: sha256:{hashlib.sha256(data).hexdigest()}"]
        if command == "decompose":
            lines += self._decomposition(polytope, item)
        elif command == "invariants":
            lines += self._invariants(item)
        elif command == "volume":
            lines.append(f"volume = {self._volume(polytope, item)}")
        elif command == "verify":
            lines.append(f"OK ({2 if inputs.has_loops(item.n, item.bases) else 3} checks)")
        else:
            raise ValueError(f"no reference for command {command!r}")
        return "\n".join(lines) + "\n"

    def _decomposition(self, polytope: str, item: inputs.Input) -> list[str]:
        mv = self.mv
        n, ranks = item.n, self.ranks(item)
        full = (1 << n) - 1
        r = ranks[full]
        if polytope == "indep":
            d = mv.y_from_z_q(mv.ZProfile(n, mv.KIND_Q, tuple(ranks)))
            family, coeffs = d.family, dict(d.coeffs)
        else:
            levels = range(1, r + 1) if polytope == "flag" else [r]
            coeffs = {}
            for i in levels:
                z = tuple(i - min(ranks[full ^ s], i) for s in range(1 << n))
                d = mv.y_from_z_gp(mv.ZProfile(n, mv.KIND_GP, z))
                for mask, c in d.coeffs.items():
                    coeffs[mask] = coeffs.get(mask, 0) + c
            family = mv.FAMILY_DELTA
        return [f"family: {family}"] + [
            f"y[{_subset(mask)}] = {coeffs[mask]}" for mask in _by_size(coeffs) if coeffs[mask]
        ]

    def _invariants(self, item: inputs.Input) -> list[str]:
        n, ranks = item.n, self.ranks(item)
        r = ranks[-1]
        tutte = inputs.tutte_coefficients(n, ranks)
        beta = tutte.get((1, 0), 0)
        gamma = inputs.gamma_rank_sum(n, ranks)
        connected = inputs.is_connected(n, ranks)
        flats = " ".join(_subset(a) for a in inputs.beta_support(n, ranks))
        return (
            [f"n = {n}", f"rank = {r}", f"bases = {len(item.bases)}",
             f"connected = {'true' if connected else 'false'}"]
            + [f"tutte b[{i},{j}] = {c}" for (i, j), c in sorted(tutte.items())]
            + [f"beta = {beta}", f"signed_beta = {-beta if r % 2 == 0 else beta}",
               f"gamma = {gamma}", f"signed_gamma = {gamma if r % 2 == 0 else -gamma}",
               f"coconnected_flats = {flats}"]
        )

    def _volume(self, polytope: str, item: inputs.Input):
        if item.uniform is not None:
            k, n = item.uniform
            closed_form = {
                "base": inputs.uniform_base_volume,
                "indep": inputs.uniform_indep_volume,
                "flag": inputs.uniform_flag_volume,
            }[polytope]
            return closed_form(k, n)
        mv = self.mv
        m = mv.from_bases(item.n, item.bases, validate=False)
        vertices, frame = {
            "base": (mv.vertices_base, mv.LatticeFrame.ROOT),
            "indep": (mv.vertices_indep, mv.LatticeFrame.STANDARD),
            "flag": (mv.vertices_flag, mv.LatticeFrame.ROOT),
        }[polytope]
        return mv.volume_exact(vertices(m), frame)


def parse_matroid_file(name: str, text: str) -> inputs.Input:
    """The ``n:`` plus ``bases:`` or ``uniform: 0 <n>`` files that
    ``serialize_matroid`` writes for the catalog."""
    fields = dict(line.split(":", 1) for line in text.splitlines() if line.strip())
    n = int(fields["n"])
    if "uniform" in fields:
        k, _ = map(int, fields["uniform"].split())
        return inputs.uniform_input(k, n)
    bases = tuple(
        sum(1 << (int(e) - 1) for e in token.split(",")) for token in fields["bases"].split()
    )
    return inputs.Input(name, text, n, bases)
