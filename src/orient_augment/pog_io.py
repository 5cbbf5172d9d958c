"""File formats, random instance generation, and DOT export.

The ``.pog`` text format::

    pog <mode> <n> <m>
    a <id> <tail> <head>          one line per arc, in id order
    r <v> <end_1> ... <end_d>     clockwise arc ends, token "<arc>+"/"<arc>-"

Faces are never serialized; they are re-traced on parse.  Writing a parsed
file reproduces it byte for byte when the file was in canonical order.
"""

from __future__ import annotations

import json
import random
from typing import Optional

from . import plane_graph as pg
from .errors import (DuplicateArcEnd, InfeasibleParameters,
                     ModeViolation, NonSphericalEmbedding, ParseError)


def write_pog(D: pg.PlaneDigraph) -> str:
    lines = [f"pog {D.mode} {D.n} {D.m}"]
    for a, (u, v) in enumerate(D.arcs):
        lines.append(f"a {a} {u} {v}")
    for v in range(D.n):
        toks = [
            f"{d >> 1}{'+' if (d & 1) == 0 else '-'}" for d in D.rotation[v]
        ]
        lines.append(" ".join(["r", str(v)] + toks))
    return "\n".join(lines) + "\n"


def parse_pog(text: str) -> pg.PlaneDigraph:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "pog":
        raise ParseError("line 1: expected 'pog <mode> <n> <m>'")
    mode = head[1]
    if mode not in pg.MODES:
        raise ParseError(f"line 1: unknown mode {mode!r}")
    try:
        n, m = int(head[2]), int(head[3])
    except ValueError as exc:
        raise ParseError(f"line 1: bad counts: {exc}") from exc
    if n < 0 or m < 0:
        raise ParseError(f"line 1: negative count in {lines[0]!r}")
    if n + m >= len(lines):  # one line per arc and per vertex
        raise ParseError(f"line 1: {n} vertices and {m} arcs need {n + m} "
                         f"lines, but {len(lines) - 1} follow")
    arcs: list[Optional[tuple[int, int]]] = [None] * m
    rotation: list[Optional[tuple[int, ...]]] = [None] * n
    seen_ends: set[int] = set()
    sign, nd = {"+": 0, "-": 1}, 2 * m
    for ln, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts or raw[0] == "#":
            continue
        if parts[0] == "a":
            try:
                _, a, u, v = parts
                a, u, v = int(a), int(u), int(v)
            except ValueError as exc:
                if len(parts) != 4:
                    raise ParseError(
                        f"line {ln}: expected 'a <id> <tail> <head>'") from None
                raise ParseError(f"line {ln}: non-integer id: {exc}") from exc
            if not 0 <= a < m or arcs[a] is not None:
                raise ParseError(f"line {ln}: bad or repeated arc id {a}")
            if not (0 <= u < n and 0 <= v < n):
                col, x = (3, u) if not 0 <= u < n else (4, v)
                raise ParseError(
                    f"line {ln}, field {col}: vertex {x} not in 0..{n - 1}")
            arcs[a] = (u, v)
        elif parts[0] == "r":
            try:
                v = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise ParseError(f"line {ln}: expected 'r <v> <ends>'") from exc
            if not 0 <= v < n or rotation[v] is not None:
                raise ParseError(f"line {ln}: bad or repeated vertex {v}")
            ring = []
            for tok in parts[2:]:  # field 3 + len(ring)
                try:
                    d = 2 * int(tok[:-1]) + sign[tok[-1]]
                except (KeyError, ValueError) as exc:
                    raise ParseError(f"line {ln}: bad end token {tok!r}") from exc
                if not 0 <= d < nd or d in seen_ends:
                    why = (f"arc end {tok} repeated" if 0 <= d < nd
                           else f"arc {d >> 1} not in 0..{m - 1}")
                    raise ParseError(f"line {ln}, field {3 + len(ring)}: {why}")
                seen_ends.add(d)
                ring.append(d)
            rotation[v] = tuple(ring)
        else:
            raise ParseError(f"line {ln}: unknown record {parts[0]!r}")
    if None in arcs:
        raise ParseError(f"line 1, field 4: missing arc lines for ids "
                         f"{[a for a, uv in enumerate(arcs) if uv is None]}")
    rotation = [r if r is not None else () for r in rotation]
    try:
        return pg.build(n, arcs, rotation, mode=mode)
    except (DuplicateArcEnd, ModeViolation, NonSphericalEmbedding) as exc:
        where = _where(lines, arcs, rotation, mode, exc)
        raise type(exc)(f"{where}: {exc}") from None


def _where(lines: list[str], arcs: list, rotation: list, mode: str,
           exc: Exception) -> str:
    """``line N[, field F]`` of the record that ``build`` rejected."""
    at = {(p[0], int(p[1])): ln
          for ln, p in enumerate(map(str.split, lines), start=1)
          if p[:1] in (["a"], ["r"])}
    if isinstance(exc, NonSphericalEmbedding):  # the rings as a whole
        return f"line {min(ln for (tag, _), ln in at.items() if tag == 'r')}"
    if isinstance(exc, ModeViolation):  # the first arc breaking the mode
        earlier: set[tuple[int, int]] = set()
        for a, (u, v) in enumerate(arcs):
            if u == v or (u, v) in earlier or (
                    mode == pg.MODE_ORIENTED and (v, u) in earlier):
                return f"line {at['a', a]}"
            earlier.add((u, v))
    for v, ring in enumerate(rotation):  # an end listed at another vertex
        for col, d in enumerate(ring, start=3):
            if arcs[d >> 1][d & 1] != v:
                return f"line {at['r', v]}, field {col}"
    d = min(set(range(2 * len(arcs))).difference(*rotation))  # in no ring
    return f"line {at['a', d >> 1]}, field {3 + (d & 1)}"


# ---------------------------------------------------------------------------
# witness serialization
# ---------------------------------------------------------------------------


def witness_arcs(completion: pg.Completion) -> list[dict]:
    """The arcs as witness records: face, and vertex and position of each
    end."""
    return [
        {
            "face": a.face,
            "tail": {"vertex": a.tail.vertex, "position": a.tail.position},
            "head": {"vertex": a.head.vertex, "position": a.head.position},
        }
        for a in completion.arcs
    ]


def completion_to_json(completion: pg.Completion) -> str:
    return json.dumps({"arcs": witness_arcs(completion)}, indent=2,
                      sort_keys=True) + "\n"


def _witness_int(rec, key: str, where: str) -> int:
    value = rec.get(key) if isinstance(rec, dict) else None
    if type(value) is not int:
        raise ParseError(f"witness {where}: needs an integer {key!r}")
    return value


def completion_from_json(D: pg.PlaneDigraph, text: str) -> pg.Completion:
    """Inverse of ``completion_to_json``; arcs are read by face and
    boundary position, the vertices are ignored.  Any other shape raises
    ``ParseError``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad witness JSON: {exc}") from exc
    arcs = data.get("arcs") if isinstance(data, dict) else None
    if not isinstance(arcs, list):
        raise ParseError("witness JSON must be an object with an 'arcs' list")
    pairs = []
    for i, rec in enumerate(arcs):
        face = _witness_int(rec, "face", f"arc {i}")
        if not 0 <= face < D.f:
            raise ParseError(f"witness references missing face {face}")
        walk = D.faces[face]
        pt = _witness_int(rec.get("tail"), "position", f"arc {i} tail")
        ph = _witness_int(rec.get("head"), "position", f"arc {i} head")
        if not (0 <= pt < len(walk) and 0 <= ph < len(walk)):
            raise ParseError(f"witness position out of range in face {face}")
        pairs.append((walk[pt], walk[ph]))
    return D.completion_from_darts(pairs)


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------


def gen_random(
    n: int, m: int, seed: int, mode: str = pg.MODE_ORIENTED,
    acyclic: bool = False,
) -> pg.PlaneDigraph:
    """Random connected plane graph: a random plane tree grown vertex by
    vertex, then random face chords inserted one at a time.  Deterministic
    per seed.  With ``acyclic=True`` arcs are oriented along a fixed vertex
    order, yielding a plane DAG."""
    if n < 1 or m < n - 1 or (n >= 3 and m > 3 * n - 6) or (n < 3 and m > n - 1):
        raise InfeasibleParameters(f"no plane graph with n={n}, m={m}")
    rng = random.Random(seed)
    order = list(range(n))

    def orient(u: int, v: int) -> tuple[int, int]:
        if acyclic:
            return (u, v) if order[u] < order[v] else (v, u)
        return (u, v) if rng.random() < 0.5 else (v, u)

    D = pg.build(1, [], [()], mode=pg.MODE_MULTI)
    for w in range(1, n):
        anchor = rng.randrange(w)
        # pick a random angle at the anchor vertex
        spots = [
            d
            for f in range(D.f)
            for d in D.faces[f]
            if D.dart_vertex(d) == anchor
        ]
        arcs = list(D.arcs)
        rotation = [list(r) for r in D.rotation] + [[]]
        u, v = orient(anchor, w)
        aid = len(arcs)
        arcs.append((u, v))
        end_anchor = 2 * aid + (0 if u == anchor else 1)
        end_new = 2 * aid + (1 if u == anchor else 0)
        if spots:
            at = rng.choice(spots)
            ring = rotation[anchor]
            ring.insert(ring.index(at), end_anchor)
        else:
            rotation[anchor].append(end_anchor)
        rotation[w].append(end_new)
        D = pg.build(w + 1, arcs, [tuple(r) for r in rotation],
                     mode=pg.MODE_MULTI)

    tries = 0
    while D.m < m:
        tries += 1
        if tries > 4000 * m + 400:
            raise InfeasibleParameters(
                f"could not place {m} arcs at n={n} under mode {mode}"
            )
        f = rng.randrange(D.f)
        walk = D.faces[f]
        if len(walk) < 2:
            continue
        i, j = rng.randrange(len(walk)), rng.randrange(len(walk))
        if i == j:
            continue
        a = D.dart_vertex(walk[i])
        b = D.dart_vertex(walk[j])
        if a == b:
            continue
        if mode == pg.MODE_ORIENTED and D.underlying_adjacent(a, b):
            continue
        u, v = orient(a, b)
        if mode == pg.MODE_DIRECTED and D.has_arc(u, v):
            continue
        dt = walk[i] if u == a else walk[j]
        dh = walk[j] if u == a else walk[i]
        D = pg.insert_arcs(D, [(dt, dh)], mode=pg.MODE_MULTI)

    return pg.build(D.n, D.arcs, D.rotation, mode=mode)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def export_dot(
    D: pg.PlaneDigraph, completion: Optional[pg.Completion] = None
) -> str:
    """Graphviz text with solution arcs styled distinctly and face walks
    listed as comments; deterministic output."""
    lines = ["digraph plane {"]
    for f in range(D.f):
        verts = " ".join(str(v) for v in D.face_vertices(f))
        lines.append(f"  // face {f}: {verts}")
    for v in range(D.n):
        lines.append(f"  {v};")
    for u, v in D.arcs:
        lines.append(f"  {u} -> {v};")
    if completion is not None:
        for a in completion.arcs:
            u, v = a.ends
            lines.append(
                f'  {u} -> {v} [style=bold, color=blue, label="f{a.face}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
