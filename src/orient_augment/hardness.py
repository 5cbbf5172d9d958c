"""Hard-instance generator: planar 3-SAT formulas to augmentability
instances.

Each variable becomes a ring of literal gadgets (an alternating octagon
with twin vertices and one internal chord per literal); each clause
becomes a 15-vertex inner-triangulated gadget whose central source
triangle is identified with one top source per involved literal.  A
satisfying assignment corresponds to completing every variable ring
positively or negatively, which joins everything into one strongly
connected graph; conversely any valid augmentation forces such a
completion and reads back a satisfying assignment.

Gadgets are laid out with explicit coordinates and rotations derived by
clockwise bearing sort; gadget-to-gadget identifications splice the two
rotation fans at the glued vertex, each opened at its outward-facing gap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import plane_graph as pg
from .errors import (
    AssignmentDoesNotSatisfy,
    EmbeddingConflict,
    InvalidArity,
    ParseError,
)


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanarCnf:
    """A 3-CNF with a fixed plane embedding of its incidence graph.

    ``clauses[j]`` is an ordered triple of (variable, polarity) pairs, the
    order being the clockwise order of the variables around the clause;
    ``rotv[x]`` lists the clause indices around variable ``x`` clockwise.
    """

    n_vars: int
    clauses: tuple[tuple[tuple[int, bool], ...], ...]
    rotv: tuple[tuple[int, ...], ...]

    def occurrences(self, x: int) -> list[tuple[int, bool]]:
        """(clause, polarity) pairs of x in clockwise ring order."""
        out = []
        for j in self.rotv[x]:
            for (var, pol) in self.clauses[j]:
                if var == x:
                    out.append((j, pol))
        return out

    def validate(self) -> None:
        if any(len(c) != 3 for c in self.clauses):
            raise EmbeddingConflict("every clause needs exactly 3 literals")
        for c in self.clauses:
            if len({v for v, _ in c}) != 3:
                raise EmbeddingConflict("clause variables must be distinct")
        for x in range(self.n_vars):
            mentioned = sorted(
                j for j, c in enumerate(self.clauses) if any(v == x for v, _ in c)
            )
            if sorted(self.rotv[x]) != mentioned:
                raise EmbeddingConflict(
                    f"rotation of variable {x} does not list its clauses"
                )
        incidence_embeds(self)  # raises EmbeddingConflict when non-planar


def incidence_embeds(phi: PlanarCnf) -> None:
    """Check that the given rotations embed the incidence graph on the
    sphere (connected, Euler characteristic 2)."""
    nv, nc = phi.n_vars, len(phi.clauses)
    edges = []  # (variable, clause) with ids
    edge_id = {}
    for j, clause in enumerate(phi.clauses):
        for (x, _pol) in clause:
            edge_id[(x, j)] = len(edges)
            edges.append((x, nv + j))
    rotation: list[tuple[int, ...]] = []
    for x in range(phi.n_vars):
        rotation.append(tuple(2 * edge_id[(x, j)] for j in phi.rotv[x]))
    for j, clause in enumerate(phi.clauses):
        rotation.append(
            tuple(2 * edge_id[(x, j)] + 1 for (x, _pol) in clause)
        )
    try:
        D = pg.build(nv + nc, edges, rotation, mode=pg.MODE_MULTI)
    except Exception as exc:
        raise EmbeddingConflict(f"incidence rotations invalid: {exc}") from exc
    if not D.connected:
        raise EmbeddingConflict("incidence graph must be connected")


def find_rotations(
    n_vars: int, clauses: Sequence[Sequence[tuple[int, bool]]]
) -> list[PlanarCnf]:
    """Exhaustively search rotation data that embeds the incidence graph;
    intended for tiny formulas only (at most ~8 incidence edges)."""
    base_orders = []
    for x in range(n_vars):
        mentioned = [
            j for j, c in enumerate(clauses) if any(v == x for v, _ in c)
        ]
        if len(mentioned) <= 2:
            base_orders.append([tuple(mentioned)])
        else:
            head, rest = mentioned[0], mentioned[1:]
            base_orders.append(
                [(head,) + p for p in itertools.permutations(rest)]
            )
    clause_orders = []
    for c in clauses:
        c = tuple(tuple(lit) for lit in c)
        clause_orders.append([c, (c[0], c[2], c[1])])
    out = []
    for rotv in itertools.product(*base_orders):
        for ordered_clauses in itertools.product(*clause_orders):
            cand = PlanarCnf(
                n_vars=n_vars,
                clauses=tuple(ordered_clauses),
                rotv=tuple(rotv),
            )
            try:
                cand.validate()
            except EmbeddingConflict:
                continue
            out.append(cand)
    return out


def _dimacs_ints(tokens: Sequence[str], ln: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"line {ln}: non-integer token: {exc}") from exc


def parse_dimacs(text: str) -> PlanarCnf:
    """Extended DIMACS: standard ``p cnf`` plus ``rotv``/``rotc`` lines
    giving clockwise orders (1-based ids)."""
    n_vars = 0
    raw_clauses: list[tuple[int, list[int]]] = []     # (line, literals)
    rotv_lines: dict[int, tuple[int, list[int]]] = {}  # id -> (line, order)
    rotc_lines: dict[int, tuple[int, list[int]]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("c"):
            continue
        parts = s.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"line {ln}: bad problem line")
            n_vars = _dimacs_ints(parts[2:], ln)[0]
            if n_vars < 0:
                raise ParseError(f"line {ln}: negative variable count")
        elif parts[0] in ("rotv", "rotc"):
            ids = _dimacs_ints(parts[1:], ln)
            if not ids:
                raise ParseError(f"line {ln}: expected '{parts[0]} <id> ...'")
            table = rotv_lines if parts[0] == "rotv" else rotc_lines
            table[ids[0] - 1] = (ln, [t - 1 for t in ids[1:]])
        else:
            lits = _dimacs_ints(parts, ln)
            if lits[-1] != 0:
                raise ParseError(f"line {ln}: clause must end with 0")
            raw_clauses.append((ln, lits[:-1]))
    for x, (ln, _) in rotv_lines.items():
        if not 0 <= x < n_vars:
            raise ParseError(f"line {ln}: no variable {x + 1}")
    for j, (ln, order) in rotc_lines.items():
        if not 0 <= j < len(raw_clauses):
            raise ParseError(f"line {ln}: no clause {j + 1}")
        if sorted(order) != sorted(abs(l) - 1 for l in raw_clauses[j][1]):
            raise ParseError(f"line {ln}: rotc must list the clause's variables")
    clauses = []
    for j, (ln, lits) in enumerate(raw_clauses):
        if any(l == 0 or abs(l) > n_vars for l in lits):
            raise ParseError(f"line {ln}: literal out of range 1..{n_vars}")
        trip = [(abs(l) - 1, l > 0) for l in lits]
        if j in rotc_lines:
            order = rotc_lines[j][1]
            trip.sort(key=lambda t: order.index(t[0]))
        clauses.append(tuple(trip))
    rotv = []
    for x in range(n_vars):
        mentioned = [
            j for j, c in enumerate(clauses) if any(v == x for v, _ in c)
        ]
        rotv.append(tuple(rotv_lines[x][1] if x in rotv_lines else mentioned))
    phi = PlanarCnf(n_vars=n_vars, clauses=tuple(clauses), rotv=tuple(rotv))
    phi.validate()
    return phi


# ---------------------------------------------------------------------------
# gadget assembly machinery
# ---------------------------------------------------------------------------


@dataclass
class GadgetInstance:
    graph: pg.PlaneDigraph
    ports: dict[str, int]


class _Assembly:
    """Vertices with coordinates, arcs, and either coordinate-derived or
    explicitly spliced rotations."""

    def __init__(self) -> None:
        self.coords: list[Optional[tuple[float, float]]] = []
        self.arcs: list[tuple[int, int]] = []
        self.fixed_rotation: dict[int, list[int]] = {}
        self.merged_into: dict[int, int] = {}

    def vertex(self, x: float, y: float) -> int:
        self.coords.append((x, y))
        return len(self.coords) - 1

    def arc(self, u: int, v: int) -> int:
        self.arcs.append((u, v))
        return len(self.arcs) - 1

    def find(self, v: int) -> int:
        while v in self.merged_into:
            v = self.merged_into[v]
        return v

    def _bearing(self, v: int, dart: int) -> float:
        a = dart >> 1
        u, w = self.arcs[a]
        other = w if (dart & 1) == 0 else u
        x0, y0 = self.coords[v]
        x1, y1 = self.coords[other]
        return math.atan2(x1 - x0, y1 - y0) % (2 * math.pi)

    def rotation_of(self, v: int) -> list[int]:
        if v in self.fixed_rotation:
            return list(self.fixed_rotation[v])
        ends = []
        for a, (t, h) in enumerate(self.arcs):
            if self.find(t) == v:
                ends.append(2 * a)
            if self.find(h) == v:
                ends.append(2 * a + 1)
        ends.sort(key=lambda d: self._bearing(v, d))
        return ends

    def attach_list(self, v: int, outward_bearing: float) -> list[int]:
        """Rotation opened at the gap containing the outward direction."""
        rot = self.rotation_of(v)
        if not rot:
            return []
        bearings = [self._bearing(v, d) for d in rot]
        k = len(rot)
        for i in range(k):
            lo = bearings[i]
            hi = bearings[(i + 1) % k]
            span = (hi - lo) % (2 * math.pi)
            if span == 0:
                span = 2 * math.pi
            if (outward_bearing - lo) % (2 * math.pi) < span:
                return rot[i + 1 :] + rot[: i + 1]
        return rot

    def merge(self, keep: int, gone: int, merged_rotation: list[int]) -> None:
        keep, gone = self.find(keep), self.find(gone)
        self.merged_into[gone] = keep
        self.fixed_rotation[keep] = merged_rotation

    def build(self, mode: str = pg.MODE_ORIENTED) -> tuple[pg.PlaneDigraph, dict[int, int]]:
        live = sorted({self.find(v) for v in range(len(self.coords))})
        vid = {v: i for i, v in enumerate(live)}
        arcs = [(vid[self.find(u)], vid[self.find(w)]) for (u, w) in self.arcs]
        rotation = [tuple(self.rotation_of(v)) for v in live]
        graph = pg.build(len(live), arcs, rotation, mode=mode)
        # outer face: at the topmost vertex, the gap facing north; the gap
        # before a dart is its angle, so the anchor is the rotation element
        # after that gap, the first of the list opened there
        top = max(
            (v for v in live if self.rotation_of(v)),
            key=lambda v: self.coords[v][1],
            default=None,
        )
        if top is not None:
            anchor = self.attach_list(top, 0.0)[0]
            outer = graph.face_of_dart(anchor)
            graph = pg.build(
                len(live), arcs, rotation, mode=mode, outer_face=outer
            )
        return graph, vid


# literal gadget local coordinates: octagon of radius 10, twins outside
_OCT = {
    "b": (180.0, 10.0),
    "bl": (225.0, 10.0),
    "l": (270.0, 10.0),
    "tl": (315.0, 10.0),
    "t": (0.0, 10.0),
    "tr": (45.0, 10.0),
    "r": (90.0, 10.0),
    "br": (135.0, 10.0),
}
_TWINS = {"b": (180.0, 14.0), "l": (270.0, 14.0), "t": (0.0, 14.0), "r": (90.0, 14.0)}

_LITERAL_ARCS = [
    ("bl", "b"), ("bl", "l"), ("tl", "l"), ("tl", "t"),
    ("tr", "t"), ("tr", "r"), ("br", "r"), ("br", "b"),
    ("t", "b"),
]

POSITIVE_COMPLETION = (("r", "t"), ("t", "br"), ("l", "b"), ("b", "tl"))
NEGATIVE_COMPLETION = (("l", "t"), ("t", "bl"), ("r", "b"), ("b", "tr"))


def _polar(asm: _Assembly, cx: float, cy: float, bearing_deg: float,
           radius: float) -> int:
    rad = math.radians(bearing_deg % 360.0)
    return asm.vertex(cx + radius * math.sin(rad), cy + radius * math.cos(rad))


def _add_literal(asm: _Assembly, cx: float, cy: float) -> dict[str, int]:
    ids: dict[str, int] = {}
    for name, (bear, rad) in _OCT.items():
        ids[name] = _polar(asm, cx, cy, bear, rad)
    for name, (bear, rad) in _TWINS.items():
        ids[name + "'"] = _polar(asm, cx, cy, bear, rad)
    for u, v in _LITERAL_ARCS:
        asm.arc(ids[u], ids[v])
    for name in ("b", "l", "t", "r"):
        asm.arc(ids[name + "'"], ids[name])
    return ids


def literal_gadget() -> GadgetInstance:
    """Standalone literal gadget: alternating octagon, four twins, and the
    internal top-to-bottom chord; twelve vertices and two 5-faces."""
    asm = _Assembly()
    ids = _add_literal(asm, 0.0, 0.0)
    graph, vid = asm.build()
    return GadgetInstance(
        graph=graph, ports={k: vid[v] for k, v in ids.items()}
    )


# ---------------------------------------------------------------------------
# variable gadget
# ---------------------------------------------------------------------------


def _add_variable(
    asm: _Assembly, n_x: int, cx: float = 0.0, cy: float = 0.0
) -> list[dict[str, int]]:
    """Ring of ``n_x`` literal gadgets around a shared bottom twin.

    Octagons are rebuilt on polar coordinates so that neighbouring corner
    sources coincide: ``br`` of each literal is the same vertex as ``bl``
    of the next, ``r'`` the same as the next ``l'``, and all ``b'`` merge
    into the hub."""
    if n_x < 2:
        raise InvalidArity("variable gadgets need at least two occurrences")
    half = 180.0 / n_x
    d1, d2 = half / 3.0, 2.0 * half / 3.0
    lits: list[dict[str, int]] = [dict() for _ in range(n_x)]
    hub = asm.vertex(cx, cy)

    def put(i: int, name: str, off_deg: float, radius: float) -> None:
        beta = 360.0 * i / n_x
        lits[i][name] = _polar(asm, cx, cy, beta + off_deg, radius)

    for i in range(n_x):
        put(i, "b", 0.0, 15.0)
        put(i, "l", -d2, 22.0)
        put(i, "tl", -d1, 28.0)
        put(i, "t", 0.0, 30.0)
        put(i, "tr", +d1, 28.0)
        put(i, "r", +d2, 22.0)
        put(i, "br", +half, 18.0)
        put(i, "t'", 0.0, 34.0)
        put(i, "r'", +half, 36.0)
    for i in range(n_x):
        nxt = (i + 1) % n_x
        lits[nxt]["bl"] = lits[i]["br"]
        lits[nxt]["l'"] = lits[i]["r'"]
        lits[i]["b'"] = hub
    for i in range(n_x):
        ids = lits[i]
        for u, v in _LITERAL_ARCS:
            aid = asm.arc(ids[u], ids[v])
            if (u, v) == ("tl", "t"):
                ids["_a_tl_t"] = aid
            elif (u, v) == ("tr", "r"):
                ids["_a_tr_r"] = aid
        asm.arc(hub, ids["b"])
        asm.arc(ids["t'"], ids["t"])
        asm.arc(ids["r'"], ids["r"])
        ids["_a_rp_lnext"] = asm.arc(ids["r'"], lits[(i + 1) % n_x]["l"])
        # keep the twins reachable: without these the hub and the corner
        # twins would stay sources no completion can reach
        asm.arc(ids["br"], hub)
        asm.arc(ids["br"], ids["r'"])
    return lits


def variable_gadget(n_x: int) -> GadgetInstance:
    asm = _Assembly()
    lits = _add_variable(asm, n_x)
    graph, vid = asm.build()
    ports = {}
    for i, ids in enumerate(lits):
        for k, v in ids.items():
            if not k.startswith("_"):
                ports[f"{k}_{i}"] = vid[asm.find(v)]
    return GadgetInstance(graph=graph, ports=ports)


# ---------------------------------------------------------------------------
# clause gadget
# ---------------------------------------------------------------------------

_RING_SLOTS = [
    ("u", 0, 0.0), ("v", 0, 30.0), ("w", 0, 60.0), ("R", 0, 90.0),
    ("u", 1, 120.0), ("v", 1, 150.0), ("w", 1, 180.0), ("R", 1, 210.0),
    ("u", 2, 240.0), ("v", 2, 270.0), ("w", 2, 300.0), ("R", 2, 330.0),
]


def _add_clause(
    asm: _Assembly, cx: float = 0.0, cy: float = 0.0
) -> dict[str, int]:
    """Fifteen-vertex clause gadget.  Slot q of the ring corresponds to the
    q-th variable of the clause in clockwise order; ``R_q``/``M_q`` close
    the sink 4-cycle between variable q and variable q+1."""
    ids: dict[str, int] = {}
    for kind, q, bear in _RING_SLOTS:
        ids[f"{kind}{q}"] = _polar(asm, cx, cy, bear, 10.0)
    for q in range(3):
        ids[f"M{q}"] = _polar(asm, cx, cy, 90.0 + 120.0 * q, 7.0)
    # central directed source triangle
    asm.arc(ids["v0"], ids["v1"])
    asm.arc(ids["v1"], ids["v2"])
    asm.arc(ids["v2"], ids["v0"])
    for q in range(3):
        nq = (q + 1) % 3
        # out-neighbours of the triangle
        asm.arc(ids[f"v{q}"], ids[f"u{q}"])
        asm.arc(ids[f"v{q}"], ids[f"w{q}"])
        asm.arc(ids[f"v{q}"], ids[f"M{q}"])
        asm.arc(ids[f"v{nq}"], ids[f"M{q}"])
        # sink 4-cycle between q and q+1: u_{q+1} -> M_q -> w_q -> R_q -> u_{q+1}
        asm.arc(ids[f"u{nq}"], ids[f"M{q}"])
        asm.arc(ids[f"M{q}"], ids[f"w{q}"])
        ids[f"_a_wR{q}"] = asm.arc(ids[f"w{q}"], ids[f"R{q}"])
        asm.arc(ids[f"R{q}"], ids[f"u{nq}"])
        asm.arc(ids[f"R{q}"], ids[f"M{q}"])
    return ids


def clause_gadget() -> GadgetInstance:
    asm = _Assembly()
    ids = _add_clause(asm)
    graph, vid = asm.build()
    return GadgetInstance(
        graph=graph,
        ports={k: vid[v] for k, v in ids.items() if not k.startswith("_")},
    )


# ---------------------------------------------------------------------------
# the reduction
# ---------------------------------------------------------------------------


def _outward(asm: _Assembly, center: tuple[float, float], v: int) -> float:
    x0, y0 = center
    x1, y1 = asm.coords[v]
    return math.atan2(x1 - x0, y1 - y0) % (2 * math.pi)


def pad_formula(phi: PlanarCnf) -> PlanarCnf:
    """Duplicate the clause of any variable occurring once, until every
    variable occurs at least twice.  Satisfiability is unchanged; the copy
    is slotted into the embedding by a bounded search over insertion
    positions, validated by the sphere check."""
    current = phi
    while True:
        counts = [0] * current.n_vars
        for c in current.clauses:
            for (x, _pol) in c:
                counts[x] += 1
        lonely = next((x for x in range(current.n_vars) if counts[x] == 1), None)
        if lonely is None:
            return current
        j = next(
            jj for jj, c in enumerate(current.clauses)
            if any(v == lonely for v, _ in c)
        )
        base_clauses = [tuple(c) for c in current.clauses]
        new_j = len(base_clauses)
        trip = base_clauses[j]
        # next to the original clause first, then anywhere
        near = [
            (at, at + 1) for at in (current.rotv[v].index(j) for v, _ in trip)
        ]
        anywhere = [range(len(current.rotv[v]) + 1) for v, _ in trip]

        def placements():
            for offsets in (near, anywhere):
                for order in (tuple(reversed(trip)), trip):
                    for offs in itertools.product(*offsets):
                        rotv = [list(r) for r in current.rotv]
                        for (v, _pol), off in zip(trip, offs):
                            rotv[v].insert(off, new_j)
                        cand = PlanarCnf(
                            n_vars=current.n_vars,
                            clauses=tuple(base_clauses + [order]),
                            rotv=tuple(tuple(r) for r in rotv),
                        )
                        try:
                            cand.validate()
                        except EmbeddingConflict:
                            continue
                        yield cand

        placed = next(placements(), None)
        if placed is None:
            raise EmbeddingConflict(
                "could not embed the duplicated clause anywhere"
            )
        current = placed


def reduce_formula(phi: PlanarCnf) -> GadgetInstance:
    """Build the augmentability instance of a planar 3-CNF.

    The output is plane and oriented, of size linear in the number of
    literal occurrences; it admits a strongly connected plane oriented
    augmentation if and only if the formula is satisfiable.  Variables
    occurring once are first padded by duplicating their clause.
    """
    phi.validate()
    phi = pad_formula(phi)
    asm = _Assembly()
    var_centers: list[tuple[float, float]] = []
    var_lits: list[list[dict[str, int]]] = []
    # place variable rings on a long horizontal line, clauses below it;
    # coordinates only seed per-gadget rotations, the splices are
    # combinatorial, so overlaps between distinct gadgets are harmless
    for x in range(phi.n_vars):
        cx = 200.0 * x
        occs = phi.occurrences(x)
        var_centers.append((cx, 0.0))
        var_lits.append(_add_variable(asm, len(occs), cx, 0.0))
    clause_ids: list[dict[str, int]] = []
    clause_centers: list[tuple[float, float]] = []
    for j in range(len(phi.clauses)):
        cx = 200.0 * j + 60.0
        clause_centers.append((cx, -300.0))
        clause_ids.append(_add_clause(asm, cx, -300.0))

    # occurrence bookkeeping: literal index of variable x used for clause j
    occ_index: dict[tuple[int, int], int] = {}
    for x in range(phi.n_vars):
        for i, (j, _pol) in enumerate(phi.occurrences(x)):
            occ_index[(x, j)] = i

    def lit_ids(x: int, j: int) -> dict[str, int]:
        return var_lits[x][occ_index[(x, j)]]

    # identify clause ring vertices with literal tops.  Every merged
    # vertex except the corner twins r'=l' meets exactly one clause, and
    # its rotation is clause fan followed by literal fan, each opened at
    # its outward gap.  A corner twin can meet two clauses: the clause of
    # its own literal (as u, appended clockwise-after the literal ends)
    # and the next literal's clause (as w, prepended before them).
    rp_front: dict[int, list[int]] = {}
    rp_back: dict[int, list[int]] = {}
    rp_own: dict[int, list[int]] = {}
    for x in range(phi.n_vars):
        for ids in var_lits[x]:
            rp = asm.find(ids["r'"])
            rp_own[rp] = asm.attach_list(rp, _outward(asm, var_centers[x], rp))
    for j, clause in enumerate(phi.clauses):
        for q, (x, pol) in enumerate(clause):
            ids = lit_ids(x, j)
            cids = clause_ids[j]
            ccenter = clause_centers[j]
            vcenter = var_centers[x]
            if pol:
                pairs = [("v", "tl"), ("u", "t'"), ("w", "l'")]
            else:
                pairs = [("v", "tr"), ("u", "r'"), ("w", "t'")]
            for ckind, lname in pairs:
                cvert = asm.find(cids[f"{ckind}{q}"])
                lvert = asm.find(ids[lname])
                c_attach = asm.attach_list(
                    cvert, _outward(asm, ccenter, cvert)
                )
                if lname in ("r'", "l'"):
                    root = lvert
                    if ckind == "u":
                        rp_back.setdefault(root, []).extend(c_attach)
                    else:
                        rp_front.setdefault(root, [])[:0] = c_attach
                    asm.merged_into[cvert] = root
                else:
                    l_attach = asm.attach_list(
                        lvert, _outward(asm, vcenter, lvert)
                    )
                    asm.merge(cvert, lvert, c_attach + l_attach)
    for rp, own in rp_own.items():
        if rp in rp_front or rp in rp_back:
            asm.fixed_rotation[rp] = (
                rp_front.get(rp, []) + own + rp_back.get(rp, [])
            )

    graph, vid = asm.build(mode=pg.MODE_ORIENTED)
    if not graph.connected:
        raise EmbeddingConflict("reduced instance is disconnected")

    # joining arcs between consecutive variables around each clause,
    # inserted at the wedge-facing gaps
    stage2: list[tuple[int, int]] = []
    for j, clause in enumerate(phi.clauses):
        for q in range(3):
            p_var, p_pol = clause[q]
            q_var, q_pol = clause[(q + 1) % 3]
            pids = lit_ids(p_var, j)
            qids = lit_ids(q_var, j)
            if not p_pol and not q_pol:
                tail = _gap_anchor_ring(asm, qids)         # at r'_q, wedge side
                head = _gap_anchor_free(asm, pids, "tl")
                stage2.append((tail, head))
            elif p_pol and q_pol:
                tail = _gap_anchor_clause(asm, clause_ids[j], q)
                head = _gap_anchor_free(asm, qids, "tr")
                stage2.append((tail, head))
            elif not p_pol and q_pol:
                tail = _gap_anchor_clause(asm, clause_ids[j], q)
                head = _gap_anchor_free(asm, qids, "tr")
                stage2.append((tail, head))
                stage2.append(
                    (
                        _gap_anchor_free(asm, qids, "tr"),
                        _gap_anchor_free(asm, pids, "tl"),
                    )
                )
            # positive p with negative q: no arcs

    if stage2:
        graph = pg.insert_arcs(graph, stage2, mode=pg.MODE_ORIENTED)

    ports = {}
    for x in range(phi.n_vars):
        for i, ids in enumerate(var_lits[x]):
            for k, v in ids.items():
                if not k.startswith("_"):
                    ports[f"x{x}.{k}_{i}"] = vid[asm.find(v)]
    for j, cids in enumerate(clause_ids):
        for k, v in cids.items():
            if not k.startswith("_"):
                ports[f"c{j}.{k}"] = vid[asm.find(v)]
    return GadgetInstance(graph=graph, ports=ports)


def _gap_anchor_ring(asm: _Assembly, qids: dict[str, int]) -> int:
    """Wedge gap at a merged r' vertex: the cyclic gap between the
    clause fan appended for this literal's own clause and whatever starts
    the assembled rotation."""
    rp = asm.find(qids["r'"])
    rot = asm.fixed_rotation.get(rp)
    if rot:
        return rot[0]
    return 2 * qids["_a_rp_lnext"]


def _gap_anchor_clause(asm: _Assembly, cids: dict[str, int], q: int) -> int:
    """Wedge gap at the merged w_q vertex: before the (w_q -> R_q) end."""
    return 2 * cids[f"_a_wR{q}"]


def _gap_anchor_free(asm: _Assembly, ids: dict[str, int], name: str) -> int:
    """Outer gap of a free top source: before its arc end toward ``t``
    (for tl) or toward ``r`` (for tr)."""
    if name == "tl":
        return 2 * ids["_a_tl_t"]
    return 2 * ids["_a_tr_r"]


# ---------------------------------------------------------------------------
# assignments
# ---------------------------------------------------------------------------


def _five_face(D: pg.PlaneDigraph, wanted: set[int]) -> int:
    for f in range(D.f):
        walk = D.faces[f]
        if len(walk) == 5 and {D.dart_vertex(d) for d in walk} == wanted:
            return f
    raise AssertionError(f"no 5-face on vertices {sorted(wanted)}")


def _face_angle(D: pg.PlaneDigraph, face: int, vertex: int) -> int:
    for d in D.faces[face]:
        if D.dart_vertex(d) == vertex:
            return d
    raise AssertionError(f"vertex {vertex} not on face {face}")


def literal_completion_pairs(
    D: pg.PlaneDigraph, ids: dict[str, int], positive: bool
) -> list[tuple[int, int]]:
    """Angle-dart pairs of the positive or negative completion of one
    literal, embedded in its two 5-faces."""
    left = _five_face(D, {ids[n] for n in ("b", "bl", "l", "tl", "t")})
    right = _five_face(D, {ids[n] for n in ("t", "tr", "r", "br", "b")})
    arcs = POSITIVE_COMPLETION if positive else NEGATIVE_COMPLETION
    out = []
    for u, v in arcs:
        face = left if {u, v} <= {"b", "bl", "l", "tl", "t"} else right
        out.append(
            (_face_angle(D, face, ids[u]), _face_angle(D, face, ids[v]))
        )
    return out


def assignment_to_augmentation(
    phi: PlanarCnf,
    instance: GadgetInstance,
    assignment: Sequence[bool],
) -> pg.Completion:
    """The augmentation given by completing each variable ring positively
    or negatively according to a satisfying assignment."""
    for clause in phi.clauses:
        if not any(assignment[x] == pol for (x, pol) in clause):
            raise AssignmentDoesNotSatisfy(f"clause {clause} unsatisfied")
    phi = pad_formula(phi)
    D = instance.graph
    pairs = []
    for x in range(phi.n_vars):
        n_x = len(phi.occurrences(x))
        for i in range(n_x):
            ids = {
                name: instance.ports[f"x{x}.{name}_{i}"]
                for name in ("b", "bl", "l", "tl", "t", "tr", "r", "br")
            }
            pairs.extend(literal_completion_pairs(D, ids, assignment[x]))
    return D.completion_from_darts(pairs)
