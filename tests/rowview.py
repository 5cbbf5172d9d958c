"""The supported-completion masks of ``completion_enum`` as rows
``((tail dart, head dart), (u, v))``, the form the tests compare."""

from orient_augment import completion_enum as ce
from orient_augment import plane_graph as pg


def as_rows(D, sets):
    """Masks over the oriented legal arcs of ``D`` as tuples of their rows."""
    rows = ce.legal_arcs(D, pg.MODE_ORIENTED)[0]
    return [tuple(rows[x] for x in range(m.bit_length()) if m >> x & 1)
            for m in sets]


def supported_rows(D, face, budget):
    """``supported_sets`` as rows, the empty completion first."""
    return as_rows(D, [0, *ce.supported_sets(D, face, budget)])


def simple_face_rows(D, face):
    """``simple_face_sets`` as rows."""
    return as_rows(D, ce.simple_face_sets(D, face))
