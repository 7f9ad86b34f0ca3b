"""Machine verification of the combinatorial claims about exceptional curves.

Each check compares a computed value against its expected value and renders to
the JSON shape ``{claim, expected, computed, pass}``.  Covered: the class
counts and symmetry-group orders for degrees 1..7, transitivity of the Weyl
action, the blow-down stabilizer chain (the point stabilizer in degree d is
carried isomorphically onto the full symmetry group in degree d+1), and the
Schlaefli substructure statistics of the 27 lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from .lattice import CLASS_COUNTS, DegreeContext, blow_down_map, exceptional_classes
from .permgroup import PermutationGroup
from . import incidence
from .incidence import automorphism_group, incidence_graph, weyl_image

#: symmetry-group orders for degrees 1..7
AUT_ORDERS = {
    1: 696729600,
    2: 2903040,
    3: 51840,
    4: 1920,
    5: 120,
    6: 12,
    7: 2,
}


@dataclass(frozen=True)
class Check:
    claim: str
    expected: Any
    computed: Any
    #: the degree the claim is about, if it is about one
    degree: int | None = None

    @property
    def ok(self) -> bool:
        return self.expected == self.computed

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.ok,
        }


def _is_label_preserving(graph: incidence.IncidenceGraph, perm) -> bool:
    g = np.asarray(perm)
    return bool(np.array_equal(graph.labels[np.ix_(g, g)], graph.labels))


def verify_table1(degrees: Iterable[int] = range(1, 8)) -> list[Check]:
    """Class counts and symmetry orders for the given degrees (default all).

    For each degree: the class count, the order of the Weyl image, that its
    generators preserve the labels, the order of the full label-preserving
    group found by `automorphism_group`, and that the Weyl image lies in it.
    Degree 1 (240 vertices, order 696729600) takes about 0.15 s after the
    imports.
    """
    checks = [
        Check("51840 = 2^7 * 3^4 * 5", 51840, 2**7 * 3**4 * 5),
    ]
    for d in degrees:
        ctx = DegreeContext(d)
        n = len(exceptional_classes(ctx))
        checks.append(Check(f"class count n_{d}", CLASS_COUNTS[d], n, d))
        graph = incidence_graph(ctx)
        w = weyl_image(ctx)
        checks.append(Check(f"|W image| for d={d}", AUT_ORDERS[d], w.order, d))
        checks.append(
            Check(
                f"W generators preserve the degree-{d} labels",
                True,
                all(_is_label_preserving(graph, g) for g in w.generators),
                d,
            )
        )
        aut = automorphism_group(graph)
        checks.append(Check(f"|Aut| for d={d}", AUT_ORDERS[d], aut.order, d))
        checks.append(
            Check(
                f"W image inside Aut for d={d}",
                True,
                all(aut.contains(g) for g in w.generators),
                d,
            )
        )
    return checks


def stabilizer_chain_check(d: int) -> list[Check]:
    """Transitivity, the point-stabilizer order, and the blow-down transport
    of the stabilizer onto the full degree-(d+1) symmetry group."""
    if not 1 <= d <= 6:
        raise ValueError("stabilizer chain runs over degrees 1..6")
    ctx = DegreeContext(d)
    up = DegreeContext(d + 1)
    w = weyl_image(ctx)
    checks = [Check(f"W image transitive for d={d}", True, w.is_transitive())]

    stab = w.stabilizer_of_point(0)
    checks.append(
        Check(
            f"point stabilizer order for d={d}",
            AUT_ORDERS[d] // CLASS_COUNTS[d],
            stab.order,
        )
    )

    classes = exceptional_classes(ctx)
    up_classes = exceptional_classes(up)
    class_index = {c: i for i, c in enumerate(classes)}
    e = classes[0]
    down = blow_down_map(ctx, e)
    up_index = {c: i for i, c in enumerate(up_classes)}
    domain = sorted(down, key=lambda v: up_index[down[v]])
    dom_pos = {v: t for t, v in enumerate(domain)}
    checks.append(
        Check(f"blow-down domain size for d={d}", CLASS_COUNTS[d + 1], len(domain))
    )

    def transport(perm) -> tuple[int, ...] | None:
        out = [0] * len(domain)
        for v in domain:
            w_img = classes[perm[class_index[v]]]
            if w_img not in dom_pos:
                return None
            out[up_index[down[v]]] = up_index[down[w_img]]
        return tuple(out)

    up_graph = incidence_graph(up)
    transported = []
    all_good = True
    for g in stab.generators:
        q = transport(g)
        if q is None or not _is_label_preserving(up_graph, q):
            all_good = False
            break
        transported.append(q)
    checks.append(
        Check(
            f"stabilizer transports to degree-{d + 1} automorphisms",
            True,
            all_good,
        )
    )
    if all_good:
        image = PermutationGroup(len(domain), transported)
        checks.append(
            Check(
                f"transported group order equals |Aut| for d={d + 1}",
                AUT_ORDERS[d + 1],
                image.order,
            )
        )
        checks.append(
            Check(
                f"transport is injective for d={d}",
                stab.order,
                image.order,
            )
        )
    return checks


def schlafli_report() -> list[Check]:
    """Regression statistics of the 27-line substructures."""
    ctx = DegreeContext(3)
    graph = incidence_graph(ctx)
    triangles = incidence.tritangent_triangles(graph)
    ds = incidence.double_sixes(graph)
    tn = incidence.triple_nines(graph)
    w = weyl_image(ctx)

    per_line = [0] * 27
    for t in triangles:
        for x in t:
            per_line[x] += 1
    neighbor_counts = sorted({int((graph.labels[i] == 1).sum()) for i in range(27)})

    ds_orbits = incidence.orbit_of_structures(w, [d.blocks for d in ds])
    tn_orbits = incidence.orbit_of_structures(w, [t.blocks for t in tn])

    return [
        Check("tritangent triangle count", 45, len(triangles)),
        Check("double-six count", 36, len(ds)),
        Check("triple-nine count", 40, len(tn)),
        Check("triangles through each line", [5], sorted(set(per_line))),
        Check("lines met by each line", [10], neighbor_counts),
        Check("double-six orbit count under Aut", 1, len(set(ds_orbits.values()))),
        Check("triple-nine orbit count under Aut", 1, len(set(tn_orbits.values()))),
        Check("double-six stabilizer order (orbit-stabilizer)", 1440,
              w.order // list(ds_orbits.values()).count(ds_orbits[ds[0].blocks])),
    ]


def full_report() -> dict:
    """Everything: Table-1 checks, the six chain checks, substructure stats."""
    sections = {
        "table1": [c.to_json() for c in verify_table1()],
        "stabilizer_chain": {
            str(d): [c.to_json() for c in stabilizer_chain_check(d)] for d in range(1, 7)
        },
        "schlafli": [c.to_json() for c in schlafli_report()],
    }
    flat = sections["table1"] + sections["schlafli"]
    for d in range(1, 7):
        flat += sections["stabilizer_chain"][str(d)]
    sections["all_pass"] = all(c["pass"] for c in flat)
    sections["failures"] = [c["claim"] for c in flat if not c["pass"]]
    return sections
