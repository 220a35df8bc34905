"""Certified instance corpus shared by the constructive and acceptance tests.

Twenty-plus symmetric sets across the backend zoo: integer intervals,
modular windows, polynomial quotients, Galois-field gallery sets, one
matrix ring, one product ring, one (zero-multiplication) table ring and
one lazy polynomial ring.  Each instance comes with its exact ring-mode
certificate.
"""

from functools import lru_cache

import apxring as ax


def _mk(name, ring, literal):
    return name, ax.parse_set(ring, literal)


def corpus_sets():
    z = ax.parse_ring("int")
    out = [
        _mk("interval-1", z, "{-1,0,1}"),
        _mk("interval-2", z, "{-2,-1,0,1,2}"),
        _mk("zmod5-window", ax.modular(5), "{0,1,4}"),
        _mk("zmod7-window", ax.modular(7), "{0,1,6}"),
        _mk("zmod11-window", ax.modular(11), "{0,1,10}"),
        _mk("zmod11-window2", ax.modular(11), "{0,1,2,9,10}"),
        _mk("zmod13-window2", ax.modular(13), "{0,1,2,11,12}"),
        _mk("zmod13-window3", ax.modular(13), "{0,1,2,3,10,11,12}"),
        _mk("zmod9-subring", ax.modular(9), "{0,3,6}"),
        _mk("zmod12-window", ax.modular(12), "{0,1,11}"),
        _mk("zmod8-evens", ax.modular(8), "{0,2,4,6}"),
    ]
    for p, d in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        item = ax.gallery("linear-quo", p=p, d=d)
        out.append((f"linear-quo-{p}-{d}", item.xset))
    for p in (3, 5):
        item = ax.gallery("y-set", p=p)
        out.append((f"y-set-{p}", item.xset))
    lp2 = ax.gallery("linear-polys", p=2)
    out.append(("linear-polys-2", lp2.xset))

    out.append(_mk("mat2-nilpotent", ax.parse_ring("mat:2:zmod:2"),
                   "{[[0,0],[0,0]], [[1,0],[0,1]], [[0,1],[0,0]]}"))
    out.append(_mk("prod-mixed", ax.parse_ring("prod:(zmod:2,zmod:3)"),
                   "{(0,0), (1,1), (1,2)}"))
    zm = ax.zero_multiplication_ring(8)
    out.append(("zeromul8", ax.FiniteSet(zm, [0, 1, 7])))
    return out


@lru_cache(maxsize=1)
def certified_corpus():
    """[(name, x, exact ring-mode certificate)] with every cert verified."""
    out = []
    for name, x in corpus_sets():
        cert = ax.approx_constant(x, "ring", exact=True)
        ok, why = cert.verify()
        assert ok, f"{name}: {why}"
        out.append((name, x, cert))
    assert len(out) >= 20
    return out
