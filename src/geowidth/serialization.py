"""Map files and JSON file I/O.

The JSON forms of spaces and points live on the model classes
(:mod:`geowidth.spaces`), those of isometries and representations on the
isometry families (:mod:`geowidth.isometries`).  This module adds the map
file::

    {"graph": {"vertices": [...],
               "edges": [{"src", "tgt", "len", "label"}]},
     "images": {vertex: point},
     "representation": representation}   (or "representation_file": path)
"""

from __future__ import annotations

import json

from . import words
from .equivariant import Edge, EquivariantMap, FundamentalGraph
from .errors import DomainError
from .isometries import Representation


def map_to_json(u: EquivariantMap) -> dict:
    return {
        "graph": {
            "vertices": list(u.graph.vertices),
            "edges": [
                {
                    "src": e.src,
                    "tgt": e.tgt,
                    "len": e.length,
                    "label": words.word_to_str(e.label),
                }
                for e in u.graph.edges
            ],
        },
        "images": {str(v): u.space.point_to_json(p) for v, p in u.images.items()},
        "representation": u.rho.to_json(),
    }


def map_from_json(data: dict, rho: Representation | None = None) -> EquivariantMap:
    if rho is None:
        if "representation" in data:
            rho = Representation.from_json(data["representation"])
        elif "representation_file" in data:
            rho = load_representation(data["representation_file"])
        else:
            raise DomainError("map file carries no representation")
    g = data["graph"]
    edges = [
        Edge(
            e["src"],
            e["tgt"],
            float(e["len"]),
            words.parse_word(e["label"], rho.alphabet_size),
        )
        for e in g["edges"]
    ]
    graph = FundamentalGraph(g["vertices"], edges)
    by_str = {str(v): v for v in graph.vertices}
    images = {
        by_str[k]: rho.space.point_from_json(p) for k, p in data["images"].items()
    }
    return EquivariantMap(graph, rho, images)


def load_map(path: str, rho: Representation | None = None) -> EquivariantMap:
    with open(path) as f:
        return map_from_json(json.load(f), rho)


def save_map(path: str, u: EquivariantMap) -> None:
    with open(path, "w") as f:
        json.dump(map_to_json(u), f, indent=2, sort_keys=True)


def load_representation(path: str) -> Representation:
    with open(path) as f:
        return Representation.from_json(json.load(f))


def save_representation(path: str, rho: Representation) -> None:
    with open(path, "w") as f:
        json.dump(rho.to_json(), f, indent=2, sort_keys=True)
