"""Map files and JSON file I/O.

The JSON forms of spaces and points live on the model classes
(:mod:`geowidth.spaces`), those of isometries and representations on the
isometry families (:mod:`geowidth.isometries`).  This module adds the map
file::

    {"graph": {"vertices": [...],
               "edges": [{"src", "tgt", "len", "label"}]},
     "images": {vertex: point},
     "representation": representation}
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from . import words
from .equivariant import Edge, EquivariantMap, FundamentalGraph
from .errors import AlphabetMismatchError, ConfigError, DomainError, InvalidPointError, ModelMismatchError
from .isometries import Representation
from .spaces import json_field


@contextmanager
def malformed_input(source: str):
    """Report JSON from source that does not parse, lacks a field, mistypes one or names an invalid point as a ConfigError."""
    try:
        yield
    except DomainError:  # a value out of range keeps its own exit code
        raise
    except (
        AttributeError, KeyError, TypeError, ValueError, AlphabetMismatchError, InvalidPointError, ModelMismatchError,
        RecursionError,  # JSON nested too deep to parse
    ) as e:
        raise ConfigError(f"malformed input {source}: {type(e).__name__}: {e}") from e


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def parse_json(text: str):
    """Strict JSON: the NaN and Infinity that json accepts by default are refused."""
    return json.loads(text, parse_constant=_refuse_constant)


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
        rho = Representation.from_json(data["representation"])
    g = data["graph"]
    edges = [
        Edge(
            e["src"],
            e["tgt"],
            json_field(e, "len", float),
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
    with open(path) as f, malformed_input(path):
        return map_from_json(parse_json(f.read()), rho)


def save_map(path: str, u: EquivariantMap) -> None:
    with open(path, "w") as f:
        json.dump(map_to_json(u), f, indent=2, sort_keys=True)


def load_representation(path: str) -> Representation:
    with open(path) as f, malformed_input(path):
        return Representation.from_json(parse_json(f.read()))


def save_representation(path: str, rho: Representation) -> None:
    with open(path, "w") as f:
        json.dump(rho.to_json(), f, indent=2, sort_keys=True)
