"""Fuzz the file readers: a mutated manifest or CSV file raises only ``VolterraError``.

Each example takes a file the writers produced, replaces one field of the
manifest (any node of its JSON tree, the root included) or one cell of the
CSV file with a value from a fixed pool, and reads it back.  The read may
succeed or raise ``VolterraError``; any other exception fails the test.  The
pool holds integers up to 20000 in size, a 5000-digit integer, floats, bools,
strings, null, a byte that is no UTF-8, and nested lists and dicts of these.
No pool value makes a reader allocate more than a few MiB.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_series
from volterra import io
from volterra.errors import VolterraError
from volterra.morphisms import catalog

SETTINGS = settings(settings.get_profile("volterra"), max_examples=60)

# json.dumps writes neither of these; each marker string is swapped for its bytes
BIG_INT = "<5000-digit int>"
NON_UTF8 = "<byte 0xff>"
SWAPS = {BIG_INT: b"9" * 5000, NON_UTF8: b"\xff"}

scalars = st.one_of(
    st.integers(min_value=-20000, max_value=20000),
    st.sampled_from(sorted(SWAPS)),
    st.floats(),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def swap_markers(text: str, quoted: bool) -> bytes:
    blob = text.encode()
    for marker, raw in SWAPS.items():
        blob = blob.replace(json.dumps(marker).encode() if quoted else marker.encode(), raw)
    return blob


def saved_files() -> dict:
    """The writers' output for a small series, morphism, signal and grid, as bytes."""
    rng = np.random.default_rng(7)
    series = random_series(2, 2, rng, constant=0.5 - 1j)
    _, morphism = catalog("identity", series, 3)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        io.save_series(root / "v.vk", series)
        io.save_morphism(root / "m.vm", morphism)
        io.write_signal_csv(root / "s.csv", rng.standard_normal(4) + 1j * rng.standard_normal(4))
        io.write_grid_csv(root / "g.csv", rng.standard_normal((3, 4)))
        return {path.name: path.read_bytes() for path in root.iterdir()}


SAVED = saved_files()
MANIFESTS = {"series": ("v.vk", io.load_series), "morphism": ("m.vm", io.load_morphism)}
CSV_FILES = {"signal": ("s.csv", io.read_signal_csv), "grid": ("g.csv", io.read_grid_csv)}


def json_paths(node, prefix=()):
    """Every node of a JSON tree as its key path, the root first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def replaced(document, path, value):
    if not path:
        return value
    document = json.loads(json.dumps(document))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def read_or_volterra_error(reader, path):
    try:
        reader(path)
    except VolterraError:
        pass


@pytest.mark.parametrize("kind", sorted(MANIFESTS))
@SETTINGS
@given(data=st.data(), value=values)
def test_manifest_readers_raise_only_volterra_errors(kind, data, value, fuzz_dir):
    name, reader = MANIFESTS[kind]
    document = json.loads(SAVED[name])
    path = data.draw(st.sampled_from(list(json_paths(document))), label="path")
    target = fuzz_dir / name
    target.write_bytes(swap_markers(json.dumps(replaced(document, path, value)), quoted=True))
    read_or_volterra_error(reader, target)


@pytest.mark.parametrize("kind", sorted(CSV_FILES))
@SETTINGS
@given(row=st.integers(min_value=0, max_value=3), column=st.integers(min_value=0, max_value=3), value=values)
def test_csv_readers_raise_only_volterra_errors(kind, row, column, value, fuzz_dir):
    name, reader = CSV_FILES[kind]
    rows = [line.split(",") for line in SAVED[name].decode().splitlines()]
    cells = rows[row % len(rows)]
    cells[column % len(cells)] = value if isinstance(value, str) else json.dumps(value)
    target = fuzz_dir / name
    target.write_bytes(swap_markers("\n".join(",".join(cells) for cells in rows) + "\n", quoted=False))
    read_or_volterra_error(reader, target)
