"""The package's file formats, each with one writer and one reader: one CSV
dialect (see :func:`write_csv`), and JSON objects (see :func:`write_object`)."""

from __future__ import annotations

import itertools
import json

import numpy as np

# rows formatted per write by write_csv: one chunk of a tracking log's text
# is about 0.25 MB, and chunks of 128 to 4096 rows write equally fast
CSV_CHUNK = 512


def write_csv(path, header: str, columns) -> None:
    """Write ``columns``, equal-length 1-D or 2-D arrays side by side, under ``header``.

    ``path`` is a path or an open text stream.  The text is that of
    ``np.savetxt(path, np.column_stack(columns), fmt="%.17g",
    delimiter=",", header=header, comments="")``, formatted
    :data:`CSV_CHUNK` rows at a time from slices of the columns, so neither
    the whole text nor a copy of the whole table is ever held at once.
    """
    if not hasattr(path, "write"):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(fh, header, columns)
        return
    row = ",".join(["%.17g"] * len(header.split(","))) + "\n"
    path.write(header + "\n")
    for i in range(0, len(columns[0]), CSV_CHUNK):
        block = np.column_stack([c[i:i + CSV_CHUNK] for c in columns])
        path.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_csv(path, header: str) -> np.ndarray:
    """The ``(n, k)`` rows under the ``k`` names of ``header``, from a path or an open text stream.

    ``\\r\\n`` line ends read too.  Raises :class:`ValueError`, naming the
    file if its first line is not ``header`` or no row of ``k`` numbers
    follows it.
    """
    if not hasattr(path, "read"):
        with open(path, encoding="utf-8") as fh:
            return read_csv(fh, header)
    # the first row is checked here, so that a file of the header alone is
    # refused without np.loadtxt's warning; loadtxt refuses the other rows
    first, row = path.readline().rstrip("\r\n"), path.readline()
    if first != header or row.count(",") != header.count(","):
        raise ValueError(f"{getattr(path, 'name', 'the stream')} is not rows of "
                         f"{header.count(',') + 1} numbers under the header {header!r}")
    return np.loadtxt(itertools.chain((row,), path), delimiter=",", ndmin=2)


def write_object(path, obj) -> None:
    """Write ``obj`` to ``path`` as JSON indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _unique_keys(pairs) -> dict:
    """``read_object``'s ``object_pairs_hook``: the pairs as a dict, refusing a repeated key."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ValueError(f"repeated key {key!r}")
        d[key] = value
    return d


def read_object(path, forms: dict, where: str) -> dict:
    """The JSON object in ``path`` as keyword arguments, each value checked against ``forms``.

    ``forms`` maps each key to a tuple of the forms its value may take:
    ``None`` for a number, ``n`` for a list of ``n`` numbers (read as an
    array), ``str`` for a string; or to a dict of forms for a nested
    object.  Integers read as floats, so a boolean is not a number and one
    too large for a float reads as inf.  Raises :class:`ValueError` naming
    ``where`` if the file is not one object, else the key at fault (a
    repeated key is at fault).
    """
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh, parse_int=float, object_pairs_hook=_unique_keys)

    def fields(d, forms, where):
        if not isinstance(d, dict):
            raise ValueError(f"{where} must be a JSON object, got {json.dumps(d)}")
        kw = {}
        for key, value in d.items():
            if key not in forms:
                raise ValueError(f"unknown key {key!r} in {where}")
            form = forms[key]
            if isinstance(form, dict):
                kw[key] = fields(value, form, key)
            elif (None if isinstance(value, float) else type(value)) in form:
                kw[key] = value  # a number (None) or a string (str)
            elif (isinstance(value, list) and len(value) in form
                  and all(isinstance(v, float) for v in value)):
                kw[key] = np.array(value, dtype=float)
            else:
                names = {None: "a number", str: "a string"}
                wanted = " or ".join(names.get(n, f"a list of {n} numbers") for n in form)
                raise ValueError(f"{key} must be {wanted}, got {json.dumps(value)}")
        return kw

    return fields(d, forms, where)
