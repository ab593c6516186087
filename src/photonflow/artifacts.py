"""Artifact files: the JSON of grid layers, the trace CSV and the PGM raster.

_scalar_layer and _label_layer build the one layer type, _Layer, and
_write_json writes a dict of them one block of rows at a time.
_write_trace_csv writes trajectories, _read_text and _decode read input
files, and _render gives the PGM of one layer of an artifact.  _render
reads the layout _write_json writes a piece of rows at a time, keeping only
the drawn layer, and reads any other file whole with json.

Output discipline: JSON is compact with sorted keys, floats are written
as Python's shortest round-trip repr writes them, CSV floats likewise, PGM
is binary P5; no timestamps or environment data enter any output, so
identical inputs give byte-identical files.  orjson writes every float of
the layers and trace rows with repr's digits, and _repr_layout fixes the
layout of three classes of floats, taken from their values: 1e-5 <= |x| <
1e-4 (0.0000123 becomes 1.23e-05), 1e-9 <= |x| < 1e-5 (1e-7 becomes 1e-07)
and |x| >= 1e16 (1e16 becomes 1e+16).  A block with none is left as orjson
wrote it; otherwise one scan locates the fixes and one rebuild makes the
text.  Masked and non-finite floats go through orjson as NaN, written as
null, and each null is replaced in order.  Samples where a quantity is
undefined are written as the string "singular", never as silent zeros.
"""

from __future__ import annotations

import json
import math
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .anomaly import LABELS
from .errors import ParameterError
from .observables import embed3


@cache
def _orjson():
    """orjson, imported on the first artifact write or read, as fields.special is.

    orjson's first decode allocates the parse buffer (8 MiB) it keeps for the
    life of the process.  It is made here, while the process is small, so that
    malloc maps it on its own; made by a later render, after grid arrays were
    freed, it would stay in the heap among them.  A render decodes pieces of
    about _PIECE bytes, which that buffer holds."""
    import orjson
    orjson.loads(b"0")
    return orjson


_COMMA, _OPEN, _CLOSE, _MINUS, _E, _DOT, _ZERO, _PLUS = b",[]-e.0+"
_BLOCK = 1 << 14  # floats or labels per block of rows when a layer is written
_SPLICE = 1 << 10  # a block with under one fix per this many bytes is joined around its fixes


def _repr_layout(raw: bytes, size):
    """orjson's text of a float array laid out as repr lays it out; size
    holds the floats' magnitudes (NaN for a null) in the array's shape.

    The floats to fix are classed by value, and raw itself is returned where
    there are none.  Else one scan for the commas places each fix by its
    rank, shifted by the growth of the fixes before it (-1 or -2 per band
    float, +1 per exponent), and one compress and one masked assign rebuild
    the text, or, under one fix per _SPLICE bytes, a join around them."""
    flat = size.reshape(-1)
    near = (flat < 1e-4) | (flat >= 1e16)  # zeros and |x| < 1e-9 too, which need no fix
    if not near.any() or not len(f := np.flatnonzero(near & (flat >= 1e-9))):
        return raw
    buf = np.frombuffer(raw, dtype=np.uint8)
    commas = np.flatnonzero(buf == _COMMA)
    if len(commas) != len(flat) - 1:
        raise RuntimeError(f"orjson wrote {len(commas) + 1} numbers for {len(flat)} floats")
    x = flat[f]
    band = (x >= 1e-5) & (x < 1e-4)
    cuts = np.concatenate(([0], commas, [len(buf) - 1]))  # the outer [ and ] as commas
    ends, starts = cuts[f + 1], cuts[f[band]] + 1
    for _ in range(size.ndim - 1):  # past the ]s and [s of rows and cells
        ends -= buf[ends - 1] == _CLOSE
        starts += buf[starts] == _OPEN
    starts += buf[starts] == _MINUS  # at the 0 of 0.0000
    bend, exp = ends[band], ~band
    one = bend - starts == 7  # a band float of one digit
    small = x[exp] < 1e-5
    at = ends[exp] - 2 + small - (x >= 1e100)[exp]  # where the + or the 0 goes
    misplaced = (buf[starts] != _ZERO) | (buf[starts + 1] != _DOT)
    if misplaced.any() or (buf[at - 1 - small] != _E).any():
        raise RuntimeError(f"orjson laid out some of {len(f)} floats otherwise than their values")
    if len(f) * _SPLICE < len(buf):
        edits = [(a, a + 7, raw[a + 6:a + 7] + b"."[:many])
                 for a, many in zip(starts.tolist(), (~one).tolist())]
        edits += [(b, b, b"e-05") for b in bend.tolist()]
        edits += [(a, a, b"0" if s else b"+") for a, s in zip(at.tolist(), small.tolist())]
        pieces, pos = [], 0
        for a, b, text in sorted(edits):
            pieces += (raw[pos:a], text)
            pos = b
        return b"".join(pieces + [raw[pos:]])
    grown = np.ones(len(f), dtype=np.int64)
    grown[band] = -1 - one
    grown = np.cumsum(grown)  # by each fix and those before it
    kept = buf
    if len(starts):  # 0.0000123 becomes 0.00001.23, then 1.23 without its zeros
        kept = np.array(buf)
        kept[starts + 5] = kept[starts + 6]
        kept[starts + 6] = _DOT
        kept[starts + np.arange(5)[:, None]] = 0
        kept[starts[one] + 6] = 0  # 0.00001 becomes 1
        kept = kept[kept != 0]
    out = np.zeros(len(buf) + grown[-1], dtype=np.uint8)
    bend += grown[band] - 4
    for k, byte in enumerate(b"e-05"):
        out[bend + k] = byte
    out[at - 1 + grown[exp]] = np.where(small, _ZERO, _PLUS)
    out[out == 0] = kept
    return out


def _float_text(values, mask=None) -> str:
    """The text of json.dumps(cells.tolist(), separators=(",", ":")), where
    cells holds the floats of `values` (of one or more dimensions) with
    "singular" on the cells of `mask`.

    orjson writes every float and _repr_layout gives its text repr's layout.
    Masked and non-finite floats are set to NaN, which orjson writes as null,
    and the nulls are replaced in order by "singular" and the floats' repr
    (inf, -inf and nan, which only a trace CSV holds)."""
    floats = np.array(values, dtype=np.float64, order="C")
    bad = ~np.isfinite(floats)
    nulls = bad
    if mask is not None:
        masked = np.broadcast_to(mask.reshape(mask.shape + (1,) * (floats.ndim - mask.ndim)),
                                 floats.shape)
        nulls = bad | masked
        bad &= ~masked
    texts = None
    if nulls.any():
        texts = ['"singular"'] * np.count_nonzero(nulls)
        for i, value in zip(np.flatnonzero(bad[nulls]).tolist(), floats[bad].tolist()):
            texts[i] = repr(value)
        floats[nulls] = np.nan
    lib = _orjson()
    text = str(_repr_layout(lib.dumps(floats, option=lib.OPT_SERIALIZE_NUMPY), np.abs(floats)),
               "ascii")
    if texts is None:
        return text
    pieces = text.split("null")
    if len(pieces) != len(texts) + 1:
        raise RuntimeError(f"orjson wrote {len(pieces) - 1} nulls for {len(texts)} floats")
    out = [""] * (2 * len(texts) + 1)
    out[0::2] = pieces
    out[1::2] = texts
    text = "".join(out)
    if mask is not None and mask.ndim < floats.ndim:  # a masked [x, y, z] cell is one "singular"
        text = text.replace('["singular","singular","singular"]', '"singular"')
    return text


class _Layer(NamedTuple):
    """A grid layer as written: its number of rows, the number of floats or
    labels in a row, and text(i, j), the JSON text of the list of rows i to j."""
    rows: int
    row_size: int
    text: Callable[[int, int], str]


def _scalar_layer(name, values, mask=None) -> _Layer:
    """A float layer, with "singular" on the cells of mask.  A vector layer's
    values end in an [x, y, z] axis that its mask lacks.

    JSON has no inf or nan: a layer that over- or underflows outside its
    singular cells cannot be written.  A vector cell is finite when all three
    of its components are."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if mask is not None:
        finite = finite.reshape(mask.shape + (-1,)).all(axis=-1) | mask
    if not finite.all():
        raise ParameterError(f"layer {name!r} cannot be represented: it holds non-finite "
                             "values outside singular cells")
    return _Layer(len(values), values[:1].size,
                  lambda i, j: _float_text(values[i:j], None if mask is None else mask[i:j]))


_LABEL_NAMES = np.array(LABELS, dtype=object)


def _label_layer(codes) -> _Layer:
    """A grid of anomaly.LABELS codes, written as nested lists of their names.
    orjson writes them: the names are ASCII, so its text is json.dumps's."""
    return _Layer(len(codes), codes[:1].size,
                  lambda i, j: _orjson().dumps(_LABEL_NAMES[codes[i:j]].tolist()).decode("ascii"))


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {what}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot read {what}: {path!r} is not UTF-8 text ({exc})")


def _decode(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{what} is not valid JSON: {exc}")
    except RecursionError:  # nested past the interpreter's recursion limit
        raise ParameterError(f"{what} nests arrays or objects too deeply to decode")


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _write_object(fh, obj: dict) -> None:
    """Write obj as _dumps writes it, one value at a time: a layer one block
    of rows at a time, so that no whole-layer text and no whole-layer
    temporary is held, and dicts are walked likewise."""
    fh.write("{")
    for i, key in enumerate(sorted(obj)):
        value = obj[key]
        fh.write(f"{',' if i else ''}{_dumps(key)}:")
        if isinstance(value, _Layer):
            step = max(1, _BLOCK // max(1, value.row_size))  # whole rows, at least one
            fh.write("[")
            for r in range(0, value.rows, step):
                fh.write(f"{',' if r else ''}{value.text(r, r + step)[1:-1]}")
            fh.write("]")
        elif isinstance(value, dict):
            _write_object(fh, value)
        else:
            fh.write(_dumps(value))
    fh.write("}")


def _write_json(path: str, obj: dict) -> None:
    # each piece is written as soon as it is encoded: no whole-artifact string
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_object(fh, obj)
        fh.write("\n")


def _write_trace_csv(path: str, trajectories) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("traj_id,s_or_z,x,y,z,re_px,re_py,re_pz,im_px,im_py,im_pz\n")
        for tid, traj in enumerate(trajectories):  # each holds at least its seed
            ndim = traj.points.shape[1]
            momenta = embed3(traj.momenta.T, ndim).T
            rows = np.column_stack(
                [traj.params, embed3(traj.points.T, ndim).T, momenta.real, momenta.imag])
            # [[a,b],[c,d]] becomes the lines "tid,a,b" and "tid,c,d"
            text = _float_text(rows)[2:-2].replace("],[", f"\n{tid},")
            fh.write(f"{tid},{text}\n")

_COMPONENTS = {"x": 0, "y": 1, "z": 2}
_NUMBERS = (int, float)  # exact types: a bool is not a number
_NOT_NUMBERS = (b'"', b"t", b"f", b"n", b"{")  # the first bytes of strings, literals and objects
_READ = 1 << 20  # bytes read from an artifact at a time when a layer is rendered
_PIECE = 1 << 18  # bytes of whole rows decoded at a time


def _non_finite(layer: str) -> ParameterError:
    return ParameterError(f"layer {layer!r} holds non-finite values (NaN, Infinity or a "
                          "numeral beyond the float range)")


def _render_cells(layer: str, rows: list, width, component, text=None):
    """Float values and singular mask of a layer's rows, each of `width`
    cells (None: as many as the first row has).  Rows and cells are read in
    row-major order and the first failure raises: a row that is not a list
    (checked first, for every row), a row of the wrong length, a cell that
    is neither a number nor "singular" (nor, with a component, a vector cell
    holding a number there), or an integer numeral beyond the float range.
    A number is an int or a float, never a bool; NaN and infinite floats
    pass, for the caller to report.

    text, where given, is the JSON text of rows.  Where it holds no string,
    literal or object, _numbers reads rows of numbers, or of vector cells,
    at once."""
    if not all(isinstance(row, list) for row in rows):
        raise ParameterError(f"layer {layer!r} is not a list of rows")
    if width is None:
        width = len(rows[0]) if rows else 0
    axis = _COMPONENTS.get(component)
    if text is not None and not any(map(text.__contains__, _NOT_NUMBERS)):
        values = _numbers(rows, width, axis)
        if values is not None:
            return values, np.zeros(values.shape, dtype=bool)
    values = np.empty((len(rows), width))
    mask = np.zeros((len(rows), width), dtype=bool)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParameterError(f"layer {layer!r} rows have inconsistent lengths")
        numbers = row  # copied only when a cell is not a float
        for j, cell in enumerate(row):
            if type(cell) is float:
                continue
            if type(cell) is list and axis is not None:
                cell = cell[axis] if axis < len(cell) else None
                if type(cell) not in _NUMBERS:
                    raise ParameterError(f"layer {layer!r} has a vector cell without a "
                                         f"numeric {component} component")
            if type(cell) in _NUMBERS:
                try:
                    value = float(cell)
                except OverflowError:  # an integer numeral too large for a float
                    raise _non_finite(layer)
            elif cell == "singular":
                mask[i, j] = True
                value = 0.0
            elif type(cell) is list:
                raise ParameterError(f"layer {layer!r} is a vector layer; pass --component x|y|z")
            else:
                raise ParameterError(f"layer {layer!r} is not numeric (cell {cell!r}); "
                                     "categorical layers cannot be rendered")
            if numbers is row:
                numbers = list(row)
            numbers[j] = value
        values[i] = numbers
    return values, mask


def _numbers(rows: list, width: int, axis):
    """The float values of rows of `width` numbers, or with an axis of that
    component of rows of `width` vector cells; None for rows of another
    shape.  Each cell must be a number or an array, as where the rows'
    JSON text holds no string, literal or object."""
    from itertools import chain
    from operator import itemgetter
    if set(map(len, rows)) - {width}:
        return None
    if axis is None:
        try:
            values = np.array(rows, dtype=float)
        except ValueError:  # arrays among the numbers
            return None
        return values if values.shape == (len(rows), width) else None
    cells = list(chain.from_iterable(rows))
    if set(map(type, cells)) != {list} or min(map(len, cells)) <= axis:
        return None
    numbers = list(map(itemgetter(axis), cells))
    if not set(map(type, numbers)) <= set(_NUMBERS):
        return None
    return np.array(numbers, dtype=float).reshape(len(rows), width)


def _pgm(layer: str, values, mask) -> bytes:
    """The binary PGM of a layer's float values, black on its singular cells.
    A layer without cells, or with a non-finite value, raises."""
    if not values.size:
        raise ParameterError(f"layer {layer!r} is empty")
    if not np.isfinite(values).all():
        raise _non_finite(layer)
    height, width = values.shape
    live = values[~mask]
    pixels = np.zeros((height, width), dtype=np.uint8)
    if live.size:
        vmin = float(live.min())
        vmax = float(live.max())
        if not math.isfinite(vmax - vmin):  # the values span more than a double holds
            values, vmin, vmax = 0.5 * values, 0.5 * vmin, 0.5 * vmax
        if vmax == vmin:
            pixels[~mask] = 128
        else:
            scaled = values - vmin  # then scaled in place: one temporary
            scaled /= vmax - vmin
            scaled *= 255.0
            pixels = np.clip(np.rint(scaled, out=scaled), 0, 255, out=scaled).astype(np.uint8)
            pixels[mask] = 0
    # Row 0 of the data is the lowest second-axis coordinate; PGM viewers
    # draw row 0 at the top, so maps appear flipped vs. plot conventions.
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


def _json_cells(obj, path: str, layer: str, component):
    """Values and mask of the named layer of obj, the artifact json decoded from path."""
    layers = obj.get("layers") if isinstance(obj, dict) else None
    if not isinstance(layers, dict) or layer not in layers:
        raise ParameterError(f"no layer {layer!r} in {path}")
    rows = layers[layer]
    if not isinstance(rows, list):
        raise ParameterError(f"layer {layer!r} is not a list of rows")
    return _render_cells(layer, rows, None, component)


class _Bytes:
    """The bytes of a file from a cursor on: buf[pos:end], read as they are
    asked for into a buffer of _READ bytes (less for a smaller file, more
    where more are asked for at once)."""

    def __init__(self, fh):
        size = fh.seek(0, 2) + 1  # one more: a read that returns nothing ends the file
        fh.seek(0)
        self.fh, self.buf, self.pos, self.end = fh, bytearray(min(size, _READ)), 0, 0

    def ahead(self, n: int) -> int:
        """How many of the next n bytes there are, fewer only at the end of
        the file; they are read into buf[pos:end] first."""
        if self.end - self.pos < n and self.fh:
            left = self.end - self.pos
            self.buf[:left] = self.buf[self.pos:self.end]
            if n > len(self.buf):
                self.buf += bytes(n - len(self.buf))
            self.pos, self.end = 0, left
            while self.end < n:
                got = self.fh.readinto(memoryview(self.buf)[self.end:])
                if not got:
                    self.fh = None  # the end of the file
                    break
                self.end += got
        return min(n, self.end - self.pos)

    def find(self, sub: bytes, n: int) -> int:
        """The offset of the first sub within the next n bytes, or -1."""
        n = self.ahead(n)  # first: it may move buf[pos:] to the front
        i = self.buf.find(sub, self.pos, self.pos + n)
        return i - self.pos if i >= 0 else -1

    def peek(self, n: int, before=b"", after=b"") -> bytes:
        """The next n bytes, between before and after."""
        if not 0 <= n <= self.ahead(n):
            raise ValueError("the artifact ends early")
        return b"".join((before, memoryview(self.buf)[self.pos:self.pos + n], after))

    def skip(self, n: int) -> None:
        self.pos += n

    def take(self, n: int) -> bytes:
        """The next n bytes; the cursor moves past them."""
        text = self.peek(n)
        self.pos += n
        return text


def _has_keys(lib, text) -> bool:
    """Whether {text} is a JSON object with a key, and with no "layers" key."""
    obj = lib.loads(b"".join((b"{", text, b"}")))
    return bool(obj) and "layers" not in obj


def _row_kind(rows):
    """"vector" where a row holds an array cell, "scalar" where it holds a
    number or literal, None where each cell is a string (or there is none)."""
    cells = {type(cell) for row in rows if type(row) is list for cell in row}
    return "vector" if list in cells else "scalar" if cells - {str} else None


def _row_end(src: _Bytes, n: int, kind) -> int:
    """The offset of a bracket that closes a row of a layer within the next n
    bytes, found by the bytes around it in the writer's layout, or -1: the
    last that is followed by another row (a "scalar" layer's rows close in
    ],[ and a "vector" layer's in ]],[ or "],[), or the first bracket where
    the kind is not known."""
    buf, lo, hi = src.buf, src.pos, src.pos + n
    if kind is None:
        at = buf.find(b"]", lo, hi)
    elif kind == "scalar":
        at = buf.rfind(b"],[", lo, hi)
    else:
        at = buf.rfind(b"]],[", lo, hi)
        at = max(at, buf.rfind(b'"],[', max(lo, at), hi))
        if at >= 0:
            at += 1  # the row's bracket, after the cell's
    return at - lo if at >= 0 else -1


def _layer_rows(src: _Bytes, lib, layer: str, component, keep: bool):
    """Decode the rows of a layer, whose opening bracket is read, and read
    its closing bracket.  Returns the values and mask of its cells where
    keep, else None.

    The rows are decoded a piece of whole rows at a time, within the next
    _PIECE bytes where a row is not longer.  In the writer's layout the
    layer closes at the last bracket before the next ':' (the next layer's
    key) or '}' (the end of the layers), and _row_end finds where a row
    closes.  Bytes laid out otherwise give a piece that does not decode."""
    blocks, width, kind, size = [], None, None, _PIECE
    while True:
        n = src.ahead(size)
        ahead = [i for i in (src.find(b":", n), src.find(b"}", n)) if i >= 0]
        end = src.buf.rfind(b"]", src.pos, src.pos + min(ahead)) - src.pos if ahead else -1
        closing = end >= 0
        if not closing:
            end = _row_end(src, n, kind) + 1
            if not end:  # no row closes within the window
                if ahead or n < size:
                    raise ValueError("a layer does not close where the writer closes it")
                size *= 2
                continue
        text = src.peek(end, b"[", b"]")
        try:
            rows = lib.loads(text)
        except lib.JSONDecodeError:
            if kind is not None or closing:
                raise
            kind = "vector"  # the first bracket closed a vector cell, not the row
            continue
        src.skip(end)
        if not rows and blocks:  # nothing between a comma and the layer's bracket
            raise ValueError("a row is missing")
        blocks.append(_render_cells(layer, rows, width, component, text) if keep else None)
        if keep:
            width = blocks[-1][0].shape[1]
        sep = src.take(1)
        if sep == b"]":  # the layer's bracket
            break
        if closing or sep != b",":
            raise ValueError("rows not separated by a comma")
        kind = kind or _row_kind(rows)
        size = _PIECE
    if not keep:
        return None
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _read_layer(path: str, layer: str, component):
    """Values and mask of the named layer of the artifact at path, read in
    the layout _write_json writes: {<keys>,"layers":{"<name>":[<row>,...],
    ...},<keys>} and a newline, where either run of keys may be absent.

    orjson decodes every value of the file, and every layer a piece of
    whole rows at a time; only the named layer's cells are kept.  Whatever
    is laid out otherwise, or could be read otherwise by json.loads (a
    repeated key, a literal that orjson rejects), raises ValueError."""
    lib = _orjson()
    found, names = None, set()
    with open(path, "rb", buffering=0) as fh:
        src = _Bytes(fh)
        head = src.take(src.find(b'"layers":{', _READ))
        if head != b"{" and not (head[:1] == b"{" and head[-1:] == b","
                                 and _has_keys(lib, head[1:-1])):
            raise ValueError("the artifact does not open with its keys and its layers")
        src.skip(10)
        while True:
            name = lib.loads(src.take(src.find(b'":[', _READ) + 1))
            if type(name) is not str or name in names:
                raise ValueError("a layer name that is no new string")
            names.add(name)
            src.skip(2)
            cells = _layer_rows(src, lib, layer, component, name == layer)
            if name == layer:
                found = cells
            sep = src.take(1)
            if sep == b"}":
                break
            if sep != b",":
                raise ValueError("layers not separated by a comma")
        tail = src.take(src.ahead(_READ))
        if src.ahead(1) or tail != b"}\n" and not (tail[:1] == b"," and tail[-2:] == b"}\n"
                                                  and _has_keys(lib, tail[1:-2])):
            raise ValueError("the artifact does not close with its keys and a newline")
    if found is None:
        raise ValueError(f"no layer {layer!r}")
    return found


def _render(path: str, layer: str, component) -> bytes:
    """The binary PGM of a layer of the artifact at path.  _read_layer reads
    the writer's layout.  Where it raises, or the render would exit 2, json
    decodes the text again: every rejection is json's reading, with json's
    message."""
    try:
        pgm = _pgm(layer, *_read_layer(path, layer, component))
    except (OSError, ValueError):  # orjson's errors and ParameterError are ValueErrors
        pgm = None  # outside the handler: its traceback would keep the decoded rows alive
    if pgm is None:
        obj = _decode(_read_text(path, "grid result"), "grid result")
        pgm = _pgm(layer, *_json_cells(obj, path, layer, component))
    return pgm
