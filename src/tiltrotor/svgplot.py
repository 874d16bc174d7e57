"""Minimal SVG line plots for the batch outputs.

Fixed-geometry polyline plots meant for eyeball comparison, not a
plotting library: axes box, a handful of ticks, one polyline per series.
A polyline's points are pixel coordinates written as ``%.2f``, made in
numpy by :func:`tiltrotor._files.points_text`.  The title and colours are
XML-escaped, so any text gives a well-formed file.
"""

from __future__ import annotations

import numpy as np

from tiltrotor._files import points_text
from tiltrotor.model import _floats

_MARGIN = 50.0
# the entities that XML text and a double-quoted attribute need; a table,
# since xml.sax.saxutils imports urllib.request (about 6 MB of RSS)
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


class LinePlot:
    """A ``width`` by ``height`` plot of the box ``xlim`` by ``ylim``.

    Raises :class:`ValueError` unless each limit is two finite, increasing
    numbers a finite span apart and each side is finite and larger than
    twice the margin.
    """

    def __init__(self, xlim, ylim, width=640, height=480, title=""):
        self.xlim = _floats(xlim, 2, "xlim")
        self.ylim = _floats(ylim, 2, "ylim")
        if self.xlim[0] >= self.xlim[1] or self.ylim[0] >= self.ylim[1]:
            raise ValueError(f"axis limits must be increasing, got xlim={self.xlim}, ylim={self.ylim}")
        if not (self.xlim[1] - self.xlim[0] < np.inf and self.ylim[1] - self.ylim[0] < np.inf):
            raise ValueError(f"axis spans must be finite, got xlim={self.xlim}, ylim={self.ylim}")
        for name, side in (("width", width), ("height", height)):
            if not 2 * _MARGIN < side < np.inf:
                raise ValueError(f"{name} must be finite and larger than {2 * _MARGIN:g}, got {side!r}")
        self.width = width
        self.height = height
        self.title = title
        self._elements: list[str] = []

    def _to_px(self, x, y):
        sx = (self.width - 2 * _MARGIN) / (self.xlim[1] - self.xlim[0])
        sy = (self.height - 2 * _MARGIN) / (self.ylim[1] - self.ylim[0])
        px = _MARGIN + (np.asarray(x, dtype=float) - self.xlim[0]) * sx
        py = self.height - _MARGIN - (np.asarray(y, dtype=float) - self.ylim[0]) * sy
        return px, py

    def polyline(self, xs, ys, color="black", width=1.2):
        """Draw the points ``(xs, ys)``; a line of fewer than two points draws nothing.

        Raises :class:`ValueError` unless ``xs`` and ``ys`` are 1-D, of one
        length, and finite, and so are their pixel coordinates.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError(f"polyline xs and ys must be 1-D and of one length, "
                             f"got shapes {xs.shape} and {ys.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            px, py = self._to_px(xs, ys)
        for name, values, pixels in (("xs", xs, px), ("ys", ys, py)):
            bad = np.flatnonzero(~np.isfinite(pixels))
            if bad.size:
                raise ValueError(f"polyline {name} must be finite and in reach of the axis "
                                 f"limits, got {float(values[bad[0]])!r} at index {bad[0]}")
        if xs.size < 2:
            return
        stroke = color.translate(_XML_ESCAPES)
        self._elements.append(
            f'<polyline points="{points_text(px, py)}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    def _axes(self) -> list[str]:
        out = []
        x0, y0 = _MARGIN, _MARGIN
        x1, y1 = self.width - _MARGIN, self.height - _MARGIN
        out.append(
            f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
            'fill="none" stroke="black" stroke-width="1"/>'
        )
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.xlim[0] + frac * (self.xlim[1] - self.xlim[0])
            yv = self.ylim[0] + frac * (self.ylim[1] - self.ylim[0])
            px = x0 + frac * (x1 - x0)
            py = y1 - frac * (y1 - y0)
            out.append(f'<line x1="{px:.1f}" y1="{y1}" x2="{px:.1f}" y2="{y1 + 5}" stroke="black"/>')
            out.append(
                f'<text x="{px:.1f}" y="{y1 + 18}" font-size="11" text-anchor="middle">{xv:.3g}</text>'
            )
            out.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
            out.append(
                f'<text x="{x0 - 8}" y="{py + 4:.1f}" font-size="11" text-anchor="end">{yv:.3g}</text>'
            )
        if self.title:
            out.append(
                f'<text x="{self.width / 2}" y="{_MARGIN - 14}" font-size="14" '
                f'text-anchor="middle">{self.title.translate(_XML_ESCAPES)}</text>'
            )
        return out

    def save(self, path) -> None:
        body = "\n".join(self._axes() + self._elements)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
                f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
                f"{body}\n</svg>\n"
            )
