"""Minimal SVG line plots for the batch outputs.

Fixed-geometry polyline plots meant for eyeball comparison, not a
plotting library: axes box, a handful of ticks, one polyline per series.
"""

from __future__ import annotations

import numpy as np

_MARGIN = 50.0


class LinePlot:
    def __init__(self, xlim, ylim, width=640, height=480, title=""):
        if xlim[0] >= xlim[1] or ylim[0] >= ylim[1]:
            raise ValueError("axis limits must be increasing")
        self.xlim = (float(xlim[0]), float(xlim[1]))
        self.ylim = (float(ylim[0]), float(ylim[1]))
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
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size < 2:
            return
        px, py = self._to_px(xs, ys)
        # one %-format over plain floats for the whole line: formatting point
        # by point, and numpy scalars above all, costs several times more
        xy = np.column_stack((px, py)).ravel().tolist()
        pts = ("%.2f,%.2f " * px.size % tuple(xy))[:-1]
        self._elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'
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
                f'text-anchor="middle">{self.title}</text>'
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
