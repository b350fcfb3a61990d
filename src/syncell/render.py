"""Headless frame rendering: palette-indexed buffer, P6 pixmaps, ASCII grids.

The palette is fixed by this repository (it makes no claim about anyone
else's color choices): six basic-state colors plus wall, source, detector
and background. With remanence on, a pixel once painted by a cell or a
particle is never cleared again within the run, which accumulates the full
trace picture of an emission.
"""

from __future__ import annotations

from math import floor

from .world import World

# palette indices
BG = 0
WALL = 1
SOURCE = 2
DETECTOR = 3
STATE0 = 4  # states s map to STATE0 + s

PALETTE: list[tuple[int, int, int]] = [
    (240, 240, 240),  # background
    (0, 0, 0),  # wall
    (220, 40, 40),  # source block
    (255, 150, 40),  # detector zone
    (50, 80, 230),  # state 0
    (40, 180, 70),  # state 1
    (235, 200, 40),  # state 2
    (230, 90, 200),  # state 3
    (60, 200, 220),  # state 4
    (150, 80, 40),  # state 5
]

ASCII_CHARS = ".#SD012345"

# bytes.translate tables (palette index to color channel, to character)
_CHANNEL_TABLES = [bytes(rgb[ch] for rgb in PALETTE).ljust(256, b"\0") for ch in range(3)]
_ASCII_TABLE = ASCII_CHARS.encode("ascii").ljust(256, b"?")
_PALETTE_INDICES = bytes(range(len(PALETTE)))


class FrameBuffer:
    """A width x height grid of palette indices, one pixel per cell."""

    def __init__(self, width: int, height: int, remanence: bool = False):
        self.width = width
        self.height = height
        self.remanence = remanence
        self.buf = bytearray(width * height)
        self._static: bytes | None = None

    def _paint_static(self, world: World) -> bytes:
        width = self.width
        static = bytearray(world.grid.walls)  # its wall byte 1 is WALL
        for d in world.detectors:
            for y in range(d.y0, d.y1 + 1):
                for x in range(d.x0, d.x1 + 1):
                    static[y * width + x] = DETECTOR
        for s in world.sources:
            static[s.y * width + s.x] = SOURCE
        return bytes(static)

    def paint(self, world: World) -> "FrameBuffer":
        """Draw the current world state; with remanence, accumulate instead."""
        if self._static is None:
            self._static = self._paint_static(world)
            self.buf[:] = self._static
        elif not self.remanence:
            self.buf[:] = self._static
        width = self.width
        buf = self.buf
        for c, s in world.visible.items():
            buf[c.y * width + c.x] = STATE0 + s
        for p in world.particles:
            x, y = floor(p.fx), floor(p.fy)  # the stepper's cell, off-grid on (-1, 0)
            if 0 <= x < width and 0 <= y < self.height:
                buf[y * width + x] = STATE0 + p.state
        return self

    def _checked_buf(self) -> bytearray:
        if self.buf.translate(None, _PALETTE_INDICES):
            raise IndexError("frame buffer holds an index outside the palette")
        return self.buf

    def to_ppm_bytes(self) -> bytes:
        header = f"P6\n{self.width} {self.height}\n255\n".encode("ascii")
        buf = self._checked_buf()
        body = bytearray(len(buf) * 3)
        for ch, table in enumerate(_CHANNEL_TABLES):
            body[ch::3] = buf.translate(table)
        return header + body

    def to_ascii(self) -> str:
        text = self.buf.translate(_ASCII_TABLE).decode("ascii")
        if "?" in text:  # _ASCII_TABLE's "?" is exactly the indices past the palette
            raise IndexError("frame buffer holds an index outside the palette")
        width = self.width
        return "\n".join(text[y * width : (y + 1) * width] for y in range(self.height)) + "\n"
