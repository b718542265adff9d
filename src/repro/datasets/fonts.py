"""A built-in 5x7 bitmap font and text rasteriser.

This replaces the external rendering stacks the paper uses
(``dataframe_image`` for document tables; handwriting data for MNIST): text
and tables are rasterised from these glyphs, and the OCR pipeline
(:mod:`repro.ml.models.ocr`) recognises them back from pixels via template
matching, closing the image→table loop entirely inside the repo.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

# Each glyph is 7 rows x 5 columns; '#' = ink.
_GLYPHS = {
    "0": ["#####", "#...#", "#..##", "#.#.#", "##..#", "#...#", "#####"],
    "1": ["..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."],
    "2": ["#####", "....#", "....#", "#####", "#....", "#....", "#####"],
    "3": ["#####", "....#", "....#", ".####", "....#", "....#", "#####"],
    "4": ["#...#", "#...#", "#...#", "#####", "....#", "....#", "....#"],
    "5": ["#####", "#....", "#....", "#####", "....#", "....#", "#####"],
    "6": ["#####", "#....", "#....", "#####", "#...#", "#...#", "#####"],
    "7": ["#####", "....#", "...#.", "..#..", ".#...", ".#...", ".#..."],
    "8": ["#####", "#...#", "#...#", "#####", "#...#", "#...#", "#####"],
    "9": ["#####", "#...#", "#...#", "#####", "....#", "....#", "#####"],
    "A": [".###.", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"],
    "B": ["####.", "#...#", "#...#", "####.", "#...#", "#...#", "####."],
    "C": [".####", "#....", "#....", "#....", "#....", "#....", ".####"],
    "D": ["####.", "#...#", "#...#", "#...#", "#...#", "#...#", "####."],
    "E": ["#####", "#....", "#....", "####.", "#....", "#....", "#####"],
    "F": ["#####", "#....", "#....", "####.", "#....", "#....", "#...."],
    "G": [".####", "#....", "#....", "#.###", "#...#", "#...#", ".###."],
    "H": ["#...#", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"],
    "I": [".###.", "..#..", "..#..", "..#..", "..#..", "..#..", ".###."],
    "J": ["..###", "...#.", "...#.", "...#.", "...#.", "#..#.", ".##.."],
    "K": ["#...#", "#..#.", "#.#..", "##...", "#.#..", "#..#.", "#...#"],
    "L": ["#....", "#....", "#....", "#....", "#....", "#....", "#####"],
    "M": ["#...#", "##.##", "#.#.#", "#.#.#", "#...#", "#...#", "#...#"],
    "N": ["#...#", "##..#", "#.#.#", "#..##", "#...#", "#...#", "#...#"],
    "O": [".###.", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."],
    "P": ["####.", "#...#", "#...#", "####.", "#....", "#....", "#...."],
    "Q": [".###.", "#...#", "#...#", "#...#", "#.#.#", "#..#.", ".##.#"],
    "R": ["####.", "#...#", "#...#", "####.", "#.#..", "#..#.", "#...#"],
    "S": [".####", "#....", "#....", ".###.", "....#", "....#", "####."],
    "T": ["#####", "..#..", "..#..", "..#..", "..#..", "..#..", "..#.."],
    "U": ["#...#", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."],
    "V": ["#...#", "#...#", "#...#", "#...#", "#...#", ".#.#.", "..#.."],
    "W": ["#...#", "#...#", "#...#", "#.#.#", "#.#.#", "##.##", "#...#"],
    "X": ["#...#", "#...#", ".#.#.", "..#..", ".#.#.", "#...#", "#...#"],
    "Y": ["#...#", "#...#", ".#.#.", "..#..", "..#..", "..#..", "..#.."],
    "Z": ["#####", "....#", "...#.", "..#..", ".#...", "#....", "#####"],
    ".": [".....", ".....", ".....", ".....", ".....", ".##..", ".##.."],
    "-": [".....", ".....", ".....", "#####", ".....", ".....", "....."],
    ":": [".....", ".##..", ".##..", ".....", ".##..", ".##..", "....."],
    "/": ["....#", "....#", "...#.", "..#..", ".#...", "#....", "#...."],
    "$": ["..#..", ".####", "#.#..", ".###.", "..#.#", "####.", "..#.."],
    " ": [".....", ".....", ".....", ".....", ".....", ".....", "....."],
}

GLYPH_HEIGHT = 7
GLYPH_WIDTH = 5
CHARSET = "".join(sorted(_GLYPHS))
# Characters that may appear inside numeric table cells (OCR's charset).
NUMERIC_CHARSET = "0123456789.- "


def glyph(char: str, scale: int = 1) -> np.ndarray:
    """Rasterise one character to a float array in [0, 1] (1 = ink)."""
    char = char.upper()
    rows = _GLYPHS.get(char)
    if rows is None:
        rows = _GLYPHS[" "]
    bitmap = np.array([[1.0 if c == "#" else 0.0 for c in row] for row in rows],
                      dtype=np.float32)
    if scale > 1:
        bitmap = np.repeat(np.repeat(bitmap, scale, axis=0), scale, axis=1)
    return bitmap


def glyph_atlas(charset: Iterable[str] = CHARSET, scale: int = 1
                ) -> Dict[str, np.ndarray]:
    """Template dictionary used by the OCR matcher."""
    return {c: glyph(c, scale) for c in charset}


def render_text(text: str, scale: int = 1, spacing: int = 1) -> np.ndarray:
    """Rasterise a text line to a (7*scale, n*(5+spacing)*scale) array."""
    if not text:
        return np.zeros((GLYPH_HEIGHT * scale, 0), dtype=np.float32)
    pitch = (GLYPH_WIDTH + spacing) * scale
    height = GLYPH_HEIGHT * scale
    out = np.zeros((height, pitch * len(text)), dtype=np.float32)
    for i, char in enumerate(text):
        out[:, i * pitch:i * pitch + GLYPH_WIDTH * scale] = glyph(char, scale)
    return out


def paste(canvas: np.ndarray, patch: np.ndarray, top: int, left: int,
          value: float = 1.0) -> None:
    """Blend a glyph patch onto a canvas at (top, left) (in-place, clipped)."""
    h, w = patch.shape
    h = min(h, canvas.shape[0] - top)
    w = min(w, canvas.shape[1] - left)
    if h <= 0 or w <= 0:
        return
    region = canvas[top:top + h, left:left + w]
    canvas[top:top + h, left:left + w] = np.maximum(region, patch[:h, :w] * value)
