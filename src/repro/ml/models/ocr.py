"""OCR pipeline: table detection + glyph recognition from pixels (paper §5.2).

The paper's ``extract_table`` UDF "internally employs a pipeline of ML models
to: (1) recognize where the table is in the image; and (2) OCR the image and
convert it into a plain tensor". Our offline equivalent:

* :class:`TableDetector` — locates text bands via ink projection profiles
  (rows from horizontal projections, columns from vertical ones);
* :class:`CharacterOCR` — classifies each character cell by correlating it
  against the bitmap-font template atlas under a 3x3 grid of pixel shifts
  (test-time alignment jitter), computed as a batched tensor contraction.

The pipeline reads numbers back from raw pixels — no layout metadata is
smuggled in — so the conversion cost behind the TVF is genuine, which is the
property Fig 3-left's lazy-vs-bulk comparison measures.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.datasets.fonts import GLYPH_HEIGHT, GLYPH_WIDTH, NUMERIC_CHARSET, glyph_atlas
from repro.errors import ExecutionError
from repro.tcr import ops
from repro.tcr.tensor import Tensor


@dataclasses.dataclass
class Band:
    start: int
    stop: int


def _bands(profile: np.ndarray, threshold: float, min_gap: int = 2) -> List[Band]:
    """Contiguous runs where the ink profile exceeds ``threshold``."""
    active = profile > threshold
    bands: List[Band] = []
    start = None
    gap = 0
    for i, flag in enumerate(active):
        if flag:
            if start is None:
                start = i
            gap = 0
        elif start is not None:
            gap += 1
            if gap >= min_gap:
                bands.append(Band(start, i - gap + 1))
                start = None
                gap = 0
    if start is not None:
        bands.append(Band(start, len(active)))
    return bands


class TableDetector:
    """Stage 1: find the table's text rows and columns from projections."""

    def __init__(self, ink_threshold: float = 0.35):
        self.ink_threshold = ink_threshold

    def ink(self, image: np.ndarray) -> np.ndarray:
        """White-on-black ink map from a white-page grayscale image."""
        if image.ndim == 3:
            image = image[0]
        return np.clip(1.0 - image, 0.0, 1.0)

    def detect(self, image: np.ndarray) -> Tuple[np.ndarray, List[Band], List[Band]]:
        """Return (ink map, row bands, column bands) — header row included."""
        ink = self.ink(image)
        binary = ink > self.ink_threshold
        rows = _bands(binary.sum(axis=1).astype(np.float64), 0.5, min_gap=3)
        if not rows:
            raise ExecutionError("table detector found no text rows")
        # Column bands from the data rows only (header words are wider).
        data_top = rows[1].start if len(rows) > 1 else rows[0].start
        cols = _bands(binary[data_top:].sum(axis=0).astype(np.float64), 0.5,
                      min_gap=GLYPH_WIDTH * 2)
        if not cols:
            raise ExecutionError("table detector found no text columns")
        return ink, rows, cols


class CharacterOCR:
    """Stage 2: template-correlation glyph classifier with shift ensemble."""

    def __init__(self, scale: int = 2, charset: str = NUMERIC_CHARSET.strip(),
                 shifts: int = 1):
        self.scale = scale
        self.charset = charset
        self.shifts = shifts              # radius of the alignment jitter grid
        atlas = glyph_atlas(charset, scale=scale)
        self.glyph_h = GLYPH_HEIGHT * scale
        self.glyph_w = GLYPH_WIDTH * scale
        templates = np.stack([atlas[c] for c in charset])
        norms = np.sqrt((templates ** 2).sum(axis=(1, 2), keepdims=True))
        self.templates = Tensor((templates / np.maximum(norms, 1e-6))
                                .reshape(len(charset), -1).astype(np.float32))

    def classify_cells(self, cells: np.ndarray) -> str:
        """Classify a batch of (n, glyph_h, glyph_w) character crops."""
        n = cells.shape[0]
        if n == 0:
            return ""
        best_scores = np.full((n, len(self.charset)), -np.inf, dtype=np.float32)
        radius = self.shifts
        padded = np.pad(cells, ((0, 0), (radius, radius), (radius, radius)))
        for dr in range(2 * radius + 1):
            for dc in range(2 * radius + 1):
                view = padded[:, dr:dr + self.glyph_h, dc:dc + self.glyph_w]
                flat = Tensor(np.ascontiguousarray(view.reshape(n, -1)))
                # Normalised cross-correlation against every template.
                scores = ops.matmul(flat, self.templates.T).data
                best_scores = np.maximum(best_scores, scores)
        indices = best_scores.argmax(axis=1)
        return "".join(self.charset[i] for i in indices)

    def read_cell(self, ink: np.ndarray) -> str:
        """Segment one table cell into character crops and classify them."""
        profile = (ink > 0.35).sum(axis=0).astype(np.float64)
        chars = _bands(profile, 0.5, min_gap=2)
        crops = []
        for band in chars:
            crop = ink[:, band.start:band.stop]
            canvas = np.zeros((self.glyph_h, self.glyph_w), dtype=np.float32)
            h = min(crop.shape[0], self.glyph_h)
            w = min(crop.shape[1], self.glyph_w)
            canvas[:h, :w] = crop[:h, :w]
            crops.append(canvas)
        if not crops:
            return ""
        return self.classify_cells(np.stack(crops))


class TableExtractor:
    """The full pipeline behind the paper's ``extract_table`` TVF."""

    def __init__(self, detector: Optional[TableDetector] = None,
                 recognizer: Optional[CharacterOCR] = None):
        self.detector = detector or TableDetector()
        self.recognizer = recognizer or CharacterOCR()

    def extract(self, image: np.ndarray) -> List[List[float]]:
        """Image → rows of floats (header row recognised then skipped)."""
        ink, rows, cols = self.detector.detect(image)
        data: List[List[float]] = []
        for row_band in rows[1:]:
            row_values: List[float] = []
            for col_band in cols:
                cell = ink[row_band.start:row_band.stop, col_band.start:col_band.stop]
                text = self.recognizer.read_cell(cell)
                row_values.append(_parse_float(text))
            data.append(row_values)
        if not data:
            raise ExecutionError("no data rows recognised in document image")
        return data

    def extract_columns(self, images: np.ndarray) -> np.ndarray:
        """Batch of (n, 1, H, W) images → stacked (total_rows, n_cols) floats."""
        all_rows: List[List[float]] = []
        for i in range(images.shape[0]):
            all_rows.extend(self.extract(images[i]))
        return np.asarray(all_rows, dtype=np.float32)


def _parse_float(text: str) -> float:
    cleaned = text.strip().strip("-") if text.strip() == "-" else text.strip()
    try:
        return float(cleaned)
    except ValueError:
        # Recover common single-glyph confusions rather than dropping the row.
        digits = "".join(c for c in cleaned if c.isdigit() or c == ".")
        try:
            return float(digits) if digits else float("nan")
        except ValueError:
            return float("nan")
