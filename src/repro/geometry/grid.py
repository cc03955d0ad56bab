"""Uniform grid discretisation of the 2-D space (paper section 3.3).

The paper discretises the continuous space into small rectangular regions of
size ``g_x x g_y``; only the centres of these regions may serve as positions
in a trajectory pattern.  A :class:`Grid` assigns every cell a stable integer
identifier ``cell = row * nx + col`` so that patterns are plain tuples of
ints and numpy indexing stays cheap.

Coordinates outside the grid extent are clamped to the border cells: the
trajectories that produce them are still usable, they simply map to the
outermost region (the alternative -- raising -- would make every generator
responsible for never overshooting the bounding box by a ULP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point


@dataclass(frozen=True)
class Grid:
    """A uniform ``nx x ny`` grid over a bounding box.

    Parameters
    ----------
    bbox:
        Spatial extent covered by the grid.
    nx, ny:
        Number of cells along x and y.

    >>> grid = Grid(BoundingBox.unit(), nx=10, ny=10)
    >>> grid.locate(0.05, 0.05)
    0
    >>> grid.cell_center(0)
    Point(x=0.05, y=0.05)
    """

    bbox: BoundingBox
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError(f"grid must have positive dimensions, got {self.nx}x{self.ny}")
        if self.bbox.width <= 0 or self.bbox.height <= 0:
            raise ValueError("grid bounding box must have positive area")
        # Cell ids are int32 throughout the index.  A grid holds no per-cell
        # array (centres are computed from the ids on demand), so making
        # one costs nothing whatever its size.
        limit = np.iinfo(np.int32).max
        if self.n_cells > limit:
            raise ValueError(f"{self.n_cells} cell ids exceed int32 (at most {limit})")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def cover(cls, bbox: BoundingBox, cell_size: float) -> "Grid":
        """Grid of square cells of side ``cell_size`` covering ``bbox``.

        The extent is padded on the max side so an integer number of cells
        fits; the paper's ``g_x = g_y = delta`` convention maps to
        ``Grid.cover(bbox, delta)``.
        """
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        nx = max(1, int(np.ceil(bbox.width / cell_size)))
        ny = max(1, int(np.ceil(bbox.height / cell_size)))
        padded = BoundingBox(
            bbox.min_x,
            bbox.min_y,
            bbox.min_x + nx * cell_size,
            bbox.min_y + ny * cell_size,
        )
        return cls(padded, nx, ny)

    @classmethod
    def cover_points(cls, points: np.ndarray, cell_size: float, margin: float = 0.0) -> "Grid":
        """Square-celled grid covering an ``(n, 2)`` point cloud."""
        return cls.cover(BoundingBox.of_points(points).expand(margin), cell_size)

    # -- basic properties ------------------------------------------------------

    @property
    def gx(self) -> float:
        """Cell width."""
        return self.bbox.width / self.nx

    @property
    def gy(self) -> float:
        """Cell height."""
        return self.bbox.height / self.ny

    @property
    def n_cells(self) -> int:
        """Total number of cells ``G`` (the paper's grid-count parameter)."""
        return self.nx * self.ny

    def __len__(self) -> int:
        return self.n_cells

    # -- coordinate <-> cell mapping -------------------------------------------

    def locate(self, x: float, y: float) -> int:
        """Cell id containing ``(x, y)``; out-of-extent points clamp to the border."""
        col = int((x - self.bbox.min_x) / self.gx)
        row = int((y - self.bbox.min_y) / self.gy)
        col = min(max(col, 0), self.nx - 1)
        row = min(max(row, 0), self.ny - 1)
        return row * self.nx + col

    def locate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`locate` for an ``(n, 2)`` array."""
        points = np.asarray(points, dtype=float)
        cols = np.clip(
            ((points[:, 0] - self.bbox.min_x) / self.gx).astype(np.int64), 0, self.nx - 1
        )
        rows = np.clip(
            ((points[:, 1] - self.bbox.min_y) / self.gy).astype(np.int64), 0, self.ny - 1
        )
        return rows * self.nx + cols

    def cell_center(self, cell: int) -> Point:
        """Centre of ``cell`` as a :class:`Point`."""
        x, y = self.cell_centers([cell])[0]
        return Point(float(x), float(y))

    def cell_centers(self, cells: np.ndarray | list[int] | None = None) -> np.ndarray:
        """Centres of ``cells`` (or of every cell) as an ``(n, 2)`` array.

        A centre is ``min + (index + 0.5) * g`` along each axis, computed
        from the cell ids; ids outside ``[0, n_cells)`` raise ``IndexError``.
        """
        if cells is None:
            ids = np.arange(self.n_cells, dtype=np.int64)
        else:
            ids = np.asarray(cells, dtype=np.int64).reshape(-1)
            if ids.size and (ids.min() < 0 or ids.max() >= self.n_cells):
                raise IndexError(f"cell ids outside grid with {self.n_cells} cells")
        rows, cols = np.divmod(ids, self.nx)
        centers = np.empty((len(ids), 2))
        centers[:, 0] = self.bbox.min_x + (cols + 0.5) * self.gx
        centers[:, 1] = self.bbox.min_y + (rows + 0.5) * self.gy
        return centers

    def row_col(self, cell: int) -> tuple[int, int]:
        """Decompose a cell id into ``(row, col)``."""
        self._check_cell(cell)
        return divmod(cell, self.nx)

    # -- spatial queries ---------------------------------------------------------

    def cells_in_box(self, min_x: float, min_y: float, max_x: float, max_y: float) -> np.ndarray:
        """Ids of all cells whose *centre* lies in the closed query box.

        Used by the sparse probability index to enumerate cells near a
        snapshot mean; an empty query box yields an empty array.
        """
        half_gx, half_gy = self.gx / 2.0, self.gy / 2.0
        col_lo = int(np.ceil((min_x - self.bbox.min_x - half_gx) / self.gx - 1e-12))
        col_hi = int(np.floor((max_x - self.bbox.min_x - half_gx) / self.gx + 1e-12))
        row_lo = int(np.ceil((min_y - self.bbox.min_y - half_gy) / self.gy - 1e-12))
        row_hi = int(np.floor((max_y - self.bbox.min_y - half_gy) / self.gy + 1e-12))
        col_lo, col_hi = max(col_lo, 0), min(col_hi, self.nx - 1)
        row_lo, row_hi = max(row_lo, 0), min(row_hi, self.ny - 1)
        if col_lo > col_hi or row_lo > row_hi:
            return np.empty(0, dtype=np.int64)
        cols = np.arange(col_lo, col_hi + 1, dtype=np.int64)
        rows = np.arange(row_lo, row_hi + 1, dtype=np.int64)
        return (rows[:, None] * self.nx + cols[None, :]).ravel()

    def cells_near(self, x: float, y: float, radius: float) -> np.ndarray:
        """Ids of cells whose centre is within the square of half-width ``radius``."""
        return self.cells_in_box(x - radius, y - radius, x + radius, y + radius)

    def cells_in_boxes(
        self,
        min_x: np.ndarray,
        min_y: np.ndarray,
        max_x: np.ndarray,
        max_y: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cells_in_box` over ``n`` query boxes at once.

        Returns ``(cells, owners)``, both ``int32``: the concatenated cell
        ids of every box and, aligned with them, the index of the box each
        id belongs to.  Within one box the ids come out in the same
        (row-major) order as :meth:`cells_in_box`; empty boxes simply
        contribute nothing.  Each box row is one run of consecutive ids,
        so the ids are one ``np.repeat`` of the run starts (less the run's
        offset in the output) plus one ``arange``.  A pair count that
        ``int32`` cannot hold raises ``ValueError`` (a grid whose ids it
        cannot hold is refused when it is made).
        """
        col_lo, col_hi, row_lo, row_hi = self._box_spans(min_x, min_y, max_x, max_y)
        n_cols = np.maximum(col_hi - col_lo + 1, 0)
        n_rows = np.where(n_cols > 0, np.maximum(row_hi - row_lo + 1, 0), 0)
        counts = n_cols * n_rows
        total = int(counts.sum())
        limit = np.iinfo(np.int32).max
        if total > limit:
            raise ValueError(f"{total} listed pairs exceed int32 (at most {limit})")
        owners = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        # One run per box row: its box, row, first id and offset in the output.
        run_box = np.repeat(np.arange(len(counts)), n_rows)
        run_firsts = np.cumsum(n_rows) - n_rows
        run_rows = row_lo[run_box] + np.arange(len(run_box)) - run_firsts[run_box]
        run_lens = n_cols[run_box]
        run_offsets = np.cumsum(run_lens) - run_lens
        shift = (run_rows * self.nx + col_lo[run_box] - run_offsets).astype(np.int32)
        cells = np.repeat(shift, run_lens)
        cells += np.arange(total, dtype=np.int32)
        return cells, owners

    def cells_near_many(
        self, points: np.ndarray, radii: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cells_near` for ``(n, 2)`` points with per-point radii.

        Returns ``int32`` ``(cells, owners)`` exactly like
        :meth:`cells_in_boxes`; the sparse probability index uses this to
        enumerate every snapshot's candidate neighbourhood in one call.
        """
        return self.cells_in_boxes(*self._near_boxes(points, radii))

    def cells_near_counts(self, chunks) -> np.ndarray:
        """Per-cell count of the pairs :meth:`cells_near_many` lists.

        ``chunks`` yields ``(points, radii)`` arguments of
        :meth:`cells_near_many`; the result (``int64``, one count per cell)
        is the sum over the chunks of ``np.bincount(cells_near_many(points,
        radii)[0], minlength=n_cells)``, but no pair is listed.  Each
        non-empty box adds +1/-1 at its four corners of a 2-D difference
        array, whose prefix sums along both axes are the counts: O(points
        + cells).  The boxes come from the same helpers as
        :meth:`cells_near_many`, so the two cannot disagree.
        """
        stride = self.nx + 1
        diff = np.zeros((self.ny + 1) * stride, dtype=np.int64)
        for points, radii in chunks:
            col_lo, col_hi, row_lo, row_hi = self._box_spans(
                *self._near_boxes(points, radii)
            )
            live = (col_lo <= col_hi) & (row_lo <= row_hi)
            col_lo, col_hi = col_lo[live], col_hi[live] + 1
            row_lo, row_hi = row_lo[live] * stride, (row_hi[live] + 1) * stride
            np.add.at(diff, row_lo + col_lo, 1)
            np.add.at(diff, row_lo + col_hi, -1)
            np.add.at(diff, row_hi + col_lo, -1)
            np.add.at(diff, row_hi + col_hi, 1)
        counts = diff.reshape(self.ny + 1, stride)
        np.cumsum(counts, axis=0, out=counts)
        np.cumsum(counts, axis=1, out=counts)
        return counts[: self.ny, : self.nx].ravel()

    @staticmethod
    def _near_boxes(points, radii) -> tuple[np.ndarray, ...]:
        """``(min_x, min_y, max_x, max_y)`` of each point's square box."""
        points = np.asarray(points, dtype=float)
        radii = np.broadcast_to(np.asarray(radii, dtype=float), len(points))
        xs, ys = points[:, 0], points[:, 1]
        return xs - radii, ys - radii, xs + radii, ys + radii

    def _box_spans(self, min_x, min_y, max_x, max_y) -> tuple[np.ndarray, ...]:
        """Inclusive ``(col_lo, col_hi, row_lo, row_hi)`` of the cells whose
        centre lies in each closed box, clipped to the grid (``lo > hi`` for
        an empty box)."""
        min_x = np.asarray(min_x, dtype=float)
        min_y = np.asarray(min_y, dtype=float)
        max_x = np.asarray(max_x, dtype=float)
        max_y = np.asarray(max_y, dtype=float)
        half_gx, half_gy = self.gx / 2.0, self.gy / 2.0
        col_lo = np.ceil((min_x - self.bbox.min_x - half_gx) / self.gx - 1e-12).astype(np.int64)
        col_hi = np.floor((max_x - self.bbox.min_x - half_gx) / self.gx + 1e-12).astype(np.int64)
        row_lo = np.ceil((min_y - self.bbox.min_y - half_gy) / self.gy - 1e-12).astype(np.int64)
        row_hi = np.floor((max_y - self.bbox.min_y - half_gy) / self.gy + 1e-12).astype(np.int64)
        return (
            np.maximum(col_lo, 0),
            np.minimum(col_hi, self.nx - 1),
            np.maximum(row_lo, 0),
            np.minimum(row_hi, self.ny - 1),
        )

    def neighbors(self, cell: int, include_diagonal: bool = True) -> list[int]:
        """Adjacent cell ids (4- or 8-neighbourhood), excluding ``cell`` itself."""
        row, col = self.row_col(cell)
        out: list[int] = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                if not include_diagonal and dr != 0 and dc != 0:
                    continue
                r, c = row + dr, col + dc
                if 0 <= r < self.ny and 0 <= c < self.nx:
                    out.append(r * self.nx + c)
        return out

    def cell_distance(self, a: int, b: int) -> float:
        """Euclidean distance between the centres of cells ``a`` and ``b``."""
        dx = np.subtract(*self.cell_centers([a, b]))
        return float(np.hypot(dx[0], dx[1]))

    def _check_cell(self, cell: int) -> None:
        if not 0 <= cell < self.n_cells:
            raise IndexError(f"cell {cell} outside grid with {self.n_cells} cells")

    def __repr__(self) -> str:
        return (
            f"Grid({self.nx}x{self.ny} cells of {self.gx:.4g}x{self.gy:.4g} "
            f"over [{self.bbox.min_x:.4g},{self.bbox.max_x:.4g}]x"
            f"[{self.bbox.min_y:.4g},{self.bbox.max_y:.4g}])"
        )
