"""Unit tests for repro.geometry.grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid


@pytest.fixture
def grid():
    return Grid(BoundingBox.unit(), nx=10, ny=8)


class TestConstruction:
    def test_cell_sizes(self, grid):
        assert grid.gx == pytest.approx(0.1)
        assert grid.gy == pytest.approx(1 / 8)
        assert grid.n_cells == 80
        assert len(grid) == 80

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Grid(BoundingBox.unit(), nx=0, ny=5)

    def test_zero_area_bbox_rejected(self):
        with pytest.raises(ValueError):
            Grid(BoundingBox(0, 0, 0, 1), nx=2, ny=2)

    def test_cover_square_cells(self):
        g = Grid.cover(BoundingBox(0, 0, 1.0, 0.55), cell_size=0.1)
        assert g.gx == pytest.approx(0.1)
        assert g.gy == pytest.approx(0.1)
        assert g.nx == 10 and g.ny == 6  # padded up on y

    def test_cover_invalid_cell_size(self):
        with pytest.raises(ValueError):
            Grid.cover(BoundingBox.unit(), cell_size=0.0)

    def test_cover_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        g = Grid.cover_points(pts, cell_size=0.25, margin=0.25)
        assert g.bbox.min_x == pytest.approx(-0.25)
        assert g.n_cells == 6 * 6


class TestLocate:
    def test_locate_center(self, grid):
        cell = grid.locate(0.05, 1 / 16)
        assert cell == 0

    def test_locate_roundtrip_via_center(self, grid):
        for cell in [0, 7, 35, 79]:
            c = grid.cell_center(cell)
            assert grid.locate(c.x, c.y) == cell

    def test_locate_clamps_outside(self, grid):
        assert grid.locate(-5.0, -5.0) == 0
        assert grid.locate(5.0, 5.0) == grid.n_cells - 1

    def test_locate_many_matches_scalar(self, grid):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.2, 1.2, size=(100, 2))
        bulk = grid.locate_many(pts)
        scalar = [grid.locate(x, y) for x, y in pts]
        assert list(bulk) == scalar

    def test_row_col(self, grid):
        assert grid.row_col(0) == (0, 0)
        assert grid.row_col(10) == (1, 0)
        assert grid.row_col(13) == (1, 3)

    def test_cell_bounds_checked(self, grid):
        with pytest.raises(IndexError):
            grid.cell_center(80)
        with pytest.raises(IndexError):
            grid.row_col(-1)
        for bad in ([80], [0, -1], np.array([3, 95])):
            with pytest.raises(IndexError):
                grid.cell_centers(bad)
        with pytest.raises(IndexError):
            grid.cell_distance(0, 80)


class TestCellCentres:
    """Centres are computed from the ids, in the bits of the centre table
    the grid once built at construction."""

    @staticmethod
    def _meshgrid_centres(grid):
        xs = grid.bbox.min_x + (np.arange(grid.nx) + 0.5) * grid.gx
        ys = grid.bbox.min_y + (np.arange(grid.ny) + 0.5) * grid.gy
        cx, cy = np.meshgrid(xs, ys)
        return np.column_stack([cx.ravel(), cy.ravel()])

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_equal_to_the_meshgrid_table(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = (int(n) for n in rng.integers(1, 40, 2))
        min_x, min_y = rng.uniform(-50.0, -0.5, 2)
        width, height = rng.uniform(0.01, 30.0, 2)
        grid = Grid(BoundingBox(min_x, min_y, min_x + width, min_y + height), nx, ny)
        table = self._meshgrid_centres(grid)
        assert grid.cell_centers().tobytes() == table.tobytes()
        ids = rng.integers(0, grid.n_cells, 25)
        assert grid.cell_centers(ids).tobytes() == table[ids].tobytes()
        assert grid.cell_centers(list(ids)).tobytes() == table[ids].tobytes()
        a, b = (int(c) for c in ids[:2])
        assert grid.cell_center(a).as_tuple() == (float(table[a][0]), float(table[a][1]))
        dx = table[a] - table[b]
        assert grid.cell_distance(a, b) == float(np.hypot(dx[0], dx[1]))

    def test_empty_selection(self, grid):
        assert grid.cell_centers([]).shape == (0, 2)


class TestSpatialQueries:
    def test_cells_near_includes_self(self, grid):
        c = grid.cell_center(35)
        cells = grid.cells_near(c.x, c.y, radius=0.01)
        assert list(cells) == [35]

    def test_cells_near_radius_one_cell(self, grid):
        c = grid.cell_center(35)
        cells = set(grid.cells_near(c.x, c.y, radius=0.13))
        assert 35 in cells
        assert cells == set(grid.neighbors(35)) | {35}

    def test_cells_in_box_empty(self, grid):
        assert len(grid.cells_in_box(2.0, 2.0, 3.0, 3.0)) == 0

    def test_cells_in_box_everything(self, grid):
        cells = grid.cells_in_box(-1, -1, 2, 2)
        assert len(cells) == grid.n_cells

    def test_cells_near_many_matches_scalar(self, grid):
        rng = np.random.default_rng(3)
        points = rng.uniform(-0.2, 1.2, (40, 2))
        radii = rng.uniform(0.0, 0.4, 40)
        cells, owners = grid.cells_near_many(points, radii)
        assert len(cells) == len(owners)
        assert cells.dtype == owners.dtype == np.int32
        for i, (point, radius) in enumerate(zip(points, radii)):
            expected = grid.cells_near(point[0], point[1], radius)
            got = cells[owners == i]
            assert np.array_equal(got, expected)

    def test_cells_near_many_scalar_radius(self, grid):
        points = np.array([[0.5, 0.5], [0.05, 0.05]])
        cells, owners = grid.cells_near_many(points, 0.13)
        for i in range(2):
            expected = grid.cells_near(points[i, 0], points[i, 1], 0.13)
            assert np.array_equal(cells[owners == i], expected)

    def test_cells_in_boxes_all_empty(self, grid):
        cells, owners = grid.cells_in_boxes(
            np.array([2.0, 5.0]),
            np.array([2.0, 5.0]),
            np.array([3.0, 6.0]),
            np.array([3.0, 6.0]),
        )
        assert len(cells) == 0 and len(owners) == 0

    def test_cells_in_boxes_refuses_ids_beyond_int32(self, monkeypatch):
        """The lister returns int32 ids, so a grid of 2^32 cells is refused
        when it is made, before it builds its 64 GiB of centres."""

        def no_centres(*args, **kwargs):
            pytest.fail("the grid built its cell centres")

        monkeypatch.setattr(np, "meshgrid", no_centres)
        with pytest.raises(ValueError, match="int32"):
            Grid(BoundingBox.unit(), 1 << 16, 1 << 16)

    def test_neighbors_interior(self, grid):
        assert len(grid.neighbors(35)) == 8
        assert len(grid.neighbors(35, include_diagonal=False)) == 4

    def test_neighbors_corner(self, grid):
        assert len(grid.neighbors(0)) == 3

    def test_cell_distance(self, grid):
        assert grid.cell_distance(0, 1) == pytest.approx(grid.gx)
        assert grid.cell_distance(0, 0) == 0.0


def _half_cells(lo: int, hi: int):
    """Multiples of half a cell in ``[lo / 2, hi / 2]``."""
    return st.integers(lo, hi).map(lambda h: h / 2)


class TestProperties:
    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_located_cell_center_is_close(self, x, y):
        grid = Grid(BoundingBox.unit(), nx=7, ny=9)
        cell = grid.locate(x, y)
        center = grid.cell_center(cell)
        assert abs(center.x - x) <= grid.gx / 2 + 1e-9
        assert abs(center.y - y) <= grid.gy / 2 + 1e-9

    @given(st.floats(min_value=0.01, max_value=0.6, allow_nan=False))
    def test_cells_near_contains_all_within_radius(self, radius):
        grid = Grid(BoundingBox.unit(), nx=11, ny=11)
        near = set(grid.cells_near(0.5, 0.5, radius))
        for cell in range(grid.n_cells):
            c = grid.cell_center(cell)
            if max(abs(c.x - 0.5), abs(c.y - 0.5)) <= radius:
                assert cell in near

    @settings(max_examples=150, deadline=None)
    @given(
        nx=st.integers(1, 9),
        ny=st.integers(1, 9),
        points=st.lists(
            st.tuples(
                # Coordinates in cell units from two cells outside the grid
                # to two cells past it, some exactly on cell edges/centres;
                # radii up to several grid widths, some on half cells.
                st.one_of(st.floats(-2.0, 11.0), st.integers(-2, 11).map(float)),
                st.one_of(st.floats(-2.0, 11.0), _half_cells(-4, 22)),
                st.one_of(st.just(0.0), st.floats(0.0, 30.0), _half_cells(0, 6)),
            ),
            max_size=25,
        ),
        split=st.integers(0, 25),
    )
    def test_cells_near_counts_equal_listed_pairs(self, nx, ny, points, split):
        """Per-cell pair counts equal a bincount of the pairs
        ``cells_near_many`` lists -- points inside, on and outside the grid,
        radii from 0 to several grid widths, empty boxes and a 1x1 grid --
        whichever chunks the points arrive in."""
        grid = Grid(BoundingBox(-1.0, 0.5, 2.0, 2.0), nx=nx, ny=ny)
        xy = np.array([(x, y) for x, y, _ in points]).reshape(-1, 2)
        xy = np.array([grid.bbox.min_x, grid.bbox.min_y]) + xy * [grid.gx, grid.gy]
        radii = np.array([r for _, _, r in points]) * min(grid.gx, grid.gy)
        want = np.bincount(grid.cells_near_many(xy, radii)[0], minlength=grid.n_cells)
        got = grid.cells_near_counts(
            [(xy[:split], radii[:split]), (xy[split:], radii[split:])]
        )
        assert got.dtype == np.int64 and np.array_equal(got, want)
