"""Out-of-core evaluation on the inline pool (section 4.4's space claim)."""

import pytest

from repro import cli
from repro.core.pattern import TrajectoryPattern
from repro.core.trajpattern import TrajPatternMiner, verify_top_k
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.io import save_dataset_jsonl
from tests.conftest import streamed


@pytest.fixture
def stored(small_dataset, small_engine, tmp_path):
    path = tmp_path / "data.jsonl"
    save_dataset_jsonl(small_dataset, path)
    return path, small_engine


class TestValidation:
    def test_bad_chunk_size(self, stored):
        path, _ = stored
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["score", "p.json", str(path), "--delta", "0.03", "--chunk-size", "0"]
            )
        assert exc.value.code == 2

    def test_foreign_file_rejected(self, tmp_path, small_engine):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"format": "nope"}\n')
        with pytest.raises(ValueError, match="not a repro trajectory"):
            with streamed(path, small_engine.grid, small_engine.config):
                pass

    def test_empty_dataset_rejected_on_scan(self, tmp_path, small_engine):
        path = tmp_path / "empty.jsonl"
        save_dataset_jsonl(TrajectoryDataset([]), path)
        with pytest.raises(ValueError, match="empty"):
            with streamed(path, small_engine.grid, small_engine.config):
                pass


class TestEquivalence:
    """Chunked == in-memory, for every chunk size."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 5, 100])
    def test_nm_equivalence(self, stored, chunk_size, rng):
        path, engine = stored
        cells = engine.active_cells
        patterns = [
            TrajectoryPattern(tuple(int(c) for c in rng.choice(cells, size=n)))
            for n in (1, 2, 3)
        ]
        with streamed(path, engine.grid, engine.config, chunk_size) as streaming:
            got = streaming.nm_batch(patterns)
        expected = [engine.nm(p) for p in patterns]
        assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("chunk_size", [2, 7])
    def test_match_equivalence(self, stored, chunk_size, rng):
        path, engine = stored
        cells = engine.active_cells
        pattern = TrajectoryPattern((cells[0], cells[1]))
        with streamed(path, engine.grid, engine.config, chunk_size) as streaming:
            assert streaming.match(pattern) == pytest.approx(
                engine.match(pattern), rel=1e-9
            )

    @pytest.mark.parametrize("chunk_size", [1, 4])
    def test_singular_table_equivalence(self, stored, chunk_size):
        path, engine = stored
        with streamed(path, engine.grid, engine.config, chunk_size) as streaming:
            got = streaming.singular_nm_table()
        expected = engine.singular_nm_table()
        assert set(got) == set(expected)
        for cell in expected:
            assert got[cell] == pytest.approx(expected[cell], abs=1e-9)

    def test_chunk_instrumentation(self, stored):
        path, engine = stored
        with streamed(path, engine.grid, engine.config, chunk_size=5) as streaming:
            # 12 trajectories at chunk size 5 -> 3 spans; opening scans
            # nothing, the one op scans each span once.
            assert streaming.n_spans == 3
            streaming.nm(TrajectoryPattern((engine.active_cells[0],)))
            # Span metas came from that scan; reading them scans nothing.
            assert streaming.n_index_entries == engine.n_index_entries
            snapshot = streaming.obs_snapshot()
        assert snapshot["span_opens"] == 3
        assert [s["opens"] for s in snapshot["spans"]] == [1, 1, 1]
        assert snapshot["span_cache_hits"] == 0

    def test_empty_batch(self, stored):
        path, engine = stored
        with streamed(path, engine.grid, engine.config) as streaming:
            assert len(streaming.nm_batch([])) == 0


class TestVerifyTopK:
    def test_confirms_mined_ranking(self, stored):
        """The out-of-core re-score agrees with the miner's own ranking."""
        path, engine = stored
        mined = TrajPatternMiner(engine, k=6, max_length=3).mine()
        with streamed(path, engine.grid, engine.config, chunk_size=4) as streaming:
            verified = verify_top_k(streaming, mined.patterns, k=6)
        assert [p.cells for p, _ in verified] == [p.cells for p in mined.patterns]
        assert [v for _, v in verified] == pytest.approx(mined.nm_values, abs=1e-9)

    def test_k_validation(self, stored):
        path, engine = stored
        with streamed(path, engine.grid, engine.config) as streaming:
            with pytest.raises(ValueError):
                verify_top_k(streaming, [TrajectoryPattern((0,))], k=0)
