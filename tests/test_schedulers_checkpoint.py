"""Checkpoint archives: the ``save_state`` writer and ``load_archive`` reader."""

import numpy as np
import pytest

from repro.nn import MLP
from repro.nn.checkpoint import CHECKPOINT_FORMAT_VERSION, load_archive, save_state
from repro.autograd import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(101)


class TestCheckpoint:
    def test_roundtrip(self, rng, tmp_path):
        m1 = MLP([3, 8, 2], rng)
        m2 = MLP([3, 8, 2], np.random.default_rng(999))
        path = tmp_path / "model.npz"
        save_state(m1.state_dict(), path, metadata={"epoch": 7, "dataset": "proteins25"})
        state, _buffers, meta = load_archive(path)
        m2.load_state_dict(state)
        assert meta == {"epoch": 7, "dataset": "proteins25", "format_version": CHECKPOINT_FORMAT_VERSION}
        x = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_allclose(m1(x).data, m2(x).data)

    def test_suffix_added(self, rng, tmp_path):
        m = MLP([2, 2], rng)
        save_state(m.state_dict(), tmp_path / "weights")
        assert (tmp_path / "weights.npz").exists()
        load_archive(tmp_path / "weights")

    def test_mismatched_model_raises(self, rng, tmp_path):
        m1 = MLP([3, 8, 2], rng)
        m2 = MLP([3, 4, 2], rng)
        path = tmp_path / "model.npz"
        save_state(m1.state_dict(), path)
        state, _buffers, _meta = load_archive(path)
        with pytest.raises(ValueError):
            m2.load_state_dict(state)

    def test_empty_metadata_default(self, rng, tmp_path):
        m = MLP([2, 2], rng)
        path = tmp_path / "m.npz"
        save_state(m.state_dict(), path)
        _state, buffers, meta = load_archive(path)
        assert meta == {"format_version": CHECKPOINT_FORMAT_VERSION}
        assert buffers == {}

    def test_ood_gnn_checkpoint(self, tmp_path):
        from repro.core import OODGNN, OODGNNConfig

        cfg = OODGNNConfig(hidden_dim=8, num_layers=2)
        m1 = OODGNN(3, 2, np.random.default_rng(0), config=cfg)
        m2 = OODGNN(3, 2, np.random.default_rng(1), config=cfg)
        save_state(m1.state_dict(), tmp_path / "ood.npz", buffers=m1.buffer_dict())
        state, buffers, _meta = load_archive(tmp_path / "ood.npz")
        m2.load_state_dict(state)
        m2.load_buffer_dict(buffers)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            np.testing.assert_allclose(p1.data, p2.data)


class TestSuffixHandling:
    """save/load agree on the final file name for every suffix shape."""

    def test_npz_suffix_not_doubled(self, rng, tmp_path):
        m = MLP([2, 2], rng)
        written = save_state(m.state_dict(), tmp_path / "m.npz")
        assert written == tmp_path / "m.npz"
        assert (tmp_path / "m.npz").exists()
        assert not (tmp_path / "m.npz.npz").exists()
        load_archive(tmp_path / "m.npz")

    def test_foreign_suffix_round_trips(self, rng, tmp_path):
        # Formerly broken: np.savez wrote model.ckpt.npz but the loader
        # looked for model.npz (with_suffix substitution).
        m1 = MLP([3, 4, 2], rng)
        m2 = MLP([3, 4, 2], np.random.default_rng(5))
        written = save_state(m1.state_dict(), tmp_path / "model.ckpt")
        assert written == tmp_path / "model.ckpt.npz"
        m2.load_state_dict(load_archive(tmp_path / "model.ckpt")[0])
        x = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_array_equal(m1(x).data, m2(x).data)

    def test_exact_existing_path_wins(self, rng, tmp_path):
        m = MLP([2, 2], rng)
        save_state(m.state_dict(), tmp_path / "weights")
        state, _buffers, _meta = load_archive(tmp_path / "weights")
        assert state  # resolved weights.npz


class TestLoadStateHelper:
    """Reading an archive's state and metadata without a model."""

    def test_returns_state_without_a_model(self, rng, tmp_path):
        m = MLP([3, 8, 2], rng)
        save_state(m.state_dict(), tmp_path / "m.npz", metadata={"epoch": 3})
        state, _buffers, metadata = load_archive(tmp_path / "m.npz")
        assert set(state) == set(m.state_dict())
        for name, values in m.state_dict().items():
            np.testing.assert_array_equal(state[name], values)
        assert metadata["epoch"] == 3
        assert metadata["format_version"] == CHECKPOINT_FORMAT_VERSION

    def test_buffer_entries_kept_out_of_state(self, rng, tmp_path):
        m = MLP([3, 8, 2], rng, batch_norm=True)
        save_state(m.state_dict(), tmp_path / "bn.npz", buffers=m.buffer_dict())
        state, buffers, _meta = load_archive(tmp_path / "bn.npz")
        assert not any("running_" in k for k in state)
        assert any(k.endswith("running_mean") for k in buffers)

    def test_legacy_archive_reports_version_one(self, rng, tmp_path):
        # A pre-versioning archive: raw arrays, no metadata key at all.
        m = MLP([2, 2], rng)
        with open(tmp_path / "legacy.npz", "wb") as fh:
            np.savez(fh, **m.state_dict())
        state, buffers, metadata = load_archive(tmp_path / "legacy.npz")
        assert metadata == {"format_version": 1}
        assert buffers == {}
        m.load_state_dict(state)

    def test_save_state_rejects_foreign_format_version(self, tmp_path):
        with pytest.raises(ValueError, match="format_version"):
            save_state({"w": np.ones(2)}, tmp_path / "x.npz", metadata={"format_version": 9})

    def test_load_state_save_state_round_trip(self, rng, tmp_path):
        """The model-free dict API must round-trip its own output."""
        m = MLP([2, 3], rng)
        save_state(m.state_dict(), tmp_path / "a.npz", metadata={"epoch": 2})
        state, _buffers, metadata = load_archive(tmp_path / "a.npz")
        save_state(state, tmp_path / "b.npz", metadata=metadata)  # no reserved-key error
        state2, _buffers2, metadata2 = load_archive(tmp_path / "b.npz")
        assert metadata2 == metadata
        for name in state:
            np.testing.assert_array_equal(state[name], state2[name])


class TestBufferPersistence:
    def test_running_stats_round_trip(self, rng, tmp_path):
        m1 = MLP([3, 8, 2], rng, batch_norm=True)
        m1(Tensor(rng.normal(size=(16, 3))))  # train-mode: moves running stats
        m2 = MLP([3, 8, 2], np.random.default_rng(9), batch_norm=True)
        save_state(m1.state_dict(), tmp_path / "m.npz", buffers=m1.buffer_dict())
        state, buffers, _meta = load_archive(tmp_path / "m.npz")
        m2.load_state_dict(state)
        m2.load_buffer_dict(buffers)
        m1.eval(), m2.eval()
        x = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_array_equal(m1(x).data, m2(x).data)
        assert dict(m1.named_buffers()).keys() == dict(m2.named_buffers()).keys()
        for name, value in m1.named_buffers():
            np.testing.assert_array_equal(value, dict(m2.named_buffers())[name])

    def test_load_buffer_dict_strict(self, rng):
        m = MLP([3, 8, 2], rng, batch_norm=True)
        buffers = m.buffer_dict()
        buffers.pop(next(iter(buffers)))
        with pytest.raises(KeyError, match="missing"):
            m.load_buffer_dict(buffers)

    def test_buffer_shape_mismatch(self, rng):
        m = MLP([3, 8, 2], rng, batch_norm=True)
        buffers = {k: np.zeros(3) for k in m.buffer_dict()}
        with pytest.raises(ValueError, match="shape mismatch"):
            m.load_buffer_dict(buffers)


class TestAtomicWrites:
    """save_state publishes atomically: a crash mid-write never tears the
    archive on disk (temp file + fsync + os.replace)."""

    def test_kill_mid_write_leaves_previous_archive_intact(self, rng, tmp_path):
        import multiprocessing as mp
        import os

        path = tmp_path / "model.npz"
        state = {"w": rng.normal(size=(4, 4)), "b": rng.normal(size=4)}
        save_state(state, path, metadata={"epoch": 1})
        before = path.read_bytes()

        def torn_writer():
            import numpy as np_mod

            def torn_savez(fh, **payload):
                fh.write(b"\x00garbage: process dies mid-archive\x00")
                fh.flush()
                os.fsync(fh.fileno())
                os._exit(1)  # hard kill before the archive completes

            np_mod.savez = torn_savez
            save_state({"w": rng.normal(size=(4, 4))}, path, metadata={"epoch": 2})

        proc = mp.get_context("fork").Process(target=torn_writer)
        proc.start()
        proc.join(timeout=30.0)
        assert proc.exitcode == 1
        # The published archive is byte-identical and still loads.
        assert path.read_bytes() == before
        loaded, _buffers, metadata = load_archive(path)
        assert metadata["epoch"] == 1
        np.testing.assert_array_equal(loaded["w"], state["w"])

    def test_kill_mid_write_to_fresh_path_publishes_nothing(self, rng, tmp_path):
        import multiprocessing as mp
        import os

        path = tmp_path / "fresh.npz"

        def torn_writer():
            import numpy as np_mod

            def torn_savez(fh, **payload):
                fh.write(b"partial")
                os._exit(1)

            np_mod.savez = torn_savez
            save_state({"w": np.ones(2)}, path)

        proc = mp.get_context("fork").Process(target=torn_writer)
        proc.start()
        proc.join(timeout=30.0)
        assert proc.exitcode == 1
        assert not path.exists()  # nothing half-written at the target name

    def test_temp_file_cleaned_up_on_write_error(self, rng, tmp_path, monkeypatch):
        import numpy as np_mod

        path = tmp_path / "model.npz"

        def failing_savez(fh, **payload):
            raise OSError("disk full")

        monkeypatch.setattr(np_mod, "savez", failing_savez)
        with pytest.raises(OSError, match="disk full"):
            save_state({"w": np.ones(2)}, path)
        assert list(tmp_path.iterdir()) == []  # no temp litter, no target
