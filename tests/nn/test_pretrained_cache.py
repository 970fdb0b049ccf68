"""Tests for the pretrained-model disk cache."""

import numpy as np
import pytest

from repro.nn.pretrained import PretrainConfig, load_pretrained


@pytest.fixture
def tiny_config():
    """A configuration small enough to train inside a test (~5 s)."""
    return PretrainConfig(
        per_class=1, scenes_per_object=1, epochs=1, augment_copies=1, seed=3
    )


class TestCache:
    def test_train_then_cache_hit(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = load_pretrained(tiny_config)
        cached_files = list(tmp_path.glob("base_*.npz"))
        assert len(cached_files) == 1

        second = load_pretrained(tiny_config)
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)
        assert np.allclose(first.forward(x)[0], second.forward(x)[0], atol=1e-6)

    def test_distinct_configs_distinct_cache_entries(
        self, tiny_config, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        load_pretrained(tiny_config)
        other = PretrainConfig(
            per_class=1, scenes_per_object=1, epochs=2, augment_copies=1, seed=3
        )
        load_pretrained(other)
        assert len(list(tmp_path.glob("base_*.npz"))) == 2

    def test_training_is_deterministic(self, tiny_config, tmp_path, monkeypatch):
        """Two cold trainings of the same config give identical weights."""
        from repro.nn.pretrained import train_base_model

        a = train_base_model(tiny_config)
        b = train_base_model(tiny_config)
        sa, sb = a.state_dict(), b.state_dict()
        assert sa.keys() == sb.keys()
        for key in sa:
            assert np.array_equal(sa[key], sb[key]), key


class TestTornCache:
    """A torn or corrupt cache file heals itself instead of breaking loads."""

    @pytest.fixture
    def stub_training(self, monkeypatch, tmp_path):
        """Swap training for an instant seeded model; count the calls."""
        from repro.nn import pretrained
        from repro.nn.model import micro_mobilenet

        calls = []

        def fake_train(config, verbose=False):
            calls.append(config)
            return micro_mobilenet(num_classes=8, seed=config.seed + 100)

        monkeypatch.setattr(pretrained, "train_base_model", fake_train)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return calls

    def _weights(self, model):
        return {k: v.copy() for k, v in model.state_dict().items()}

    def test_truncated_file_is_retrained_and_rewritten(
        self, stub_training, tmp_path
    ):
        config = PretrainConfig(seed=5)
        first = self._weights(load_pretrained(config))
        (path,) = tmp_path.glob("base_*.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # a writer killed mid-file

        healed = self._weights(load_pretrained(config))
        assert len(stub_training) == 2
        assert healed.keys() == first.keys()
        for key in first:
            assert np.array_equal(healed[key], first[key]), key

        # The rewritten file is whole again: the next load is a hit.
        reloaded = self._weights(load_pretrained(config))
        assert len(stub_training) == 2
        for key in first:
            assert np.array_equal(reloaded[key], first[key]), key

    def test_garbage_file_is_replaced(self, stub_training, tmp_path):
        config = PretrainConfig(seed=6)
        path = tmp_path / f"base_{config.cache_key()}.npz"
        path.write_bytes(b"not an npz archive")
        load_pretrained(config)
        assert len(stub_training) == 1
        with np.load(path) as archive:
            assert archive.files

    def test_write_leaves_no_temp_files(self, stub_training, tmp_path):
        load_pretrained(PretrainConfig(seed=7))
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []
        assert len(list(tmp_path.glob("base_*.npz"))) == 1
