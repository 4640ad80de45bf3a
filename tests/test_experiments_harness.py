"""Tests for the experiment harness utilities (not the heavy table runs —
those live in benchmarks/)."""

import os

import numpy as np
import pytest

import repro.experiments.harness as harness
from repro.experiments.harness import (ExperimentScale, SCALE, RadiusReport,
                                       format_radius_row,
                                       evaluation_sentences, get_corpus,
                                       get_transformer, load_cached_state)
from repro.experiments.tables import results_dir, run_figure4
from repro.scheduler import positions_for


class TestScale:
    def test_defaults_sane(self):
        assert SCALE.embed_dim >= 8
        assert SCALE.noise_symbol_cap > 0

    def test_custom_scale(self):
        scale = ExperimentScale(embed_dim=8, n_train=50)
        assert scale.embed_dim == 8
        assert scale.n_train == 50


class TestRadiusReport:
    def test_statistics(self):
        report = RadiusReport(name="x", radii=[0.1, 0.3, 0.2], seconds=1.5)
        assert report.min_radius == pytest.approx(0.1)
        assert report.avg_radius == pytest.approx(0.2)

    def test_empty(self):
        report = RadiusReport(name="x")
        assert report.min_radius == 0.0
        assert report.avg_radius == 0.0

    def test_format_row(self):
        report = RadiusReport(name="x", radii=[0.5], seconds=2.0)
        row = format_radius_row("M=3", [report, report])
        assert "M=3" in row and row.count("0.5000") == 4


class TestEvaluationProtocol:
    def test_sentences_correctly_classified(self, tiny_model, tiny_corpus):
        sentences = evaluation_sentences(tiny_model, tiny_corpus, 3)
        assert 1 <= len(sentences) <= 3
        for seq in sentences:
            label = None
            for s, lab in zip(tiny_corpus.test_sequences,
                              tiny_corpus.test_labels):
                if s == seq:
                    label = int(lab)
                    break
            assert tiny_model.predict(seq) == label

    def test_positions_skip_cls(self):
        positions = positions_for(list(range(6)), 3, seed=0)
        assert 0 not in positions
        assert len(positions) == 3

    def test_positions_capped_by_length(self):
        positions = positions_for([0, 1], 5, seed=0)
        assert positions == [1]

    def test_corpus_cache_returns_same_object(self):
        scale = ExperimentScale(n_train=20, n_test=5, seed=9)
        a = get_corpus("sst-small", scale)
        b = get_corpus("sst-small", scale)
        assert a is b


class TestModelCacheRecovery:
    """A corrupt/truncated cache .npz must trigger a retrain, not a crash."""

    SCALE = ExperimentScale(embed_dim=8, n_heads=2, hidden_dim=8,
                            max_len=12, n_train=40, n_test=10, epochs=2,
                            seed=5)

    def test_load_cached_state_rejects_garbage(self, tmp_path):
        from repro.nn import TransformerClassifier
        path = str(tmp_path / "bad.npz")
        with open(path, "wb") as f:
            f.write(b"this is definitely not a zip archive")
        model = TransformerClassifier(20, embed_dim=8, n_heads=2,
                                      hidden_dim=8, n_layers=1, max_len=12)
        with pytest.warns(UserWarning, match="corrupt model cache"):
            assert not load_cached_state(model, path)
        assert not os.path.exists(path)  # bad file deleted

    def test_get_transformer_recovers_from_garbage_cache(self, tmp_path,
                                                         monkeypatch):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        monkeypatch.setattr(harness, "model_cache_dir",
                            lambda: str(cache_dir))
        model, _, _ = get_transformer("sst-small", n_layers=1,
                                      scale=self.SCALE)
        [cache_file] = [f for f in os.listdir(cache_dir)
                        if f.endswith(".npz")]
        reference = {k: v.copy() for k, v in model.state_dict().items()}

        path = os.path.join(cache_dir, cache_file)
        with open(path, "wb") as f:
            f.write(b"\x00garbage" * 100)
        with pytest.warns(UserWarning, match="corrupt model cache"):
            recovered, _, _ = get_transformer("sst-small", n_layers=1,
                                              scale=self.SCALE)
        # Training is seeded, so the retrained weights match the originals.
        for key, value in reference.items():
            np.testing.assert_allclose(recovered.state_dict()[key], value)
        # The rewritten cache is a valid archive again.
        with np.load(path) as archive:
            assert set(archive.files) == set(reference)


class TestCommittedArchives:
    """The committed sst-small archives load under today's cache key.

    A drifted key would not fail a table: ``get_transformer`` would
    quietly retrain and save a new archive. Training is refused here, as
    the paper-workload benchmark refuses it.
    """

    # Test-set accuracy of each committed archive (of 80 sentences).
    ACCURACY = {3: 0.95, 6: 0.95, 12: 0.9875}

    @pytest.mark.parametrize("n_layers", [3, 6, 12])
    def test_loads_without_training(self, n_layers, monkeypatch):
        def refuse_training(*args, **kwargs):
            raise AssertionError("get_transformer trained instead of "
                                 "loading the committed archive")

        monkeypatch.setattr(harness, "train_transformer", refuse_training)
        model, dataset, accuracy = get_transformer("sst-small",
                                                   n_layers=n_layers)
        assert model.n_layers == n_layers
        assert accuracy == self.ACCURACY[n_layers]
        # The evaluation's stacked forwards (one per sentence length)
        # count the sentences that one-at-a-time prediction counts.
        correct = sum(model.predict(sequence) == int(label)
                      for sequence, label in zip(dataset.test_sequences,
                                                 dataset.test_labels))
        assert correct / len(dataset.test_sequences) == accuracy

class TestFigure4:
    def test_reproduces_paper_geometry(self):
        recorded = os.path.join(results_dir(), "figure4.txt")
        with open(recorded, "rb") as f:
            before = f.read()
        result = run_figure4(n_samples=300)
        # The session sets REPRO_NO_RECORD (conftest.py): the tracked
        # result, sampled at the runner's default 4000 points, stays.
        with open(recorded, "rb") as f:
            assert f.read() == before
        lower, upper = result["bounds"]
        # x = 4 ± (sqrt(2) + 3), y = 3 ± (sqrt(2) + 2) per Theorem 1.
        assert lower[0] == pytest.approx(4 - np.sqrt(2) - 3)
        assert upper[0] == pytest.approx(4 + np.sqrt(2) + 3)
        assert lower[1] == pytest.approx(3 - np.sqrt(2) - 2)
        assert upper[1] == pytest.approx(3 + np.sqrt(2) + 2)
        c_lower, c_upper = result["classical_bounds"]
        # Dropping the phi symbols yields the inner classical zonotope.
        np.testing.assert_allclose(c_lower, [1.0, 1.0])
        np.testing.assert_allclose(c_upper, [7.0, 5.0])
        # Samples all inside the multi-norm bounds.
        points = result["points"]
        assert np.all(points >= lower - 1e-9)
        assert np.all(points <= upper + 1e-9)
