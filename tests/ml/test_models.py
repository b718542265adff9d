"""Model zoo: shapes, parameter counts, TinyCLIP pieces, OCR units."""

import numpy as np
import pytest

from repro import tcr
from repro.ml.models.clip import (
    TinyCLIP,
    hash_tokens,
    preprocess_images,
    text_features,
)
from repro.ml.models.cnn import CNN, CNNSmall
from repro.ml.models.linear import LinearClassifier
from repro.ml.models.resnet import ResNet, ResNet8, ResNet18
from repro.tcr.tensor import Tensor


def _num_parameters(model) -> int:
    return sum(p.data.size for p in model.parameters())


class TestCNN:
    def test_output_shapes(self):
        digit_parser = CNN(num_classes=10)
        size_parser = CNN(num_classes=2)
        tiles = tcr.randn(9, 1, 28, 28)
        assert digit_parser(tiles).shape == (9, 10)
        assert size_parser(tiles).shape == (9, 2)

    def test_backward_flows(self):
        model = CNN(num_classes=3)
        x = tcr.randn(2, 1, 28, 28)
        model(x).sum().backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_cnn_small_parameter_budget(self):
        # Paper: "CNN-Small with 850K trainable parameters".
        model = CNNSmall(out_dim=20)
        count = _num_parameters(model)
        assert 700_000 < count < 1_000_000

    def test_cnn_small_output(self):
        model = CNNSmall(out_dim=20)
        assert model(tcr.randn(2, 1, 84, 84)).shape == (2, 20)


class TestResNet:
    def test_resnet18_parameter_count_near_paper(self):
        # Paper: "Resnet-18 with 11.1M trainable parameters".
        model = ResNet18(num_outputs=20)
        count = _num_parameters(model)
        assert 10_500_000 < count < 11_800_000

    def test_resnet8_forward_backward(self):
        model = ResNet8(num_outputs=20)
        out = model(tcr.randn(2, 1, 84, 84))
        assert out.shape == (2, 20)
        out.sum().backward()
        assert all(p.grad is not None for p in model.parameters()
                   if p.requires_grad)

    def test_downsample_path_used_on_channel_change(self):
        model = ResNet([1, 1], [8, 16], num_outputs=4)
        assert model(tcr.randn(1, 1, 32, 32)).shape == (1, 4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResNet([1, 1], [8], num_outputs=2)


class TestLinearClassifier:
    def test_predict_and_error(self, rng):
        model = LinearClassifier(2, num_classes=2)
        model.linear.weight.data = np.array([[-5.0, 0.0], [5.0, 0.0]],
                                            dtype=np.float32)
        model.linear.bias.data = np.zeros(2, dtype=np.float32)
        x = rng.normal(size=(50, 2)).astype(np.float32)
        labels = (x[:, 0] > 0).astype(np.int64)
        assert model.accuracy(x, labels) == 1.0
        assert model.error(x, labels) == 0.0


class TestTinyClipPieces:
    def test_hash_tokens_stable_and_normalised(self):
        assert hash_tokens("A Dog!") == hash_tokens("a dog")
        features = text_features(["dog dog", "dog"])
        # BoW is L2-normalised so repetition does not change direction.
        np.testing.assert_allclose(features[0], features[1], rtol=1e-5)

    def test_text_features_shape(self):
        features = text_features(["a", "b c d"])
        assert features.shape[0] == 2
        np.testing.assert_allclose(np.linalg.norm(features, axis=1), 1.0,
                                   rtol=1e-5)

    def test_preprocess_downsamples(self):
        images = Tensor(np.zeros((2, 3, 200, 300), dtype=np.float32))
        assert preprocess_images(images).shape == (2, 3, 25, 25)

    def test_encoders_produce_unit_embeddings(self):
        model = TinyCLIP()
        images = tcr.randn(3, 3, 25, 25)
        img = model.encode_image(images).data
        np.testing.assert_allclose(np.linalg.norm(img, axis=1), 1.0, rtol=1e-4)
        txt = model.encode_text(["hello world"]).data
        np.testing.assert_allclose(np.linalg.norm(txt, axis=1), 1.0, rtol=1e-4)

    def test_logits_shape(self):
        model = TinyCLIP()
        logits = model.logits_per_image(tcr.randn(4, 3, 25, 25),
                                        ["a", "b", "c"])
        assert logits.shape == (4, 3)

    def test_similarity_uses_calibration(self):
        model = TinyCLIP()
        model.calib_scale.data = np.asarray([2.0], dtype=np.float32)
        model.calib_offset.data = np.asarray([0.5], dtype=np.float32)
        images = tcr.randn(2, 3, 25, 25)
        raw_img = model.encode_image(images).data
        raw_txt = model.encode_text(["q"]).data
        want = (raw_img @ raw_txt.T).ravel() * 2.0 + 0.5
        got = model.similarity("q", images).data
        np.testing.assert_allclose(got, want, rtol=1e-4)
