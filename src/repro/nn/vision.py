"""Vision Transformer for image classification (Appendix A.3).

The input image is split into square patches; each patch is mapped through a
shared linear layer to an embedding, a positional encoding is added, and the
sequence of patch embeddings is processed by the same encoder stack as the
NLP classifier.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, no_grad
from .layers import Module, Linear
from .transformer import TransformerLayer

__all__ = ["patchify", "VisionTransformerClassifier"]


def patchify(image, patch_size):
    """Split a (H, W) image into a (n_patches, patch_size**2) matrix.

    Patches are taken row-major; H and W must be multiples of
    ``patch_size`` (the paper pads 28x28 MNIST into 7x7 patches).
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    ps = patch_size
    if h % ps or w % ps:
        raise ValueError(f"image {h}x{w} not divisible into {ps}x{ps} patches")
    patches = (image.reshape(h // ps, ps, w // ps, ps)
               .transpose(0, 2, 1, 3)
               .reshape(-1, ps * ps))
    return patches


class VisionTransformerClassifier(Module):
    """Patch-embedding Transformer classifier (App. A.3 architecture)."""

    def __init__(self, image_size=14, patch_size=7, embed_dim=32, n_heads=4,
                 hidden_dim=64, n_layers=1, n_classes=10, seed=0,
                 divide_by_std=False, init_std=0.1):
        rng = np.random.default_rng(seed)
        if image_size % patch_size:
            raise ValueError("image_size must be divisible by patch_size")
        self.image_size = image_size
        self.patch_size = patch_size
        self.embed_dim = embed_dim
        self.n_heads = n_heads
        self.hidden_dim = hidden_dim
        self.n_layers = n_layers
        self.n_classes = n_classes
        self.n_patches = (image_size // patch_size) ** 2
        self.patch_proj = Linear(patch_size * patch_size, embed_dim, rng=rng,
                                 init_std=init_std)
        self.position_embedding = Tensor(
            rng.normal(0.0, 0.1, size=(self.n_patches, embed_dim)),
            requires_grad=True)
        self.layers = [TransformerLayer(embed_dim, n_heads, hidden_dim,
                                        rng=rng, divide_by_std=divide_by_std,
                                        init_std=init_std)
                       for _ in range(n_layers)]
        self.pool = Linear(embed_dim, embed_dim, rng=rng, init_std=init_std)
        self.classifier = Linear(embed_dim, n_classes, rng=rng,
                                 init_std=init_std)

    def embed(self, image):
        """Patch + positional embeddings as an (n_patches, E) tensor."""
        patches = Tensor(patchify(image, self.patch_size))
        return self.patch_proj(patches) + self.position_embedding

    def embed_array(self, image):
        """Concrete (n_patches, E) embedding ndarray."""
        with no_grad():
            return self.embed(image).data

    def forward_from_embeddings(self, embeddings):
        """(..., n_patches, E) embeddings to (..., n_classes) logits."""
        x = embeddings
        for layer in self.layers:
            x = layer(x)
        pooled = self.pool(x[..., 0, :]).tanh()
        return self.classifier(pooled)

    def forward(self, image):
        return self.forward_from_embeddings(self.embed(image))

    def predict(self, image):
        with no_grad():
            logits = self.forward(image)
        return int(np.argmax(logits.data))

    def logits_from_embedding_array(self, embeddings):
        with no_grad():
            return self.forward_from_embeddings(Tensor(embeddings)).data
