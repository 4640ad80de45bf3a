"""Input perturbation regions as Multi-norm Zonotopes.

Threat model T1 (Section 2): an ℓp ball of radius eps around the embedding
of one word. Threat model T2: an elementwise box covering the embeddings of
every synonym choice at every position simultaneously.
"""

from __future__ import annotations

import numpy as np

from ..zonotope import MultiNormZonotope

__all__ = ["lp_ball_region", "word_position_mask",
           "word_perturbation_region", "synonym_attack_region",
           "image_perturbation_region"]


def lp_ball_region(center, radius, p, perturbed_mask=None):
    """Generic ℓp ball region over an (N, E) embedding matrix."""
    return MultiNormZonotope.from_lp_ball(center, radius, p,
                                          perturbed_mask=perturbed_mask)


def word_position_mask(embeddings, position):
    """Mask of the word at ``position`` in an (N, E) embedding matrix.

    Every T1 front end builds its region through this check: a position
    outside the sequence, negative ones included, raises ``ValueError``.
    """
    if not 0 <= position < len(embeddings):
        raise ValueError(f"position {position} out of range "
                         f"for a {len(embeddings)}-token sequence")
    mask = np.zeros(embeddings.shape, dtype=bool)
    mask[position] = True
    return mask


def word_perturbation_region(model, token_ids, position, radius, p):
    """T1 region: perturb the embedding of the word at ``position``.

    Note position 0 holds the [CLS] token for the NLP classifier; the paper
    perturbs content-word positions.
    """
    embeddings = model.embed_array(token_ids)
    return MultiNormZonotope.from_lp_ball(
        embeddings, radius, p,
        perturbed_mask=word_position_mask(embeddings, position))


def synonym_attack_region(attack):
    """T2 region from a :class:`repro.nlp.SynonymAttack` (ℓ∞ box)."""
    return MultiNormZonotope.from_box(attack.center, attack.radius)


def image_perturbation_region(model, image, radius, p):
    """ℓp ball over *pixels*, pushed through the patch embedding (A.3).

    The patch projection is affine, so the pixel-space zonotope maps
    exactly onto an (n_patches, E) embedding zonotope.
    """
    from ..nn.vision import patchify
    patches = patchify(image, model.patch_size)
    pixel_region = MultiNormZonotope.from_lp_ball(patches, radius, p)
    embedded = pixel_region.matmul_const(model.patch_proj.weight.data)
    embedded = embedded + model.patch_proj.bias.data
    return embedded + model.position_embedding.data
