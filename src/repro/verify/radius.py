"""Maximal certified radius search (Section 6.1).

The paper reports, per word position, the largest ``eps`` such that the ℓp
ball of radius ``eps`` around the word's embedding is certified. The search
here is a binary search: an exponential bracketing phase finds an
uncertifiable upper end, then bisection narrows the bracket. A nonzero
radius it returns was certified, but it is not necessarily the largest
certifiable one: neither the DecorrelateMin_k symbol reduction nor the
softmax-sum refinement guarantees that certification is monotone in the
radius, so a larger radius than the one returned may also certify.
"""

from __future__ import annotations

__all__ = ["binary_search_radius", "max_certified_radius",
           "max_certified_image_radius"]


def binary_search_radius(certify, initial=0.01, max_radius=1e6,
                         n_iterations=14):
    """A radius accepted by ``certify(radius)``, found by bisection.

    For a monotone predicate this is the largest accepted radius to the
    search's precision; otherwise it is an accepted radius at the end of
    the bracket the search followed. Returns 0.0 when even tiny radii
    fail. ``n_iterations`` bisection steps after bracketing give a
    relative precision of about ``2**-n``.
    """
    if initial <= 0:
        raise ValueError("initial radius must be positive")
    if not certify(initial):
        hi = initial
        lo = 0.0
        # Shrink to find any certifiable radius at all.
        for _ in range(n_iterations):
            mid = hi / 2.0
            if certify(mid):
                lo = mid
                break
            hi = mid
        else:
            return 0.0
        hi = 2.0 * lo
    else:
        lo = initial
        hi = initial * 2.0
        while hi <= max_radius and certify(hi):
            lo = hi
            hi *= 2.0
    for _ in range(n_iterations):
        mid = 0.5 * (lo + hi)
        if certify(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_certified_radius(verifier, token_ids, position, p, true_label=None,
                         initial=0.01, n_iterations=12):
    """Maximal certified T1 radius for one word position."""
    if true_label is None:
        true_label = verifier.model.predict(token_ids)

    def certify(radius):
        return verifier.certify_word_perturbation(
            token_ids, position, radius, p, true_label=true_label).certified

    return binary_search_radius(certify, initial=initial,
                                n_iterations=n_iterations)


def max_certified_image_radius(verifier, image, p, true_label=None,
                               initial=0.01, n_iterations=12):
    """Maximal certified pixel-ball radius for one image (A.3)."""
    if true_label is None:
        true_label = verifier.model.predict(image)

    def certify(radius):
        return verifier.certify_image_perturbation(
            image, radius, p, true_label=true_label).certified

    return binary_search_radius(certify, initial=initial,
                                n_iterations=n_iterations)
