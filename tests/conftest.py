"""Shared fixtures; the expensive sweeps are computed once per session.

Hypothesis profiles: ``default`` keeps Hypothesis's own settings, and
``ci`` (HYPOTHESIS_PROFILE=ci) runs more examples of every property that
does not fix its own count."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from segaltopos.bundles import BUNDLES
from segaltopos.corpus import corpus_categories
from segaltopos.segal import (
    category_object_from_finite_category,
    hoequiv,
    nerve_truncation,
)
from segaltopos.univalence import _finset_map, fiber_signatures, is_univalent

settings.register_profile("ci", max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def finset_sweep():
    """Univalence reports for every map of finite sets with |E|,|B| <= 3,
    one representative per arrow-isomorphism class."""
    out = {}
    for sig in fiber_signatures(3, 3):
        p = _finset_map(sig)
        out[sig] = (p, is_univalent(p, name=str(sig)))
    return out


@pytest.fixture(scope="session")
def corpus_nerves():
    """Nerve truncation and the paper's object of equivalences (the
    pullback hoequiv) for every corpus category."""
    out = {}
    for name, C in corpus_categories().items():
        cat = category_object_from_finite_category(C)
        trunc = nerve_truncation(cat)
        out[name] = (C, cat, trunc, hoequiv(trunc))
    return out


@pytest.fixture(scope="session")
def bundled_workspaces():
    return {name: builder() for name, builder in BUNDLES.items()}
