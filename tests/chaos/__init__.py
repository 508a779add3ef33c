import os

from repro.chaos import ExpectSpec, load_scenario

#: The checked-in scenario corpus at the repo root.
CORPUS = os.path.join(os.path.dirname(__file__), "..", "..", "scenarios")


def corpus_spec(name):
    """``scenarios/<name>.json`` with its pinned ``expect`` block cleared,
    so tests can re-run, tweak and re-pin it."""
    spec = load_scenario(os.path.join(CORPUS, f"{name}.json"))
    return spec.replace(expect=ExpectSpec())
