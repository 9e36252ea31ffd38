"""Registry of shipped sink profiles.

Each profile records where a model's stable activation outliers emerge
(layer index) and which hidden channels carry them; both are input-independent
for a given checkpoint, so they are shipped as static JSON and loaded by
model name. Additional profile files can be dropped into the directory named
by the ``SINKQUANT_PROFILES`` environment variable, which takes precedence
over the packaged set.
"""

from __future__ import annotations

import os
from functools import partial
from importlib import resources

from .dumpio import read_json, record_from_json
from .errors import ConfigError, FormatError
from .sinks import SinkProfile

ENV_PROFILE_DIR = "SINKQUANT_PROFILES"


def _packaged_dir():
    return resources.files(__package__) / "profiles"


def _canonical_key(name: str) -> str:
    return name.lower().replace("_", "-").replace(" ", "-")


def available_profiles() -> list[str]:
    """Model names with a loadable profile, overrides first."""
    names = {}
    for entry in sorted(_packaged_dir().iterdir()):
        if entry.name.endswith(".json"):
            names[_canonical_key(entry.name[: -len(".json")])] = None
    override = os.environ.get(ENV_PROFILE_DIR)
    if override and os.path.isdir(override):
        for fn in sorted(os.listdir(override)):
            if fn.endswith(".json"):
                names[_canonical_key(fn[: -len(".json")])] = None
    return sorted(names)


def load_profile(name: str) -> SinkProfile:
    """Load a profile by model name or from an explicit JSON path."""
    if os.path.sep in name or name.endswith(".json"):
        return load_profile_file(name)
    key = _canonical_key(name)
    override = os.environ.get(ENV_PROFILE_DIR)
    if override:
        candidate = os.path.join(override, key + ".json")
        if os.path.isfile(candidate):
            return load_profile_file(candidate)
    entry = _packaged_dir() / (key + ".json")
    if not entry.is_file():
        raise ConfigError(f"no profile named {name!r}", available=available_profiles())
    with resources.as_file(entry) as path:
        return load_profile_file(str(path))


def load_profile_file(path: str) -> SinkProfile:
    """A ``SinkProfile`` from a JSON file; an unreadable or malformed file is a ``FormatError``."""
    return record_from_json(SinkProfile, read_json(path), partial(FormatError, path=path))
