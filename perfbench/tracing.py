"""Spans around pbcap's layer boundaries, recorded from outside the program.

Each layer is a public function or method, wrapped by name everywhere it
is looked up: the defining module or class, and every pbcap module that
imported it by name (``policy.matches_trapdoor`` as well as
``scheme.matches_trapdoor``).  A name that a later version renames or
removes is recorded as absent and the run goes on.  Spans stay in memory
until the run ends; a span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# metric prefix -> (module, attribute path)
LAYERS = {
    "bn256.miller_loop": ("pbcap.pairing.bn256", "miller_loop"),
    "bn256.final_exponentiation": ("pbcap.pairing.bn256", "final_exponentiation"),
    "bn256.g1_scalar_mul": ("pbcap.pairing.bn256", "PointG1.scalar_mul"),
    "bn256.g2_scalar_mul": ("pbcap.pairing.bn256", "PointG2.scalar_mul"),
    "bn256.hash_to_g1": ("pbcap.pairing.bn256", "hash_to_g1"),
    "bn256.g1_from_bytes": ("pbcap.pairing.bn256", "g1_from_bytes"),
    "bn256.g2_from_bytes": ("pbcap.pairing.bn256", "g2_from_bytes"),
    "scheme.make_tag": ("pbcap.scheme", "make_tag"),
    "scheme.verify_authenticity": ("pbcap.scheme", "verify_authenticity"),
    "scheme.matches_trapdoor": ("pbcap.scheme", "matches_trapdoor"),
    "policy.classify": ("pbcap.policy", "classify"),
    "policy.compile_policies": ("pbcap.policy", "compile_policies"),
    "formats.load_submission": ("pbcap.formats", "load_submission"),
    "formats.load_compiled_policies": ("pbcap.formats", "load_compiled_policies"),
    "formats.save_submission": ("pbcap.formats", "save_submission"),
    "provenance.parse_graph": ("pbcap.provenance", "parse_graph"),
    "provenance.extract_fragments": ("pbcap.provenance", "extract_fragments"),
    "storage.store": ("pbcap.storage", "StorageLayout.store"),
    "storage.log": ("pbcap.storage", "StorageLayout.log"),
}
REQUEST = "cli.request"
HIT_LAYER = "scheme.matches_trapdoor"
# Layers that run once per set-up rather than per request.
SETUP_LAYERS = ("policy.compile_policies",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request key]
        self.hits = 0
        self.absent: list[str] = []
        self.request = None
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.request])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if name == HIT_LAYER and result:
                self.hits += 1
            return result
        return traced

    def install(self, layers: dict = LAYERS) -> None:
        """Wrap every layer; record the ones that cannot be found."""
        for name, (module_name, path) in layers.items():
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            traced = self._wrap(name, original)
            setattr(owner, attr, traced)
            if not outer:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("pbcap") and mod is not None:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, traced)

    def self_times(self) -> list[tuple[str, float, object]]:
        """(name, self seconds, request key) for every span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[0], s[2] - s[1] - child[i], s[4]) for i, s in enumerate(self.spans)]
