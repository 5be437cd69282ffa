"""The one place tests drive the ``pbcap`` command line, a test helper.

``run`` invokes the CLI in-process and asserts its exit code.  The
builders run the seeded pipeline steps into one root directory and take
only data; a scenario lays its files out as:

    root/policies.json            the policy set ``prepare`` compiles
    root/pap/admin.sk, admin.pk   ``pap keygen --seed 1``
    root/usr/user.sk, user.pk     ``user keygen --seed 2``
    root/compiled.json            ``pap compile`` of the policy set
    root/payload.bin              PAYLOAD, the payload every ``tag`` reads
    root/store/                   an empty storage root
    root/<name>.graph, <name>.json   the graph and submission of each ``tag``
"""

import json

from click.testing import CliRunner

from pbcap.cli import cli

PAYLOAD = b"opaque ciphertext"


def run(*args, code=0):
    """``pbcap *args``: asserts the exit code and returns the click result."""
    result = CliRunner().invoke(cli, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == code, result.output
    return result


def keygen(out_dir, role, suite, seed):
    """Seeded ``pap keygen`` or ``user keygen`` (``role``) into ``out_dir``."""
    run(role, "keygen", "--out-dir", out_dir, "--suite", suite, "--seed", seed)


def prepare(root, suite, policies=()):
    """Everything a ``tag`` and a ``pdp classify`` read but the submissions:
    the payload, an empty store, both key pairs and the compiled set of
    ``policies``, a list of policy entries."""
    (root / "store").mkdir(parents=True)
    (root / "payload.bin").write_bytes(PAYLOAD)
    (root / "policies.json").write_text(json.dumps(
        {"format": "pbcap/1", "kind": "policy-set", "policies": list(policies)}))
    keygen(root / "pap", "pap", suite, 1)
    keygen(root / "usr", "user", suite, 2)
    run(*compile_args(root, suite, "compiled.json"))


def compile_args(root, suite, out):
    """The ``pap compile`` arguments of ``root/policies.json`` with the
    scenario's admin key into ``root/<out>``."""
    return ["pap", "compile", "--policies", root / "policies.json", "--admin-sk", root / "pap/admin.sk",
            "--out", root / out, "--suite", suite]


def tag_args(root, suite, graph_path, seed, out="sub.json", file_id=None, user="usr"):
    """The ``user tag`` arguments of ``graph_path`` with
    ``root/<user>/user.sk`` into ``root/<out>``, seeded unless ``seed`` is None."""
    return ["user", "tag", "--graph", graph_path, "--admin-pk", root / "pap/admin.pk",
            "--user-sk", root / user / "user.sk", "--payload", root / "payload.bin",
            "--out", root / out, *(() if file_id is None else ("--file-id", file_id)),
            "--suite", suite, *(() if seed is None else ("--seed", seed))]


def tag(root, suite, graph, seed, out="sub.json", file_id=None, user="usr"):
    """Seeded ``user tag`` of the graph text with ``root/<user>/user.sk``
    into ``root/<out>``, the graph written next to it with suffix
    ``.graph``; returns the click result."""
    graph_path = (root / out).with_suffix(".graph")
    graph_path.write_text(graph)
    return run(*tag_args(root, suite, graph_path, seed, out, file_id, user))


def classify_args(root, suite, *subs):
    """The ``pdp classify`` arguments of the submissions ``root/<sub>``, in
    order, against the scenario's compiled set, keys and store."""
    return ["pdp", "classify", *(root / sub for sub in subs), "--policies", root / "compiled.json",
            "--admin-pk", root / "pap/admin.pk", "--user-pk", root / "usr/user.pk",
            "--storage-root", root / "store", "--suite", suite]


def scenario(root, suite, policies, graph):
    """``prepare`` and ``root/sub.json``, the graph tagged with seed 3;
    returns that submission's ``pdp classify`` arguments."""
    prepare(root, suite, policies)
    tag(root, suite, graph, 3)
    return classify_args(root, suite, "sub.json")
