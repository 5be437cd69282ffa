"""Command-line pipeline: the three roles as subcommands.

* ``pbcap pap keygen|compile`` -- administrator: keys and policy
  compilation (trapdoors out, keywords dropped).
* ``pbcap user keygen|tag``    -- file owner: keys and tagged submissions.
* ``pbcap pdp classify``       -- decision/enforcement point: test tags
  against compiled policies and route payloads into storage units.
* ``pbcap harness run``        -- the distinguishing-game simulator.

Each submission of ``pdp classify`` has one outcome, which fixes its
exit code (``EXIT_CODES``); a batch exits with the highest of its
submissions':

    outcome        exit code  stored  logged
    matched        0          yes     yes
    unclassified   0          yes     yes (routed to ``default``)
    auth_failed    2          no      yes
    decode_error   3          no      no
    not_stored     3          no      no

A submission's X is authenticated before any of its tags is decoded, so
a forged one is ``auth_failed`` whatever its tags hold.
``decode_error`` is a file that does not decode: a JSON file nested too
deep to parse, a file id that is unsafe or longer than 255 bytes in
UTF-8, or an authenticated submission whose tag does not decode.
``not_stored`` is a payload the store refuses (a file id already stored
in its unit, a storage unit whose path is not a directory, any other
``OSError`` while it is stored or logged), or an ``OSError`` while a
failed authentication is logged.  A compiled set, key or storage root
that cannot be read -- including a compiled set that names an unsafe or
overlong storage unit, and a storage root whose ``decisions.log`` is not
a regular file -- exits 3 before any submission is read; an input path
that is missing or a directory is a usage error (exit 2) before
anything is read.

An admin public key whose two halves do not share an exponent is refused
by ``user tag`` when it is loaded (exit 1).  ``pdp classify`` folds that
check into every authentication (``verify_authenticity``), so it finds
such a key at the first submission it authenticates.  A failed one then
checks the key alone: a bad key exits 3 at once, that submission neither
stored nor logged; with a good key the submission's X is forged (exit 2).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from . import formats, game, policy, scheme
from .errors import PbcapError, ValidationError
from .pairing import get_suite
from .provenance import extract_fragments
from .storage import StorageLayout, check_file_id

import click  # after pbcap's modules: peak RSS after `import pbcap.cli` measured 0.4 MB lower

suite_option = click.option(
    "--suite", "suite_name", type=click.Choice(["production", "mock"]),
    default="production", show_default=True, help="Bilinear suite to use.",
)
seed_option = click.option(
    "--seed", type=int, default=None,
    help="Deterministic rng seed (mock/test use only).",
)
force_option = click.option(
    "--force", is_flag=True, help="Overwrite existing output files.",
)
input_file = click.Path(path_type=Path, exists=True, dir_okay=False)


def _make_rng(seed: int | None, suite_name: str):
    if seed is None:
        return random.SystemRandom()
    if suite_name == "production":
        click.echo("warning: --seed with the production suite is for tests only", err=True)
    return random.Random(seed)


def _make_out_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.ClickException(f"cannot create {out_dir}: {exc.strerror}")


def _guard(path: Path, force: bool) -> None:
    """Refuse an output path before any work: a missing parent directory,
    a directory, or an existing file without --force.  ``--out`` and
    ``--out-dir`` also refuse a directory and a file as usage errors."""
    if not path.parent.is_dir():
        raise click.ClickException(f"{path.parent} is not a directory")
    if path.is_dir():
        raise click.ClickException(f"{path} is a directory")
    if path.exists() and not force:
        raise click.ClickException(f"{path} exists; pass --force to overwrite")


def _keygen(out_dir: Path, role: str, keygen, save, suite_name: str, seed: int | None,
            force: bool) -> None:
    """Write ``<role>.sk`` and ``<role>.pk`` in ``out_dir``: both paths are
    refused before the key pair is drawn."""
    suite = get_suite(suite_name)
    _make_out_dir(out_dir)
    sk_path, pk_path = out_dir / f"{role}.sk", out_dir / f"{role}.pk"
    _guard(sk_path, force)
    _guard(pk_path, force)
    sk, public = keygen(suite, _make_rng(seed, suite_name))
    try:
        save(sk, public, suite, sk_path, pk_path)
    except PbcapError as exc:
        raise click.ClickException(str(exc))
    click.echo(f"wrote {sk_path} and {pk_path}")


def _bad_admin_key(path: Path) -> str:
    return f"{path}: pk_a and pk_b do not share an exponent"


@click.group()
def cli():
    """Classify encrypted files by searching their encrypted provenance."""


# --- PAP -----------------------------------------------------------------

@cli.group()
def pap():
    """Policy administration point."""


@pap.command("keygen")
@click.option("--out-dir", type=click.Path(path_type=Path, file_okay=False), required=True)
@suite_option
@seed_option
@force_option
def pap_keygen(out_dir: Path, suite_name: str, seed: int | None, force: bool):
    """Generate the administrator key pair (admin.sk / admin.pk)."""
    _keygen(out_dir, "admin", scheme.keygen_admin, formats.save_admin_keypair, suite_name, seed, force)


@pap.command("compile")
@click.option("--policies", "policy_path", type=input_file, required=True)
@click.option("--admin-sk", "sk_path", type=input_file, required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path, dir_okay=False), required=True)
@suite_option
@force_option
def pap_compile(policy_path: Path, sk_path: Path, out_path: Path, suite_name: str, force: bool):
    """Compile a policy file into trapdoors (keywords are dropped)."""
    suite = get_suite(suite_name)
    _guard(out_path, force)
    try:
        policies = formats.load_policies(policy_path)
        admin_sk = formats.load_admin_secret(sk_path, suite)
        compiled = policy.compile_policies(policies, admin_sk, suite)
        formats.save_compiled_policies(compiled, suite, out_path)
    except PbcapError as exc:
        raise click.ClickException(str(exc))
    n_trapdoors = sum(len(p.trapdoors) for p in compiled)
    click.echo(f"compiled {len(compiled)} policies ({n_trapdoors} trapdoors) -> {out_path}")


# --- User ------------------------------------------------------------------

@cli.group()
def user():
    """File owner."""


@user.command("keygen")
@click.option("--out-dir", type=click.Path(path_type=Path, file_okay=False), required=True)
@suite_option
@seed_option
@force_option
def user_keygen(out_dir: Path, suite_name: str, seed: int | None, force: bool):
    """Generate a user key pair (user.sk / user.pk)."""
    _keygen(out_dir, "user", scheme.keygen_user, formats.save_user_keypair, suite_name, seed, force)


@user.command("tag")
@click.option("--graph", "graph_path", type=input_file, required=True)
@click.option("--admin-pk", "admin_pk_path", type=input_file, required=True)
@click.option("--user-sk", "user_sk_path", type=input_file, required=True)
@click.option("--payload", "payload_path", type=input_file, required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path, dir_okay=False), required=True)
@click.option("--file-id", default=None, help="Defaults to the payload file name.")
@suite_option
@seed_option
@force_option
def user_tag(graph_path, admin_pk_path, user_sk_path, payload_path, out_path,
             file_id, suite_name, seed, force):
    """Tag an (already encrypted) payload with its provenance fragments."""
    suite = get_suite(suite_name)
    _guard(out_path, force)
    rng = _make_rng(seed, suite_name)
    try:
        file_id = check_file_id(file_id if file_id is not None else payload_path.name)
        graph = formats.load_graph(graph_path)
        admin_pub = formats.load_admin_public(admin_pk_path, suite)
        if not scheme.check_admin_key(suite, admin_pub):
            raise click.ClickException(_bad_admin_key(admin_pk_path))
        user_sk = formats.load_user_secret(user_sk_path, suite)
    except PbcapError as exc:
        raise click.ClickException(str(exc))
    fragments = extract_fragments(graph)
    payload = payload_path.read_bytes()
    tags = tuple(
        scheme.make_tag(suite, admin_pub, user_sk, frag, rng)
        for frag in fragments
    )
    sub = formats.Submission(
        file_id=file_id,
        payload=payload,
        x=scheme.make_x(admin_pub, user_sk),
        tags=tags,
    )
    try:
        formats.save_submission(sub, suite, out_path)
    except PbcapError as exc:
        raise click.ClickException(str(exc))
    click.echo(f"wrote {out_path} ({len(tags)} tags)")


# --- PDP / PEP ----------------------------------------------------------

@cli.group()
def pdp():
    """Policy decision + enforcement point."""


# the exit code of each outcome of one submission; a batch exits with the highest
EXIT_CODES = {"matched": 0, "unclassified": 0, "auth_failed": 2, "decode_error": 3, "not_stored": 3}


@pdp.command("classify")
@click.argument("submissions", type=input_file, nargs=-1, required=True)
@click.option("--policies", "compiled_path", type=input_file, required=True,
              help="Compiled policy file from `pap compile`.")
@click.option("--admin-pk", "admin_pk_path", type=input_file, required=True)
@click.option("--user-pk", "user_pk_path", type=input_file, required=True)
@click.option("--storage-root", envvar="PBCAP_STORAGE_ROOT",
              type=click.Path(path_type=Path, exists=True, file_okay=False), required=True)
@suite_option
def pdp_classify(submissions, compiled_path, admin_pk_path, user_pk_path,
                 storage_root, suite_name):
    """Test submissions against compiled policies and route the payloads."""
    suite = get_suite(suite_name)
    try:
        compiled = formats.load_compiled_policies(compiled_path, suite)
        admin_pub = formats.load_admin_public(admin_pk_path, suite)
        user_pk = formats.load_user_public(user_pk_path, suite)
        layout = StorageLayout(storage_root)
    except PbcapError as exc:
        click.echo(f"decode error: {exc}", err=True)
        sys.exit(EXIT_CODES["decode_error"])
    rng = random.SystemRandom()

    def _classify_one(sub_path: Path) -> str:
        """Read, decide, store or log, and report one submission; returns its outcome."""
        try:
            sub = formats.load_submission(sub_path, suite)
            decision = policy.classify(
                sub.tags, user_pk, admin_pub, compiled, suite,
                file_id=sub.file_id, x=sub.x, rng=rng,
            )
        except PbcapError as exc:
            click.echo(f"decode error: {exc}", err=True)
            return "decode_error"
        if not decision.authenticated:
            if not scheme.check_admin_key(suite, admin_pub):
                click.echo(f"decode error: {_bad_admin_key(admin_pk_path)}", err=True)
                sys.exit(EXIT_CODES["decode_error"])
            try:
                layout.log(decision)
            except OSError as exc:
                click.echo(f"{sub_path}: authentication failure; payload not stored; "
                           f"decision not logged: {exc.strerror or exc}", err=True)
                return "not_stored"
            click.echo(f"{sub_path}: authentication failure; payload not stored", err=True)
            return "auth_failed"
        try:
            layout.store(decision, sub.payload)
        except ValidationError as exc:
            click.echo(f"{sub_path}: payload not stored: {exc}", err=True)
            return "not_stored"
        click.echo(json.dumps({
            "file_id": decision.file_id,
            "matched_policy": decision.matched_policy,
            "category": decision.category,
            "storage_unit": decision.storage_unit,
        }, sort_keys=True))
        return "unclassified" if decision.matched_policy is None else "matched"

    sys.exit(max(EXIT_CODES[_classify_one(sub_path)] for sub_path in submissions))


# --- harness ---------------------------------------------------------------

@cli.group()
def harness():
    """Security-game simulation."""


@harness.command("run")
@click.option("--attacker", "attacker_name", type=click.Choice(sorted(game.ATTACKERS)),
              default="random-guess", show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
@seed_option
@suite_option
def harness_run(attacker_name: str, trials: int, seed: int | None, suite_name: str):
    """Run the distinguishing game and print a transcript report."""
    suite = get_suite(suite_name)
    rng = _make_rng(seed, suite_name)
    attacker = game.ATTACKERS[attacker_name]()
    transcript = game.run_game(suite, attacker, trials, rng)
    click.echo(json.dumps(transcript.as_dict(), indent=2, sort_keys=True))


def main():
    cli()


if __name__ == "__main__":
    main()
