"""Exact Miller-loop, final-exponentiation, G2 line-table, ladder-table,
G2 scalar-multiplication and point-operation counts per operation.

The counts come from wrappers monkeypatched over ``bn256.miller_loop``,
``bn256.final_exponentiation``, ``bn256.g2_lines``, ``bn256.g2_from_bytes``,
``curve._odd_multiples``, ``curve.PointG2.scalar_mul`` and the ``add``
and ``double`` of both point classes; the program itself keeps no
counter.  ``pdp classify`` decodes a submission's tags only once its X
is authenticated, so a forged submission's tags cost nothing.
``make_tag`` pays one G2 scalar multiplication per tag, because Y and Z
depend on beta and r only through s = beta*r.  A group-B element keeps
its line table once it is paired, by ``pair`` or ``pairs_equal``, so a
command builds one table per group-B element it pairs.  ``g_b``'s table
is built once, when ``pbcap.pairing`` is imported, so no command builds
it.  ``user tag`` pairs ``g_b`` and the admin key in its admin key check,
then the admin key again per tag.  ``pdp classify`` checks the admin key
inside every authentication, whose merged check pairs two new elements,
g_b^delta * user_pk_b and admin_pk_b^delta * X, and each tested tag its Y.
A scalar multiplication builds a ladder table of its point's odd
multiples, except by g_b, whose tables are also built at import: so
``user tag`` builds one G2 table, for X, and one G1 table per fragment,
and an authentication one, for admin_pk_b^delta.  Each multiplication's
interleaved width-5 NAF ladder runs one double per digit position and
one add per non-zero digit, and its point-operation counts are pinned
for four seeded scalars.

The command-line scenarios come from ``tests/pipeline.py``: ``scenario``,
``prepare``, ``keygen`` and ``tag`` run the seeded production-suite steps,
``classify_args`` builds a ``pdp classify`` and ``run`` invokes it.
"""

import json
import random
from collections import Counter

import pytest
from pipeline import classify_args, keygen, prepare, run, scenario, tag

from pbcap import formats, policy
from pbcap.pairing import Bn256Suite, Group, bn256, curve
from pbcap.scheme import (
    check_admin_key,
    keygen_admin,
    keygen_user,
    make_tag,
    make_trapdoor,
    make_x,
    matches_trapdoor,
    verify_authenticity,
)


@pytest.fixture
def counts(monkeypatch):
    seen = Counter()
    for name in ("miller_loop", "final_exponentiation"):
        inner = getattr(bn256, name)

        def counted(*args, _inner=inner, _name=name):
            seen[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(bn256, name, counted)
    return seen


@pytest.fixture
def tables(monkeypatch):
    """Line tables built, keyed by the hex encoding of their Q."""
    built = Counter()

    def counted(q, _inner=bn256.g2_lines):
        built[bn256.g2_to_bytes(q).hex()] += 1
        return _inner(q)

    monkeypatch.setattr(bn256, "g2_lines", counted)
    return built


@pytest.fixture
def g2_decodes(monkeypatch):
    """G2 points decoded from bytes, keyed by their hex encoding."""
    decoded = Counter()

    def counted(data, _inner=bn256.g2_from_bytes):
        decoded[data.hex()] += 1
        return _inner(data)

    monkeypatch.setattr(bn256, "g2_from_bytes", counted)
    return decoded


@pytest.fixture
def straus_tables(monkeypatch):
    """Ladder tables of odd multiples built, keyed by the hex encoding of
    their G2 point, or "G1" for a G1 point."""
    built = Counter()

    def counted(p, _inner=curve._odd_multiples):
        built[bn256.g2_to_bytes(p).hex() if isinstance(p, curve.PointG2) else "G1"] += 1
        return _inner(p)

    monkeypatch.setattr(curve, "_odd_multiples", counted)
    return built


@pytest.fixture
def point_ops(monkeypatch):
    """``add`` and ``double`` calls of both point classes, keyed as
    "PointG1.add"; an add of P + P also counts its double."""
    seen = Counter()
    for cls in (curve.PointG1, curve.PointG2):
        for name in ("add", "double"):
            def counted(self, *args, _inner=getattr(cls, name), _key=f"{cls.__name__}.{name}"):
                seen[_key] += 1
                return _inner(self, *args)

            monkeypatch.setattr(cls, name, counted)
    return seen


def test_scalar_mul_point_operations(point_ops):
    """Exact adds and doubles of one seeded scalar multiplication each: a
    G1 point, a G2 point other than g_b, g_b through its constant tables,
    and an authentication's delta, four 32-bit limbs, on the G2 point.  A
    variable point's count includes its table: one double and seven adds."""
    rng = random.Random(41)
    n = curve.ORDER
    q = bn256.g2_from_bytes(bn256.g2_to_bytes(curve.G2_GEN))
    assert q is not curve.G2_GEN
    cases = [(curve.G1_GEN, rng.randrange(n)), (q, rng.randrange(n)), (curve.G2_GEN, rng.randrange(n)),
             (q, Bn256Suite().batch_exponent(rng.randrange(1, 2 ** 128)))]
    seen = []
    for point, k in cases:
        point_ops.clear()
        point.scalar_mul(k)
        seen.append(dict(point_ops))
    assert seen == [{"PointG1.add": 50, "PointG1.double": 126},
                    {"PointG2.add": 49, "PointG2.double": 63},
                    {"PointG2.add": 46, "PointG2.double": 62},
                    {"PointG2.add": 27, "PointG2.double": 33}]


def _expect(counts, miller_loops, final_exponentiations):
    assert counts == Counter(miller_loop=miller_loops, final_exponentiation=final_exponentiations)


@pytest.fixture
def keys(prod_suite):
    rng = random.Random(31)
    return keygen_admin(prod_suite, rng), keygen_user(prod_suite, rng), rng


def test_check_admin_key(prod_suite, keys, tmp_path, counts):
    """Loading the admin public key pairs nothing; checking it is one 2-pair product."""
    (admin_sk, admin_pub), _, _ = keys
    formats.save_admin_keypair(admin_sk, admin_pub, prod_suite, tmp_path / "a.sk", tmp_path / "a.pk")
    admin_pub = formats.load_admin_public(tmp_path / "a.pk", prod_suite)
    assert not counts
    assert check_admin_key(prod_suite, admin_pub)
    _expect(counts, 1, 1)


def test_verify_authenticity(prod_suite, keys, counts):
    (admin_sk, admin_pub), (user_sk, user_pk), rng = keys
    x = make_x(admin_pub, user_sk)
    assert verify_authenticity(prod_suite, admin_pub, user_pk, x, rng)
    _expect(counts, 1, 1)


def test_matches_trapdoor(prod_suite, keys, counts):
    (admin_sk, admin_pub), (user_sk, user_pk), rng = keys
    tag = make_tag(prod_suite, admin_pub, user_sk, b"RecordedBy(Test,Nurse)", rng)
    trapdoor = make_trapdoor(prod_suite, admin_sk, b"RecordedBy(Test,Nurse)")
    counts.clear()
    assert matches_trapdoor(prod_suite, trapdoor, tag)
    _expect(counts, 1, 1)


def test_make_tag_g2_scalar_multiplications(prod_suite, keys, monkeypatch):
    """Y = g_b^s and Z = H2(e(H1(P)^s, admin_pk_b)) with s = beta*r: one
    G2 and one G1 multiplication per tag.  X is made once per submission
    by ``make_x``."""
    (admin_sk, admin_pub), (user_sk, user_pk), rng = keys
    seen = Counter()
    for cls in (curve.PointG1, curve.PointG2):
        def counted(point, k, _inner=cls.scalar_mul, _name=cls.__name__):
            seen[_name] += 1
            return _inner(point, k)

        monkeypatch.setattr(cls, "scalar_mul", counted)
    for fragment in (b"RecordedBy(Test,Nurse)", b"ProducedFrom(Report,Test)"):
        seen.clear()
        make_tag(prod_suite, admin_pub, user_sk, fragment, rng)
        assert seen == Counter(PointG1=1, PointG2=1)


GRAPH = "node t Artifact Test\nnode n Agent Nurse\nnode r Artifact Report\n" \
        "edge RecordedBy t n\nedge ProducedFrom r t\n"
# GRAPH plus one fragment, SignedBy(Report,Nurse)
GRAPH3 = GRAPH + "edge SignedBy r n\n"


def _pdp_classify(tmp_path, policies, *counters):
    """Seeded ``scenario`` of GRAPH, whose two tags sort as
    ProducedFrom(Report,Test), then RecordedBy(Test,Nurse).  The counters
    cover only its ``pdp classify`` run, whose decision is returned."""
    args = scenario(tmp_path, "production", policies, GRAPH)
    for counter in counters:
        counter.clear()
    return json.loads(run(*args).output)


def _policy(pid, keywords, priority):
    return {"id": pid, "keywords": keywords, "priority": priority,
            "category": f"cat-{pid}", "storage_unit": f"unit-{pid}"}


def test_no_match_pdp_classify(tmp_path, counts, tables):
    """T tags x K trapdoors, nothing matches: every tag/trapdoor pairing
    runs, and each tag's Y builds one line table for all K trapdoors."""
    policies = [
        _policy("1", ["ReviewedBy(Draft,Editor)", "SignedBy(Form,Clerk)"], 5),
        _policy("2", ["ApprovedBy(Plan,Board)"], 9),
    ]
    tags, trapdoors = 2, 3
    assert _pdp_classify(tmp_path, policies, counts, tables)["matched_policy"] is None
    # the admin key check merged into authentication: one Miller loop and one FE
    _expect(counts, 1 + tags * trapdoors, 1 + tags * trapdoors)
    ys = [t["y"] for t in json.loads((tmp_path / "sub.json").read_text())["tags"]]
    assert len(set(ys)) == tags
    assert [tables[y] for y in ys] == [1] * tags
    # the merged check builds the tables of its two new elements, none on a key or X
    assert sum(tables.values()) == tags + 2


def test_top_policy_hit_stops_pdp_classify(tmp_path, counts, monkeypatch):
    """The top policy, last in the file, matches the first tag and a lower
    policy matches the second: only the top policy's trapdoor is tested."""
    tested = []

    def recorded(suite, trapdoor, tag, _inner=policy.matches_trapdoor):
        tested.append(trapdoor.keyword_slot)
        return _inner(suite, trapdoor, tag)

    monkeypatch.setattr(policy, "matches_trapdoor", recorded)
    policies = [
        _policy("low", ["RecordedBy(Test,Nurse)"], 5),
        _policy("mid", ["SignedBy(Form,Clerk)"], 7),
        _policy("top", ["ProducedFrom(Report,Test)", "ApprovedBy(Plan,Board)"], 9),
    ]
    assert _pdp_classify(tmp_path, policies, counts)["matched_policy"] == "top"
    assert tested == ["top/k0"]
    _expect(counts, 2, 2)


def test_edgeless_graph_tagged_and_routed_unclassified(tmp_path, counts):
    """A graph with nodes and no edges has no fragment: ``user tag`` writes
    a submission of no tags, and ``pdp classify`` authenticates it, tests
    no trapdoor and routes it to ``default/``."""
    prepare(tmp_path, "production", [_policy("1", ["RecordedBy(Test,Nurse)"], 5)])
    assert "(0 tags)" in tag(tmp_path, "production", "node t Artifact Test\nnode n Agent Nurse\n", 3).output
    counts.clear()
    decision = json.loads(run(*classify_args(tmp_path, "production", "sub.json")).output)
    assert (decision["category"], decision["storage_unit"]) == ("unclassified", "default")
    assert (tmp_path / "store/default/payload.bin").exists()
    assert len((tmp_path / "store/decisions.log").read_text().splitlines()) == 1
    # the authentication alone: one Miller loop and one FE
    _expect(counts, 1, 1)


def test_log_name_storage_unit_refused_by_pdp_classify(tmp_path, counts):
    """``pdp classify`` checks each storage unit when it reads the compiled
    set, so a hand-built set that routes to the decision log costs no
    pairing and stores nothing."""
    args = scenario(tmp_path, "production", [_policy("1", ["RecordedBy(Test,Nurse)"], 5)], GRAPH)
    doc = json.loads((tmp_path / "compiled.json").read_text())
    doc["policies"][0]["storage_unit"] = "decisions.log"
    (tmp_path / "compiled.json").write_text(json.dumps(doc))
    counts.clear()
    result = run(*args, code=3)
    assert "policy #0: storage unit 'decisions.log'" in result.stderr
    assert list((tmp_path / "store").iterdir()) == []
    assert not counts


@pytest.mark.parametrize("file_id, payload_name", [
    ("../evil", "payload.bin"),
    (".hidden", "payload.bin"),
    (None, ".hidden"),
    ("", "payload.bin"),
])
def test_unstorable_file_id_refused_by_user_tag(tmp_path, counts, file_id, payload_name):
    """``user tag`` checks the file id before it loads a key, so a file id
    no store accepts costs no pairing and writes no submission."""
    prepare(tmp_path, "production")
    (tmp_path / "graph.txt").write_text(GRAPH)
    (tmp_path / payload_name).write_bytes(b"opaque ciphertext")
    args = ["user", "tag", "--graph", tmp_path / "graph.txt", "--admin-pk", tmp_path / "pap/admin.pk",
            "--user-sk", tmp_path / "usr/user.sk", "--payload", tmp_path / payload_name,
            "--out", tmp_path / "sub.json", "--suite", "production", "--seed", 3]
    if file_id is not None:
        args += ["--file-id", file_id]
    counts.clear()
    result = run(*args, code=1)
    assert "file id" in result.output
    assert not (tmp_path / "sub.json").exists()
    assert not counts


def test_unsafe_file_id_refused_by_pdp_classify(tmp_path, counts, tables):
    """A hand-built submission whose file id no store accepts is refused
    when it is read: no pairing runs, and no table is built."""
    args = scenario(tmp_path, "production", [_policy("1", ["RecordedBy(Test,Nurse)"], 5)], GRAPH)
    doc = json.loads((tmp_path / "sub.json").read_text())
    (tmp_path / "sub.json").write_text(json.dumps(dict(doc, file_id="../evil")))
    counts.clear()
    tables.clear()
    result = run(*args, code=3)
    assert "file id '../evil' is not a safe file name" in result.stderr
    assert list((tmp_path / "store").iterdir()) == []
    assert not counts
    assert not tables


def test_identity_tag_y_refused_by_pdp_classify(tmp_path, prod_suite, counts, tables):
    """A hand-built submission whose one tag has the identity as y and
    H2(1) as z would match every trapdoor, e(token, 1) being 1, and go to
    the top policy's unit.  Its X is genuine, so it is authenticated, with
    the merged check's two tables, and then refused when its tag is
    decoded: exit 3, nothing stored or logged, and no tag tested."""
    args = scenario(tmp_path, "production", [_policy("top", ["ApprovedBy(Plan,Board)"], 9)], GRAPH)
    wildcard = {"y": "00" * 65, "z": prod_suite.hash_to_bits(prod_suite.identity(Group.T)).hex()}
    doc = json.loads((tmp_path / "sub.json").read_text())
    (tmp_path / "sub.json").write_text(json.dumps(dict(doc, tags=[wildcard])))
    counts.clear()
    tables.clear()
    result = run(*args, code=3)
    assert result.stderr == f"decode error: {tmp_path / 'sub.json'}: tag y is the identity\n"
    assert list((tmp_path / "store").iterdir()) == []
    _expect(counts, 1, 1)
    assert sum(tables.values()) == 2


def test_forged_submission_refused_before_its_tags_are_decoded(tmp_path, counts, g2_decodes):
    """A forged submission carrying 50 copies of one tag: ``pdp classify``
    decodes the admin ``pk_b``, the user key and X, fails the
    authentication, checks the admin key alone and exits 2.  No tag's Y is
    decoded, so the tags cost nothing."""
    args = scenario(tmp_path, "production", [_policy("1", ["RecordedBy(Test,Nurse)"], 5)], GRAPH)
    keygen(tmp_path / "usr2", "user", "production", 5)
    tag(tmp_path, "production", GRAPH, 6, out="forged.json", user="usr2")
    doc = json.loads((tmp_path / "forged.json").read_text())
    (tmp_path / "sub.json").write_text(json.dumps(dict(doc, tags=doc["tags"][:1] * 50)))
    counts.clear()
    g2_decodes.clear()
    result = run(*args, code=2)
    assert result.stderr == f"{tmp_path / 'sub.json'}: authentication failure; payload not stored\n"
    assert list((tmp_path / "store").iterdir()) == [tmp_path / "store/decisions.log"]
    keys = [json.loads((tmp_path / name).read_text())["pk_b"] for name in ("pap/admin.pk", "usr/user.pk")]
    assert g2_decodes == Counter({h: 1 for h in keys + [doc["x"]]})
    # the authentication, then the admin key checked alone
    _expect(counts, 2, 2)


def test_pdp_classify_batch_pays_each_authentication_in_full(tmp_path, counts, tables, monkeypatch):
    """Two submissions of one user in one ``pdp classify``: each
    authentication also checks the admin key, with two G2 multiplications
    by its delta, and pairs two new elements; neither the user key nor X
    is paired.  Each delta splits into the four 32-bit limbs of its draw.
    Each submission decodes its own tags, whose Ys build their own
    tables."""
    scenario(tmp_path, "production", [_policy("1", ["SignedBy(Form,Clerk)"], 5)], GRAPH)
    tag(tmp_path, "production", GRAPH, 4, out="sub2.json", file_id="second.bin")
    g2_muls, draws = [], []

    def counted(point, k, _inner=curve.PointG2.scalar_mul):
        g2_muls.append(k)
        return _inner(point, k)

    def exponent(suite, r, _inner=Bn256Suite.batch_exponent):
        draws.append(r)
        return _inner(suite, r)

    monkeypatch.setattr(curve.PointG2, "scalar_mul", counted)
    monkeypatch.setattr(Bn256Suite, "batch_exponent", exponent)
    counts.clear()
    tables.clear()
    run(*classify_args(tmp_path, "production", "sub.json", "sub2.json"))
    tags, trapdoors = 2, 1
    _expect(counts, 2 * (1 + tags * trapdoors), 2 * (1 + tags * trapdoors))
    assert len(g2_muls) == 2 * 2 and len(draws) == 2 and all(0 < r < 2 ** 128 for r in draws)
    limbs = [[r >> 32 * j & 0xFFFFFFFF for j in range(4)] for r in draws]
    parts = [curve._split(k, curve.G2_BASIS, curve.G2_ROUNDING) for k in g2_muls]
    assert parts == [limbs[0], limbs[0], limbs[1], limbs[1]]
    user_pk_b = json.loads((tmp_path / "usr/user.pk").read_text())["pk_b"]
    x = json.loads((tmp_path / "sub.json").read_text())["x"]
    assert tables[user_pk_b] == 0 and tables[x] == 0
    # per submission, the merged check's two elements and each tag's Y
    assert sum(tables.values()) == 2 * (2 + tags)


def test_pdp_classify_builds_no_g_b_table(tmp_path, counts, tables):
    """A genuine submission and three forged ones in one ``pdp classify``:
    each forged authentication fails, so the admin key is checked alone,
    three times, against g_b, whose table was built at import."""
    scenario(tmp_path, "production", [_policy("1", ["RecordedBy(Test,Nurse)"], 5)], GRAPH)
    keygen(tmp_path / "usr2", "user", "production", 5)
    tag(tmp_path, "production", GRAPH, 6, out="forged.json", user="usr2")
    counts.clear()
    tables.clear()
    result = run(*classify_args(tmp_path, "production", "sub.json", *["forged.json"] * 3), code=2)
    assert result.stderr.count("authentication failure") == 3
    # four authentications, three admin key checks, and two tag tests, the second a hit
    _expect(counts, 4 + 3 + 2, 4 + 3 + 2)
    assert tables[bn256.g2_to_bytes(curve.G2_GEN).hex()] == 0


def test_pdp_classify_builds_no_g_b_straus_table(tmp_path, straus_tables):
    """One submission: its authentication multiplies g_b and admin_pk_b by
    delta, and only admin_pk_b builds a ladder table."""
    _pdp_classify(tmp_path, [_policy("1", ["RecordedBy(Test,Nurse)"], 5)], straus_tables)
    admin_pk_b = json.loads((tmp_path / "pap/admin.pk").read_text())["pk_b"]
    assert straus_tables == Counter({admin_pk_b: 1})


def _user_tag(tmp_path, graph, *counters):
    """``prepare`` and a seeded ``user tag`` of graph; the counters cover
    only the ``user tag`` run.  Returns the number of tags and admin_pk_b."""
    prepare(tmp_path, "production")
    for counter in counters:
        counter.clear()
    tag(tmp_path, "production", graph, 3)
    tags = len(json.loads((tmp_path / "sub.json").read_text())["tags"])
    return tags, json.loads((tmp_path / "pap/admin.pk").read_text())["pk_b"]


@pytest.mark.parametrize("graph, fragments", [(GRAPH, 2), (GRAPH3, 3)])
def test_user_tag_builds_one_admin_key_table(tmp_path, counts, tables, graph, fragments):
    """The admin key check and every tag pair with ``admin_pk_b``, which
    builds its table once per ``user tag`` command, whatever the number of
    fragments."""
    tags, admin_pk_b = _user_tag(tmp_path, graph, counts, tables)
    assert tags == fragments
    # the admin key check: one Miller loop and FE; then one of each per tag
    _expect(counts, 1 + fragments, 1 + fragments)
    assert tables[admin_pk_b] == 1
    # admin_pk_b's only, shared by the admin key check and every tag
    assert sum(tables.values()) == 1


@pytest.mark.parametrize("graph, fragments", [(GRAPH, 2), (GRAPH3, 3)])
def test_user_tag_builds_straus_tables_for_x_and_each_fragment(tmp_path, straus_tables, graph, fragments):
    """X = admin_pk_b^beta builds one G2 ladder table and each tag's
    H1(fragment)^s one G1 table; each tag's Y = g_b^s builds none."""
    tags, admin_pk_b = _user_tag(tmp_path, graph, straus_tables)
    assert tags == fragments
    assert straus_tables == Counter({admin_pk_b: 1, "G1": fragments})
