"""The exact-exponent oracle of acceptance criterion 4, a test helper.

On the mock suite every element exposes its exponent, so both scheme
equations and bilinearity can be checked by direct modular arithmetic
against what the production code decides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from pbcap.game import _random_fragment
from pbcap.pairing import MockSuite
from pbcap.scheme import (
    keygen_admin,
    keygen_user,
    make_tag,
    make_trapdoor,
    make_x,
    matches_trapdoor,
)


@dataclass
class OracleReport:
    draws: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def oracle_check_identities(suite: MockSuite, draws: int, rng: random.Random) -> OracleReport:
    """Exact exponent-arithmetic check of both scheme equations.

    Mock suite only: for each draw of (alpha, beta, r, fragment pair) it
    verifies, by direct modular arithmetic on the exposed exponents,
    that equation (1) acceptance is the identity alpha*beta ==
    alpha*beta, that equation (2) acceptance is exactly "the fragments
    agree", and that the pairing is bilinear.
    """
    if not isinstance(suite, MockSuite):
        raise TypeError("the identity oracle requires the mock suite")
    q = suite.order
    report = OracleReport(draws=draws)
    for i in range(draws):
        alpha = suite.random_scalar(rng)
        beta = suite.random_scalar(rng)
        admin_sk, admin_pub = keygen_admin(suite, _FixedScalarRng(alpha))
        user_sk, user_pk = keygen_user(suite, _FixedScalarRng(beta))
        frag = _random_fragment(rng, "Oracle")
        other = _random_fragment(rng, "Other")

        r_value = rng.randrange(1, q)
        tag = make_tag(suite, admin_pub, user_sk, frag, _FixedScalarRng(r_value))

        # equation (1): dlog(X) must equal alpha*beta
        if suite.discrete_log(make_x(admin_pub, user_sk)) != alpha * beta % q:
            report.failures.append(f"draw {i}: X exponent != alpha*beta")

        d = suite.discrete_log(suite.hash_to_group_a(frag))
        d_other = suite.discrete_log(suite.hash_to_group_a(other))

        # equation (2) acceptance vs exponent identity, matching fragment
        trap = make_trapdoor(suite, admin_sk, frag)
        lhs = suite.discrete_log(trap.token) * suite.discrete_log(tag.y) % q
        rhs = alpha * beta % q * r_value % q * d % q
        if (lhs == rhs) != matches_trapdoor(suite, trap, tag):
            report.failures.append(f"draw {i}: eq(2) acceptance != exponent identity")
        if lhs != rhs:
            report.failures.append(f"draw {i}: matching-fragment exponents differ")

        # equation (2) must reject a different fragment unless H1 collides
        trap_other = make_trapdoor(suite, admin_sk, other)
        if matches_trapdoor(suite, trap_other, tag) != (d == d_other):
            report.failures.append(f"draw {i}: eq(2) accepted a mismatched fragment")

        # bilinearity on random exponents
        a_exp = rng.randrange(1, q)
        b_exp = rng.randrange(1, q)
        lhs_e = suite.pair(suite.gen_a ** a_exp, suite.gen_b ** b_exp)
        rhs_e = suite.pair(suite.gen_a, suite.gen_b) ** (a_exp * b_exp % q)
        if lhs_e != rhs_e:
            report.failures.append(f"draw {i}: bilinearity violated")
    return report


class _FixedScalarRng:
    """Deterministic stand-in rng returning one preset scalar value."""

    def __init__(self, value: int):
        self._value = value

    def randrange(self, lo: int, hi: int) -> int:
        assert lo <= self._value < hi
        return self._value
