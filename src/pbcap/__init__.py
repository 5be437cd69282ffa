"""pbcap: classify encrypted files by searching their encrypted provenance.

Users tag files with pairing-based classification tags, an administrator
compiles keyword policies into trapdoors, and a decision point tests
tags against trapdoors -- learning only match/no-match plus submitter
authenticity -- then routes files to storage units by policy priority.
"""

from .errors import DecodeError, GroupMismatchError, PbcapError, ValidationError
from .pairing import Bn256Suite, Group, GroupElement, MockSuite, PairingSuite, Scalar, get_suite
from .policy import CompiledPolicy, Decision, Policy, classify, compile_policies
from .provenance import (
    ProvenanceFragment,
    ProvenanceGraph,
    ProvenanceNode,
    extract_fragments,
    parse_fragment,
    parse_graph,
)
from .scheme import (
    AdminKeyPair,
    AdminPublicKey,
    ClassificationTag,
    TrapdoorEntry,
    UserKeyPair,
    UserPublicKey,
    check_admin_key,
    keygen_admin,
    keygen_user,
    make_tag,
    make_trapdoor,
    make_x,
    matches_trapdoor,
    verify_authenticity,
)

__version__ = "0.1.0"
