from .suite import (
    H1_DST,
    H2_BYTES,
    H2_DST,
    Bn256Suite,
    Group,
    GroupElement,
    MockSuite,
    PairingSuite,
    get_suite,
)
