"""pbcap: classify encrypted files by searching their encrypted provenance.

Users tag files with pairing-based classification tags, an administrator
compiles keyword policies into trapdoors, and a decision point tests
tags against trapdoors -- learning only match/no-match plus submitter
authenticity -- then routes files to storage units by policy priority.
"""

__version__ = "0.1.0"
