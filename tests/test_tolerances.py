"""Every field of the shared tolerance record is read by name.

A tolerance that no library code or test reads guards nothing, and its
value can drift from the literal a test pins instead; this fails on both.
"""

import re
from pathlib import Path

from qotto.tolerances import Tolerances

ROOT = Path(__file__).resolve().parents[1]


def test_every_tolerance_is_read():
    text = "\n".join(path.read_text(encoding="utf-8")
                     for folder in ("src", "tests")
                     for path in sorted((ROOT / folder).rglob("*.py")))
    unread = [name for name in Tolerances._fields
              if not re.search(rf"\bTOL\.{name}\b", text)]
    assert not unread, f"tolerances read by no code or test: {unread}"
