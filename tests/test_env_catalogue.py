"""The environment-variable catalogue: every ``REPRO_*`` variable the
library reads is documented in README, and README documents none that
the library no longer reads — so an option cannot be added (or retired)
in code alone.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV_NAME = re.compile(r"\bREPRO_[A-Z_]+\b")


def test_env_vars_in_src_equal_env_vars_in_readme():
    in_src: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        in_src.update(ENV_NAME.findall(path.read_text(encoding="utf-8")))
    in_readme = set(ENV_NAME.findall(
        (ROOT / "README.md").read_text(encoding="utf-8")))
    assert in_src == in_readme, (
        f"undocumented: {sorted(in_src - in_readme)}; "
        f"documented but unread: {sorted(in_readme - in_src)}")
    assert in_src  # non-vacuous
