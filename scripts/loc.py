"""Count the lines of each src/ghostsim module that are neither blank nor a '#' comment.

Docstrings count; a line whose first non-space character is '#' does not.
This is the line count ROADMAP.md and CHANGES.md track.

    python3 scripts/loc.py [PACKAGE_DIR]
"""
from __future__ import annotations

import sys
from pathlib import Path


def code_lines(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip() and not line.lstrip().startswith("#"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "ghostsim"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
