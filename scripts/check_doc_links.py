#!/usr/bin/env python3
"""Doc link checker: every cross-reference must resolve.

Three classes of reference are enforced, because all rot silently:

1. Markdown links with relative targets in any tracked *.md file —
   ``[text](docs/SOLVERS.md)``, ``[text](../DESIGN.md#anchor)``. The
   target (anchor stripped) must exist relative to the file.
2. Doc-path tokens anywhere in the tree (markdown, sources, tests,
   benches, CI): any occurrence of ``docs/<Name>.md`` must name a file
   that exists. Source comments lean on these as contracts
   (e.g. mincost.cpp pointing at docs/SOLVERS.md), so a renamed or
   missing doc is a build-docs bug, not cosmetics.
3. The fault-site catalog: every site row of the docs/FAULTS.md table
   must name a ``fault::at("site", ...)`` / ``fault::next("site")``
   literal in src/, and every such literal must have a row. A deleted
   site whose row stays behind (or a new site nobody documented) fails.

Exits non-zero listing every broken reference.
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
DOC_TOKEN = re.compile(r"\bdocs/[A-Za-z0-9_.-]+\.md\b")
# A site evaluation in C++; the call may wrap before the literal.
FAULT_CALL = re.compile(r'\bfault::(?:at|next)\(\s*"([^"]+)"')
# C++ string/char literals (kept) or comments (dropped), so that example
# calls in comments do not count as sites.
CPP_LITERAL_OR_COMMENT = re.compile(
    r'("(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\')|//[^\n]*|/\*.*?\*/',
    re.DOTALL)
# A row of the docs/FAULTS.md site table: | `site` | ...
CATALOG_ROW = re.compile(r"^\|\s*`([a-z0-9_.]+)`\s*\|", re.MULTILINE)

def tracked_files(root: pathlib.Path) -> list[pathlib.Path]:
    out = subprocess.run(
        ["git", "ls-files"], cwd=root, check=True, capture_output=True,
        text=True)
    return [root / line for line in out.stdout.splitlines() if line]

def fault_site_errors(root: pathlib.Path,
                      files: list[pathlib.Path]) -> list[str]:
    """Both directions of the src/ <-> docs/FAULTS.md site catalog."""
    catalog = root / "docs" / "FAULTS.md"
    documented = set(CATALOG_ROW.findall(catalog.read_text(encoding="utf-8")))
    in_code: dict[str, str] = {}
    for path in files:
        rel = path.relative_to(root)
        if rel.parts[0] != "src" or path.suffix not in (".cpp", ".hpp"):
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError):
            continue
        code = CPP_LITERAL_OR_COMMENT.sub(lambda m: m.group(1) or "", text)
        for site in FAULT_CALL.findall(code):
            in_code.setdefault(site, str(rel))
    errors = [f"docs/FAULTS.md: catalog row `{site}` has no fault::at/next "
              f"call in src/" for site in documented - in_code.keys()]
    errors += [f"{in_code[site]}: fault site `{site}` has no row in the "
               f"docs/FAULTS.md catalog" for site in in_code.keys() - documented]
    return errors

def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    files = tracked_files(root)
    errors: list[str] = []

    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError):
            continue
        rel = path.relative_to(root)

        if path.suffix == ".md":
            for match in MD_LINK.finditer(text):
                target = match.group(1).split("#", 1)[0]
                if (not target or "://" in target
                        or target.startswith("mailto:")):
                    continue
                resolved = (path.parent / target).resolve()
                if not resolved.exists():
                    errors.append(f"{rel}: broken markdown link -> {target}")

        for match in DOC_TOKEN.finditer(text):
            token = match.group(0)
            if not (root / token).exists():
                errors.append(f"{rel}: dangling doc reference -> {token}")

    errors += fault_site_errors(root, files)

    if errors:
        for error in sorted(set(errors)):
            print(error, file=sys.stderr)
        print(f"{len(set(errors))} broken doc reference(s)", file=sys.stderr)
        return 1
    print(f"doc links OK across {len(files)} tracked files")
    return 0

if __name__ == "__main__":
    sys.exit(main())
