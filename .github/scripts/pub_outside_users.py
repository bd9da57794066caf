#!/usr/bin/env python3
"""List every `pub` item in crates/*/src that nothing outside its crate uses.

Run from the repository root; prints `crate item` per finding and exits 1
if there is any. The scan works on names, not on resolved paths:

* The items are the `pub` fns, types, traits, consts, statics and modules
  outside `src/bin/` and outside any item marked `#[cfg(test)]`.
* An outside user is code that names the item and is compiled as another
  crate: the other crates' sources, every crate's `tests/` and `benches/`,
  the repository's `src/`, `tests/` and `examples/`, `benchmark/src`, this
  crate's own `src/bin/`, and every doc-test (the fenced code of a `///`
  or `//!` comment, this crate's included). Comments are not users.
* A type an outside user never names is still theirs if a `pub` signature
  they use hands it out: the declaration of a used `pub` fn, field, trait
  or type alias (up to its `{` or `;`, a field's up to its `,`) carries every
  item it names, until nothing new is carried.
"""

import pathlib
import re
import sys

ITEM = re.compile(
    r"^\s*pub (?:(?:const|unsafe|async|extern \"C\") )*(fn|struct|enum|trait|type|const|static|mod) (\w+)"
)
FIELD = re.compile(r"^\s*pub (\w+):")
FENCE = re.compile(r"^\s*//[/!] ?```")
COMMENT = re.compile(r"^\s*//")
WORD = re.compile(r"\w+")


def code_lines(path, doc_tests_only=False):
    """The lines of `path` a compiler sees as another crate's code."""
    fenced = False
    for line in path.read_text().splitlines():
        if FENCE.match(line):
            fenced = not fenced
        elif fenced or (not doc_tests_only and not COMMENT.match(line)):
            yield line


def declarations(path):
    """(name, is_item, signature) for each `pub` item and field outside `#[cfg(test)]` items."""
    lines = path.read_text().splitlines()
    test_item_end = None
    for i, line in enumerate(lines):
        if test_item_end is not None:
            # A one-line item ends at its `;`; rustfmt closes a braced one
            # at the indentation it opened at.
            one_line = lines[i - 1].strip() == "#[cfg(test)]" and line.rstrip().endswith(";")
            if one_line or line.rstrip() in (test_item_end, test_item_end + ";"):
                test_item_end = None
            continue
        if line.strip() == "#[cfg(test)]":
            test_item_end = line[: len(line) - len(line.lstrip())] + "}"
            continue
        item, field = ITEM.match(line), FIELD.match(line)
        if not (item or field):
            continue
        name = item.group(2) if item else field.group(1)
        ends = ("{", ";") if item else ("{", ";", ",")
        end = i
        while end < len(lines) - 1 and not lines[end].rstrip().endswith(ends):
            end += 1
        yield name, bool(item), " ".join(lines[i : end + 1])


def scan(root):
    sources = [
        p
        for top in ("crates", "src", "tests", "examples", "benchmark/src")
        for p in sorted((root / top).rglob("*.rs"))
        if p.name != "build.rs" and "target" not in p.parts
    ]
    findings = []
    for crate in sorted((root / "crates").iterdir()):
        src = crate / "src"
        if not src.is_dir():
            continue
        inside = {p for p in sources if src in p.parents and "bin" not in p.relative_to(src).parts}
        outside_text = "\n".join(
            line
            for p in sources
            for line in code_lines(p, doc_tests_only=p in inside)
        )
        named_outside = set(WORD.findall(outside_text))
        decls = [d for p in sorted(inside) for d in declarations(p)]
        items = {name for name, is_item, _ in decls if is_item}
        used = items & named_outside
        carriers = [(name, set(WORD.findall(sig)) & items) for name, _, sig in decls]
        while True:
            known = used | named_outside
            carried = {word for name, words in carriers if name in known for word in words}
            if carried <= used:
                break
            used |= carried
        findings += [f"{crate.relative_to(root)} {name}" for name in sorted(items - used)]
    return findings


if __name__ == "__main__":
    findings = scan(pathlib.Path("."))
    for finding in findings:
        print(finding)
    sys.exit(1 if findings else 0)
