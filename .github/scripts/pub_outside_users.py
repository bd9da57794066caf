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
* A free item (a fn, type, const, static or module declared at a file's
  top level) is used only by a file that names it through its crate: in a
  `use an5d_fault::…;` or an `an5d_fault::…` path (an alias of the crate
  too), or the same through the `an5d` facade where the facade re-exports
  it (names the item or its module, or the whole crate). A glob import
  from the crate counts every name the file uses. So a `parse` in code
  that calls `str::parse` is not `an5d_fault`'s. A method or an item
  nested deeper keeps the plain name match.
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
    """(name, is_item, is_free, signature) for each `pub` item and field outside `#[cfg(test)]` items."""
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
        free = bool(item) and not line[0].isspace()
        yield name, bool(item), free, " ".join(lines[i : end + 1])


USE = re.compile(r"\buse\s+([^;]+);")


def crate_refs(code):
    """Per path root, the names a file reaches through it: the words of its
    `use` trees and `root::…` paths (every word of the file for a glob),
    and what it reaches through the modules among them."""
    refs = {}
    aliases = {}
    for tree in USE.findall(code):
        words = WORD.findall(tree)
        if not words:
            continue
        root = words[0]
        alias = re.fullmatch(r"\s*(\w+)\s+as\s+(\w+)\s*", tree)
        if alias:
            aliases[alias.group(2)] = root
        refs.setdefault(root, set()).update(words[1:])
        if "*" in tree:
            refs[root].update(WORD.findall(code))
    for root, rest in re.findall(r"\b(\w+)((?:::\w+)+)", code):
        refs.setdefault(aliases.get(root, root), set()).update(rest.split("::"))
    # A module reached through a root passes on what is reached through it.
    for root in list(refs):
        seen, todo = set(), list(refs[root])
        while todo:
            word = todo.pop()
            if word not in seen:
                seen.add(word)
                todo.extend(refs.get(word, ()))
        refs[root] = seen
    return refs


def lib_name(crate):
    """The name other crates' code calls `crate` by."""
    manifest = (crate / "Cargo.toml").read_text()
    lib = re.search(r'\[lib\][^\[]*?name = "([\w-]+)"', manifest, re.S)
    return (lib or re.search(r'name = "([\w-]+)"', manifest)).group(1).replace("-", "_")


def modules(path, src):
    """The module names a file of `src` is reached through."""
    parts = path.relative_to(src).with_suffix("").parts
    return {part for part in parts if part not in ("lib", "mod")}


def scan(root):
    sources = [
        p
        for top in ("crates", "src", "tests", "examples", "benchmark/src")
        for p in sorted((root / top).rglob("*.rs"))
        if p.name != "build.rs" and "target" not in p.parts
    ]
    facade_dir = root / "crates" / "core"
    facade_code = "\n".join(code_lines(facade_dir / "src" / "lib.rs"))
    facade_words = set(WORD.findall(facade_code))
    facade = lib_name(facade_dir)
    findings = []
    for crate in sorted((root / "crates").iterdir()):
        src = crate / "src"
        if not src.is_dir():
            continue
        ident = lib_name(crate)
        inside = {p for p in sources if src in p.parents and "bin" not in p.relative_to(src).parts}
        # The words of each outside user, and the names it reaches through
        # the crate and through the facade.
        users = []
        for p in sources:
            code = "\n".join(code_lines(p, doc_tests_only=p in inside))
            refs = crate_refs(code)
            users.append((set(WORD.findall(code)), refs.get(ident, set()), refs.get(facade, set())))
        named_outside = set().union(*(words for words, _, _ in users))
        decls = [(d, p) for p in sorted(inside) for d in declarations(p)]
        items = {name for (name, is_item, _, _), _ in decls if is_item}
        free = items - {name for (name, is_item, is_free, _), _ in decls if is_item and not is_free}
        whole = re.search(rf"\bpub use {ident}(::\*| as )", facade_code) is not None

        def reexported(name):
            homes = set().union(*(modules(p, src) for (n, _, _, _), p in decls if n == name))
            return ident == facade or whole or name in facade_words or bool(homes & facade_words)

        def strictly_named(name):
            via_facade = reexported(name)
            return any(
                name in direct or (via_facade and name in through_facade)
                for _, direct, through_facade in users
            )

        used = {name for name in items & named_outside if name not in free or strictly_named(name)}
        carriers = [(name, set(WORD.findall(sig)) & items) for (name, _, _, sig), _ in decls]
        while True:
            known = used | (named_outside - free)
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
