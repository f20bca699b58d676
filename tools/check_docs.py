#!/usr/bin/env python
"""Documentation checker: run the docs' code, verify links, config tables and signatures.

Four guarantees, enforced in CI (the ``docs`` job) and runnable locally:

1. **Snippets execute.**  Every fenced ```` ```python ```` block in the
   checked documents is executed.  Blocks within one document share a single
   namespace, in order, so later examples can use objects defined by earlier
   ones (exactly how a reader would type them into one interpreter).  Blocks
   run in a temporary working directory with ``src/`` importable, so examples
   that write files (session stores, results) do not litter the repo.
   A block can be opted out by placing ``<!-- docs-check: skip -->`` on the
   line directly above the opening fence (for illustrative pseudo-code such
   as constructor signatures).

2. **Intra-repo links resolve.**  Every relative markdown link target
   (``[text](path)``, no scheme, not a bare ``#anchor``) must exist on disk,
   resolved against the document's directory (fragments are stripped).

3. **The ``EngineConfig`` table names real fields.**  Every backticked name
   in the first column of the ``EngineConfig`` knob table in ``docs/api.md``
   must be a field of :class:`repro.service.engine.EngineConfig` (a row
   like ``a`` / ``b`` names two fields), so a deleted option cannot linger
   there.

4. **Skipped signature blocks name real parameters.**  Every python block
   opted out of execution must still parse, and each keyword argument of
   a call to a name that ``repro`` exports must be a parameter of that
   name's :func:`inspect.signature`, so a deleted parameter cannot linger
   in a documented signature either.

Usage::

    python tools/check_docs.py            # check the default document set
    python tools/check_docs.py README.md  # check specific files
"""

from __future__ import annotations

import ast
import dataclasses
import glob
import inspect
import os
import re
import sys
import tempfile
import traceback

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Documents checked by default: the README and the documentation layer
#: (snippets + links), plus the architecture/roadmap notes (links only —
#: their fenced blocks are ASCII diagrams, not python).
DEFAULT_DOCUMENTS = ["README.md", "docs/*.md", "DESIGN.md", "ROADMAP.md"]

SKIP_MARKER = "<!-- docs-check: skip -->"

FENCE_RE = re.compile(r"^```(\w*)\s*$")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK_RE = re.compile(r"`([^`]+)`")

#: The document holding the ``EngineConfig`` knob table, and the line the
#: table follows.
ENGINE_TABLE_DOCUMENT = os.path.join("docs", "api.md")
ENGINE_TABLE_ANCHOR = "Key `EngineConfig` knobs"


def extract_python_blocks(text, skipped=False):
    """``(start_line, source)`` of each executable python block.

    With ``skipped=True``, the blocks opted out by the skip marker instead.
    """
    lines = text.splitlines()
    blocks = []
    in_block = False
    language = ""
    start = 0
    buffer = []
    skip_next = False
    for number, line in enumerate(lines, start=1):
        fence = FENCE_RE.match(line.strip())
        if fence and not in_block:
            in_block = True
            language = fence.group(1).lower()
            start = number + 1
            buffer = []
            block_skipped = skip_next
            skip_next = False
        elif line.strip() == "```" and in_block:
            in_block = False
            if language == "python" and block_skipped == skipped:
                blocks.append((start, "\n".join(buffer)))
        elif in_block:
            buffer.append(line)
        else:
            if line.strip() == SKIP_MARKER:
                skip_next = True
            elif line.strip():
                skip_next = False
    return blocks


def check_snippets(path, text, errors):
    blocks = extract_python_blocks(text)
    if not blocks:
        return 0
    namespace = {"__name__": f"docs_check_{os.path.basename(path)}"}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="docs-check-") as workdir:
        os.chdir(workdir)
        try:
            for start_line, source in blocks:
                try:
                    code = compile(source, f"{path}:{start_line}", "exec")
                    exec(code, namespace)  # noqa: S102 - the point of the check
                except Exception:
                    errors.append(
                        f"{path}:{start_line}: snippet failed\n"
                        + "".join(
                            "    " + ln + "\n"
                            for ln in traceback.format_exc().splitlines()[-6:]
                        )
                    )
                    return len(blocks)  # later blocks depend on this namespace
        finally:
            os.chdir(cwd)
    return len(blocks)


def check_links(path, text, errors):
    base = os.path.dirname(os.path.abspath(path))
    checked = 0
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
            continue
        if target.startswith("#"):
            continue
        checked += 1
        resolved = os.path.normpath(os.path.join(base, target.split("#", 1)[0]))
        if not os.path.exists(resolved):
            errors.append(f"{path}: broken link -> {target}")
    return checked


def engine_table_names(text):
    """Backticked names in the first column of the ``EngineConfig`` table.

    Returns ``None`` when the document has no such table.
    """
    lines = text.splitlines()
    anchors = [i for i, line in enumerate(lines) if ENGINE_TABLE_ANCHOR in line]
    if not anchors:
        return None
    names = []
    in_table = False
    for line in lines[anchors[0] + 1:]:
        if line.startswith("|"):
            in_table = True
            names.extend(BACKTICK_RE.findall(line.split("|")[1]))
        elif in_table:
            break
    return names if in_table else None


def check_engine_table(path, text, errors):
    from repro.service.engine import EngineConfig

    names = engine_table_names(text)
    if names is None:
        errors.append(f"{path}: no table after {ENGINE_TABLE_ANCHOR!r}")
        return 0
    fields = {field.name for field in dataclasses.fields(EngineConfig)}
    for name in names:
        if name not in fields:
            errors.append(
                f"{path}: EngineConfig table names {name!r}, "
                "which is not an EngineConfig field"
            )
    return len(names)


def check_signatures(path, text, errors):
    """Keyword arguments in skipped blocks must be parameters of ``repro`` names."""
    import repro

    exported = set(repro.__all__)
    checked = 0
    for start_line, source in extract_python_blocks(text, skipped=True):
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            errors.append(f"{path}:{start_line}: skipped block does not parse: {exc}")
            continue
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in exported
            ):
                continue
            parameters = inspect.signature(getattr(repro, node.func.id)).parameters
            for keyword in node.keywords:
                checked += 1
                if keyword.arg not in parameters:
                    errors.append(
                        f"{path}:{start_line + keyword.lineno - 1}: "
                        f"{node.func.id}() has no parameter {keyword.arg!r}"
                    )
    return checked


def main(argv):
    os.chdir(REPO_ROOT)
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    patterns = argv or DEFAULT_DOCUMENTS
    documents = []
    for pattern in patterns:
        matched = sorted(glob.glob(pattern))
        if not matched:
            print(f"error: no documents match {pattern!r}", file=sys.stderr)
            return 2
        documents.extend(matched)

    errors = []
    for path in documents:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        snippets = check_snippets(path, text, errors)
        links = check_links(path, text, errors)
        keywords = check_signatures(path, text, errors)
        summary = (
            f"{snippets} snippet(s) executed, {links} link(s) checked, "
            f"{keywords} signature keyword(s) checked"
        )
        if os.path.normpath(path) == ENGINE_TABLE_DOCUMENT:
            fields = check_engine_table(path, text, errors)
            summary += f", {fields} EngineConfig field(s) checked"
        print(f"{path}: {summary}")

    if errors:
        print("\n" + "\n".join(errors), file=sys.stderr)
        print(f"\ndocs check FAILED ({len(errors)} problem(s))", file=sys.stderr)
        return 1
    print("docs check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
