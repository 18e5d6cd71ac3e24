#!/usr/bin/env python
"""Build and verify the documentation tree — no external doc toolchain.

The container has no mkdocs/sphinx, so this is the whole docs build:
a small markdown → HTML renderer plus the four checks that keep the
docs honest:

1. **Link check** — every relative link and ``#anchor`` in ``docs/``
   (and the ``DESIGN.md`` redirect stub) resolves to a real file and a
   real heading/anchor.  External ``http(s)`` links are skipped (the
   build must pass offline).
2. **CLI flag coverage** — every option of the ``latest-bench`` and
   ``repro`` argument parsers (subparsers included) appears verbatim
   in ``docs/cli.md``.
3. **Events contract** — the "Ordering & determinism contract" bullets
   in ``docs/events.md`` are word-for-word identical to the
   :mod:`repro.core.stream` module docstring.
4. **Module references** — every inline-code ``*.py`` path resolves to a
   file under ``src/repro/``, ``src/`` or the repo root, and every dotted
   ``repro.*`` name resolves to an importable module (or a name one
   defines).  ``docs/changelog.md`` is exempt: it records history,
   including modules that have since been deleted.

Usage::

    PYTHONPATH=src python tools/docbuild.py [--out docs_build] [--check]

``--check`` verifies without writing HTML; the default builds and
verifies.  Exit code 0 = clean, 1 = any failure (all failures are
listed, not just the first).
"""

from __future__ import annotations

import argparse
import html
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

__all__ = [
    "check_cli_flags",
    "check_events_contract",
    "check_links",
    "check_module_refs",
    "collect_anchors",
    "render_markdown",
    "main",
]


# ----------------------------------------------------------------------
# markdown rendering
# ----------------------------------------------------------------------
def _slug(text: str) -> str:
    """GitHub-style heading anchor: lowercase, alnum and hyphens only."""
    text = re.sub(r"[`*_]", "", text.strip().lower())
    text = re.sub(r"[^a-z0-9 \-]", "", text)
    return re.sub(r"\s+", "-", text.strip())


def _inline(text: str) -> str:
    """Inline markdown → HTML (code, bold, emphasis, links)."""
    out = []
    # split out code spans first so markup inside them stays literal
    for i, part in enumerate(re.split(r"(``[^`]+``|`[^`]+`)", text)):
        if i % 2:
            code = part[2:-2] if part.startswith("``") else part[1:-1]
            out.append(f"<code>{html.escape(code)}</code>")
            continue
        part = html.escape(part, quote=False)
        part = re.sub(r"\*\*([^*]+)\*\*", r"<strong>\1</strong>", part)
        part = re.sub(r"(?<!\*)\*([^*]+)\*(?!\*)", r"<em>\1</em>", part)
        part = re.sub(
            r"\[([^\]]+)\]\(([^)\s]+)\)",
            lambda m: '<a href="{}">{}</a>'.format(
                re.sub(r"\.md(#|$)", r".html\1", m.group(2)), m.group(1)
            ),
            part,
        )
        out.append(part)
    return "".join(out)


def render_markdown(text: str, title: str = "") -> str:
    """Render one markdown document to a standalone HTML page."""
    body: list[str] = []
    lines = text.splitlines()
    i = 0
    in_list: "str | None" = None

    def close_list():
        nonlocal in_list
        if in_list:
            body.append(f"</{in_list}>")
            in_list = None

    while i < len(lines):
        line = lines[i]
        if line.startswith("```"):
            close_list()
            block = []
            i += 1
            while i < len(lines) and not lines[i].startswith("```"):
                block.append(lines[i])
                i += 1
            body.append(
                "<pre><code>%s</code></pre>"
                % html.escape("\n".join(block))
            )
        elif re.match(r"#{1,6} ", line):
            close_list()
            level = len(line) - len(line.lstrip("#"))
            heading = line[level + 1 :]
            body.append(
                '<h{0} id="{1}">{2}</h{0}>'.format(
                    level, _slug(heading), _inline(heading)
                )
            )
        elif re.match(r"\s*<a id=", line):
            close_list()
            body.append(line.strip())
        elif line.startswith("|"):
            close_list()
            rows = []
            while i < len(lines) and lines[i].startswith("|"):
                cells = [c.strip() for c in lines[i].strip("|").split("|")]
                if not re.fullmatch(r"[\s:|\-]+", lines[i]):
                    rows.append(cells)
                i += 1
            i -= 1
            table = ["<table>"]
            for r, cells in enumerate(rows):
                tag = "th" if r == 0 else "td"
                table.append(
                    "<tr>"
                    + "".join(
                        f"<{tag}>{_inline(c)}</{tag}>" for c in cells
                    )
                    + "</tr>"
                )
            table.append("</table>")
            body.append("".join(table))
        elif re.match(r"[-*] ", line):
            if in_list != "ul":
                close_list()
                body.append("<ul>")
                in_list = "ul"
            item = [line[2:]]
            while i + 1 < len(lines) and re.match(r"\s+\S", lines[i + 1]):
                i += 1
                item.append(lines[i].strip())
            body.append(f"<li>{_inline(' '.join(item))}</li>")
        elif re.match(r"\d+\. ", line):
            if in_list != "ol":
                close_list()
                body.append("<ol>")
                in_list = "ol"
            item = [line.split(". ", 1)[1]]
            while i + 1 < len(lines) and re.match(r"\s+\S", lines[i + 1]):
                i += 1
                item.append(lines[i].strip())
            body.append(f"<li>{_inline(' '.join(item))}</li>")
        elif re.fullmatch(r"-{3,}", line):
            close_list()
            body.append("<hr/>")
        elif line.strip():
            close_list()
            para = [line]
            while i + 1 < len(lines) and lines[i + 1].strip() and not re.match(
                r"(#{1,6} |```|\||[-*] |\d+\. |\s*<a id=)", lines[i + 1]
            ):
                i += 1
                para.append(lines[i])
            body.append(f"<p>{_inline(' '.join(para))}</p>")
        else:
            close_list()
        i += 1
    close_list()
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        "<style>body{font-family:sans-serif;max-width:52rem;margin:2rem "
        "auto;padding:0 1rem;line-height:1.5}code,pre{background:#f4f4f4}"
        "pre{padding:.75rem;overflow-x:auto}table{border-collapse:collapse}"
        "th,td{border:1px solid #999;padding:.3rem .6rem;text-align:left}"
        "</style></head><body>" + "\n".join(body) + "</body></html>"
    )


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def collect_anchors(text: str) -> set[str]:
    """Every anchor a page exposes: heading slugs + explicit ids."""
    anchors = set()
    in_code = False
    for line in text.splitlines():
        if line.startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        m = re.match(r"(#{1,6}) (.*)", line)
        if m:
            anchors.add(_slug(m.group(2)))
        for explicit in re.findall(r'<a id="([^"]+)"', line):
            anchors.add(explicit)
    return anchors


def _links(text: str):
    """(target, anchor) of every markdown link, code blocks excluded."""
    in_code = False
    for line in text.splitlines():
        if line.startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        for part in re.split(r"(``[^`]+``|`[^`]+`)", line):
            if part.startswith("`"):
                continue
            for m in re.finditer(r"\[[^\]]+\]\(([^)\s]+)\)", part):
                target, _, anchor = m.group(1).partition("#")
                yield target, anchor


def check_links(pages: "dict[Path, str]") -> list[str]:
    """Broken relative links/anchors across a set of markdown pages."""
    errors = []
    anchors = {path: collect_anchors(text) for path, text in pages.items()}
    for path, text in pages.items():
        for target, anchor in _links(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            resolved = (
                path if not target else (path.parent / target).resolve()
            )
            if not resolved.exists():
                errors.append(f"{path}: broken link -> {target}")
                continue
            if anchor:
                known = anchors.get(resolved)
                if known is None and resolved.suffix == ".md":
                    known = collect_anchors(resolved.read_text())
                    anchors[resolved] = known
                if known is not None and anchor not in known:
                    errors.append(
                        f"{path}: broken anchor -> {target}#{anchor}"
                    )
    return errors


def _parser_flags(parser) -> set[str]:
    """All option strings and positional names, subparsers included."""
    import argparse as ap

    flags: set[str] = set()
    for action in parser._actions:
        if isinstance(action, ap._HelpAction):
            continue
        if isinstance(action, ap._SubParsersAction):
            for name, sub in action.choices.items():
                flags.add(name)
                flags |= _parser_flags(sub)
            continue
        if action.option_strings:
            flags |= {
                s for s in action.option_strings if s.startswith("--")
            }
        else:
            flags.add(action.dest)
    return flags


#: the flag a cli.md table row documents (its first cell)
_TABLE_FLAG = re.compile(r"^\| `(--[\w-]+)` \|", re.MULTILINE)


def check_cli_flags(cli_md: str) -> list[str]:
    """cli.md and the two console-script parsers must name the same flags.

    Every parser flag must appear in the page, and every flag a table row
    documents must be defined by one of the parsers.
    """
    from repro.cli import build_parser as bench_parser
    from repro.service.cli import build_parser as service_parser

    errors = []
    defined: set[str] = set()
    for label, parser in (
        ("latest-bench", bench_parser()),
        ("repro", service_parser()),
    ):
        flags = _parser_flags(parser)
        defined |= flags
        for flag in sorted(flags):
            if flag not in cli_md:
                errors.append(
                    f"docs/cli.md: {label} flag `{flag}` is undocumented"
                )
    for flag in sorted(set(_TABLE_FLAG.findall(cli_md)) - defined):
        errors.append(f"docs/cli.md: flag `{flag}` is defined by no parser")
    return errors


def _contract_bullets(text: str) -> str:
    """The contract's bullet block, whitespace-collapsed for comparison."""
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.strip().startswith("* ``CampaignStarted``"):
            start = i
            break
    if start is None:
        return ""
    block: list[str] = []
    for line in lines[start:]:
        if line.startswith(("* ", "  ")) and line.strip():
            block.append(line.strip())
        elif not line.strip() and block:
            break
    return " ".join(" ".join(block).split())


def check_events_contract(events_md: str) -> list[str]:
    """docs/events.md must carry the stream docstring contract verbatim."""
    import repro.core.stream as stream

    want = _contract_bullets(stream.__doc__)
    got = _contract_bullets(events_md)
    if not want:
        return ["repro/core/stream.py: contract bullets not found"]
    if got != want:
        return [
            "docs/events.md: ordering contract drifted from the "
            "repro.core.stream docstring (update the docs to match)"
        ]
    return []


#: pages whose module references are history, not claims about the tree
_HISTORY_PAGES = ("changelog.md",)
#: roots a backticked ``*.py`` path may be relative to
_PY_ROOTS = (REPO / "src" / "repro", REPO / "src", REPO)


def _code_spans(text: str):
    """Inline code spans of a markdown page, fenced blocks excluded."""
    in_code = False
    for line in text.splitlines():
        if line.startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        for part in re.split(r"(``[^`]+``|`[^`]+`)", line):
            if part.startswith("`"):
                yield part.strip("`")


def _dotted_name_error(name: str) -> "str | None":
    """Why ``repro.a.b...`` does not resolve, or ``None`` when it does.

    Walks the dotted parts importing submodules; the first part that is
    neither a submodule nor a name defined by the module before it is the
    error.  Parts after a non-module name (class attributes, fields) are
    not checked.
    """
    import importlib

    obj = importlib.import_module("repro")
    for part in name.split(".")[1:]:
        try:
            obj = importlib.import_module(f"{obj.__name__}.{part}")
            continue
        except ModuleNotFoundError:
            pass
        if not hasattr(obj, part):
            return f"`{name}`: {obj.__name__} has no module or name {part!r}"
        return None
    return None


def check_module_refs(pages: "dict[Path, str]") -> list[str]:
    """Docs naming ``*.py`` files or ``repro.*`` modules that do not exist."""
    errors = []
    for path, text in pages.items():
        if path.name in _HISTORY_PAGES:
            continue
        for span in _code_spans(text):
            for ref in re.findall(r"[\w./-]*\w\.py\b", span):
                if not any((root / ref).is_file() for root in _PY_ROOTS):
                    errors.append(f"{path}: names missing file `{ref}`")
        names = set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text))
        for name in sorted(names):
            problem = _dotted_name_error(name)
            if problem is not None:
                errors.append(f"{path}: names missing module {problem}")
    return errors


# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    """Build the docs tree and run every check; 0 only when all pass."""
    args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args.add_argument(
        "--out",
        default=str(REPO / "docs_build"),
        help="HTML output directory (default docs_build/)",
    )
    args.add_argument(
        "--check",
        action="store_true",
        help="verify only; do not write HTML",
    )
    options = args.parse_args(argv)

    sources = sorted(DOCS.rglob("*.md")) + [REPO / "DESIGN.md"]
    pages = {path: path.read_text() for path in sources}

    errors = check_links(pages)
    errors += check_cli_flags(pages[DOCS / "cli.md"])
    errors += check_events_contract(pages[DOCS / "events.md"])
    errors += check_module_refs(pages)

    if not options.check:
        out = Path(options.out)
        for path, text in pages.items():
            if path.name == "DESIGN.md":
                continue  # redirect stub stays markdown-only
            rel = path.relative_to(DOCS).with_suffix(".html")
            destination = out / rel
            destination.parent.mkdir(parents=True, exist_ok=True)
            title = next(
                (
                    l[2:]
                    for l in text.splitlines()
                    if l.startswith("# ")
                ),
                path.stem,
            )
            destination.write_text(render_markdown(text, title))
        print(f"built {len(pages) - 1} pages -> {out}")

    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} docs error(s)", file=sys.stderr)
        return 1
    print(
        "docs checks passed (links, cli flags, events contract, module refs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
