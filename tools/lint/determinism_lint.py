#!/usr/bin/env python3
"""Determinism lint: project-specific static analysis for the HLSRG engine.

Enforces the invariants the multi-shard engine depends on (DESIGN.md §12):

  unordered-iteration    no range-for / iterator loop over std::unordered_map
                         or std::unordered_set in digest-affecting code
                         (src/sim, src/core, src/net, src/rlsmp, src/flood,
                         src/service, src/harness) unless the loop goes
                         through det::sorted_view / det::sorted_keys
                         (util/ordered.h) or carries an ALLOW annotation.
  pointer-keyed-container no pointer- or smart-pointer-keyed associative
                         containers anywhere in src/ — addresses vary run to
                         run, so any ordering or hashing over them is
                         nondeterministic by construction.
  rng-discipline         all randomness flows from the seeded root through
                         Rng::split with a named RngStreamId. std::random_device,
                         std::mt19937 (and friends), rand()/srand(), direct
                         Rng(seed) construction outside src/sim/rng.h, and
                         split(<bare integer>) are banned.
  wall-clock             no wall-clock reads (std::chrono system/steady/
                         high_resolution clocks, time(), gettimeofday,
                         clock()) outside src/obs/profiler.cpp — the single
                         sanctioned wall-clock site. Timing consumers call
                         monotonic_now_ns()/monotonic_now_sec() from
                         obs/profiler.h; sim code tells time with
                         Simulator::now() only.
  send-kind              every packet entering RadioMedium / WiredNetwork
                         carries an explicit PacketKind: make_packet calls
                         must pass PacketKind::k* (or forward a `kind`
                         value), broadcast_each / unicast_frame must receive
                         a kind argument, and bare `Packet p;` declarations
                         must assign `.kind` immediately or be annotated.

Suppressions: `// HLSRG_LINT_ALLOW(<rule>): <reason>` on the finding line or
in the contiguous comment block immediately above it. The reason is
mandatory; an ALLOW with an unknown rule id or an empty reason is itself a
finding (bad-allow), so every suppression in the tree stays auditable.

The engine is a zero-dependency tokenizer over comment/string-blanked
source: deterministic, fixture-tested in ctest, and the gate CI runs.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

RULES = {
    "unordered-iteration":
        "iteration over an unordered container in digest-affecting code",
    "pointer-keyed-container":
        "pointer-keyed associative container in sim state",
    "rng-discipline":
        "RNG construction outside Rng::split with a named RngStreamId",
    "wall-clock":
        "wall-clock read outside harness timing code",
    "send-kind":
        "packet send site without an explicit PacketKind",
    "bad-allow":
        "malformed HLSRG_LINT_ALLOW annotation",
}

# Directories (relative to the repo root) whose iteration order feeds the
# determinism digest. unordered-iteration fires only here; the other rules
# cover all of src/.
DIGEST_SCOPE = (
    "src/sim", "src/core", "src/net", "src/rlsmp", "src/flood",
    "src/service", "src/harness",
)

# rng-discipline: files allowed to construct Rng directly (the generator's
# own definition; everything else splits from a Simulator stream).
RNG_CONSTRUCTION_ALLOWLIST = ("src/sim/rng.h",)

# wall-clock: the obs profiler is the single sanctioned wall-clock site.
# Everything else (harness runner, benches, scenario_cli) takes timestamps
# through obs/profiler.h monotonic_now_ns()/monotonic_now_sec(), so raw
# clock reads stay confined to one translation unit.
WALL_CLOCK_ALLOWLIST = ("src/obs/profiler.cpp",)

ALLOW_RE = re.compile(r"HLSRG_LINT_ALLOW\(([^)]*)\)\s*(:?)\s*(.*)")

UNORDERED_TYPES = ("unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset")
ASSOC_TYPES = UNORDERED_TYPES + ("map", "set", "multimap", "multiset")
BANNED_ENGINES = ("random_device", "mt19937", "mt19937_64", "minstd_rand",
                  "minstd_rand0", "default_random_engine", "ranlux24",
                  "ranlux48", "knuth_b")
WALL_CLOCKS = ("system_clock", "steady_clock", "high_resolution_clock")


@dataclasses.dataclass
class Finding:
    rule: str
    path: str
    line: int  # 1-based
    message: str
    suppressed: bool = False
    reason: str = ""

    def key(self):
        return (self.path, self.line, self.rule)


@dataclasses.dataclass
class SourceFile:
    path: str          # repo-relative, forward slashes
    raw: str           # original text
    code: str          # comments and string/char literals blanked to spaces
    comments: dict     # line (1-based) -> comment text on that line
    comment_only: set  # lines that hold nothing but comments/whitespace


def blank_comments_and_strings(text: str):
    """Returns (code, comments, comment_only) with literals space-blanked.

    Line structure is preserved exactly so offsets map 1:1; comment text is
    recorded per line for ALLOW parsing.
    """
    out = list(text)
    comments = {}
    comment_only = set()
    i, n = 0, len(text)
    line = 1

    def record_comment(s, e):
        seg_line = text.count("\n", 0, s) + 1
        for part in text[s:e].split("\n"):
            comments[seg_line] = comments.get(seg_line, "") + part
            seg_line += 1

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            record_comment(i, j)
            for k in range(i, j):
                out[k] = " "
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            record_comment(i, j)
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            line += text.count("\n", i, j)
            i = j
        elif c == '"' or c == "'":
            q = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == q or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            for k in range(i + 1, j - 1):
                if out[k] != "\n":
                    out[k] = " "
            line += text.count("\n", i, j)
            i = j
        else:
            i += 1

    code = "".join(out)
    for ln, code_line in enumerate(code.split("\n"), start=1):
        if ln in comments and not code_line.strip():
            comment_only.add(ln)
    return code, comments, comment_only


def load_file(root: str, rel: str) -> SourceFile:
    with open(os.path.join(root, rel), "r", encoding="utf-8",
              errors="replace") as f:
        raw = f.read()
    code, comments, comment_only = blank_comments_and_strings(raw)
    return SourceFile(path=rel.replace(os.sep, "/"), raw=raw, code=code,
                      comments=comments, comment_only=comment_only)


def line_of(code: str, offset: int) -> int:
    return code.count("\n", 0, offset) + 1


def match_angle(code: str, i: int):
    """code[i] == '<': returns offset past the matching '>' or None."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}" :
            return None  # not a template argument list after all
        i += 1
    return None


def match_paren(code: str, i: int):
    """code[i] == '(': returns offset past the matching ')' or None."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return None


def split_top_level(args: str, sep: str = ","):
    """Splits an argument/template list on top-level separators."""
    parts, depth, cur = [], 0, []
    for c in args:
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def collect_container_decls(sf: SourceFile):
    """Finds unordered-container declarations and local unordered aliases.

    Returns (names, aliases, decls) where `names` is every identifier
    declared with an unordered type (members, locals, and functions that
    return one — iterating a returned reference is just as order-dependent),
    `aliases` is local `using X = std::unordered_map<...>` type names, and
    `decls` lists (line, container_kw, key_type_text) for every associative
    container mention (ordered and unordered) for the pointer-key rule.
    """
    code = sf.code
    names, aliases, decls = set(), set(), []
    for m in re.finditer(r"\b(unordered_map|unordered_set|unordered_multimap|"
                         r"unordered_multiset|map|set|multimap|multiset)\s*<",
                         code):
        kw = m.group(1)
        # Qualification guard: bare map/set must be std:: or det:: qualified
        # to count (local types named `map` don't exist here, but geometry
        # code could legitimately have a member called `set`).
        prefix = code[max(0, m.start() - 8):m.start()]
        qualified = prefix.rstrip().endswith("::")
        if kw not in UNORDERED_TYPES and not qualified:
            continue
        open_angle = code.find("<", m.start())
        close = match_angle(code, open_angle)
        if close is None:
            continue
        args = code[open_angle + 1:close - 1]
        key_type = split_top_level(args)[0].strip()
        decls.append((line_of(code, m.start()), kw, key_type))
        if kw not in UNORDERED_TYPES:
            continue
        # What follows the template args: `&`/`*`/`>`… then an identifier is
        # a declaration (member, local, param, or returning function).
        tail = code[close:close + 160]
        dm = re.match(r"\s*[&*]*\s*(?:const\s+)?([A-Za-z_][A-Za-z0-9_]*)",
                      tail)
        if dm and dm.group(1) not in ("const", "return", "operator"):
            names.add(dm.group(1))
    for m in re.finditer(r"\busing\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*"
                         r"(?:std\s*::\s*)?(unordered_map|unordered_set|"
                         r"unordered_multimap|unordered_multiset)\s*<", code):
        aliases.add(m.group(1))
    # Second pass: declarations through local aliases (`Index idx;`).
    for alias in aliases:
        for m in re.finditer(r"\b" + re.escape(alias) +
                             r"\b\s*&?\s*([A-Za-z_][A-Za-z0-9_]*)\s*[;{=(]",
                             code):
            if m.group(1) not in ("const",):
                names.add(m.group(1))
    return names, aliases, decls


class Linter:
    def __init__(self, root: str, digest_scope=DIGEST_SCOPE,
                 force_digest_scope: bool = False):
        self.root = root
        self.digest_scope = tuple(d.rstrip("/") + "/" for d in digest_scope)
        self.force_digest_scope = force_digest_scope
        self.findings: list[Finding] = []

    # ---- suppression ------------------------------------------------------

    def allow_reason(self, sf: SourceFile, line: int, rule: str):
        """Returns the ALLOW reason covering `line` for `rule`, else None.

        An annotation covers its own line and the whole statement below its
        comment block (NOLINTNEXTLINE semantics, statement-granular: walking
        up from the finding, continuation lines of an unterminated statement
        do not break the link to the comment block above).
        """
        code_lines = sf.code.split("\n")
        candidates = [line]
        ln = line - 1
        while ln >= 1:
            if ln in sf.comment_only:
                candidates.append(ln)
                ln -= 1
                continue
            text = code_lines[ln - 1].strip() if ln <= len(code_lines) else ""
            # A code line that ends a statement (or opens/closes a block)
            # seals the search; a continuation line keeps walking up.
            if not text or text.endswith((";", "{", "}", ":")):
                break
            ln -= 1
        for ln in candidates:
            text = sf.comments.get(ln, "")
            m = ALLOW_RE.search(text)
            if not m:
                continue
            allowed_rule = m.group(1).strip()
            if allowed_rule != rule:
                continue
            reason = m.group(3).strip()
            # The reason may wrap across the rest of the comment block.
            nxt = ln + 1
            while nxt in sf.comments and nxt in sf.comment_only:
                cont = sf.comments[nxt].lstrip("/ ").strip()
                if ALLOW_RE.search(cont):
                    break
                reason = (reason + " " + cont).strip()
                nxt += 1
            return reason
        return None

    def check_allow_syntax(self, sf: SourceFile):
        for ln, text in sorted(sf.comments.items()):
            m = ALLOW_RE.search(text)
            if not m:
                continue
            rule = m.group(1).strip()
            if rule not in RULES or rule == "bad-allow":
                self.emit(sf, ln, "bad-allow",
                          f"ALLOW names unknown rule '{rule}'")
                continue
            reason = m.group(3).strip()
            if not reason:
                nxt = sf.comments.get(ln + 1, "").lstrip("/ ").strip()
                if not nxt:
                    self.emit(sf, ln, "bad-allow",
                              f"ALLOW({rule}) carries no reason")

    def emit(self, sf: SourceFile, line: int, rule: str, message: str):
        f = Finding(rule=rule, path=sf.path, line=line, message=message)
        if rule != "bad-allow":
            reason = self.allow_reason(sf, line, rule)
            if reason is not None:
                f.suppressed = True
                f.reason = reason
        self.findings.append(f)

    # ---- per-rule passes --------------------------------------------------

    def in_digest_scope(self, path: str) -> bool:
        return self.force_digest_scope or any(
            path.startswith(d) for d in self.digest_scope)

    def rule_unordered_iteration(self, sf: SourceFile, unordered_names):
        if not self.in_digest_scope(sf.path):
            return
        code = sf.code
        # Range-for over an unordered container (by name or inline type).
        for m in re.finditer(r"\bfor\s*\(", code):
            open_paren = code.find("(", m.start())
            close = match_paren(code, open_paren)
            if close is None:
                continue
            inner = code[open_paren + 1:close - 1]
            # Top-level ':' (ignoring '::') marks a range-for.
            depth, range_expr = 0, None
            i = 0
            while i < len(inner):
                c = inner[i]
                if c in "<([{":
                    depth += 1
                elif c in ">)]}":
                    depth -= 1
                elif c == ":" and depth == 0:
                    if i + 1 < len(inner) and inner[i + 1] == ":":
                        i += 2
                        continue
                    if i > 0 and inner[i - 1] == ":":
                        i += 1
                        continue
                    range_expr = inner[i + 1:]
                    break
                i += 1
            if range_expr is None:
                continue
            if "sorted_view" in range_expr or "sorted_keys" in range_expr:
                continue
            idents = set(IDENT_RE.findall(range_expr))
            inline_unordered = any(t + "<" in range_expr.replace(" ", "")
                                   for t in UNORDERED_TYPES)
            hit = sorted(idents & unordered_names)
            if hit or inline_unordered:
                what = hit[0] if hit else "an unordered container"
                self.emit(sf, line_of(code, m.start()), "unordered-iteration",
                          f"range-for over '{what}' — iteration order is not "
                          "deterministic; use det::sorted_view/sorted_keys "
                          "(util/ordered.h) or annotate why order cannot "
                          "matter")
        # Iterator loops: name.begin() / name->begin() on an unordered name.
        for m in re.finditer(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*(?:\.|->)\s*"
                             r"c?begin\s*\(", code):
            if m.group(1) in unordered_names:
                self.emit(sf, line_of(code, m.start()), "unordered-iteration",
                          f"iterator walk over '{m.group(1)}' — iteration "
                          "order is not deterministic; use det::sorted_view/"
                          "sorted_keys (util/ordered.h) or annotate why "
                          "order cannot matter")

    def rule_pointer_keyed(self, sf: SourceFile, decls):
        for line, kw, key_type in decls:
            kt = key_type.replace(" ", "")
            if kt.endswith("*") or re.match(
                    r"(std::)?(shared_ptr|unique_ptr|weak_ptr)<", kt):
                self.emit(sf, line, "pointer-keyed-container",
                          f"{kw} keyed by '{key_type.strip()}' — addresses "
                          "differ run to run, so ordering/hashing over them "
                          "is nondeterministic; key by a stable id "
                          "(TaggedId) instead")

    def rule_rng_discipline(self, sf: SourceFile):
        code = sf.code
        for engine in BANNED_ENGINES:
            for m in re.finditer(r"\bstd\s*::\s*" + engine + r"\b", code):
                self.emit(sf, line_of(code, m.start()), "rng-discipline",
                          f"std::{engine} is banned — draw from a Simulator "
                          "stream (Rng::split with a named RngStreamId)")
        for m in re.finditer(r"\b(srand|rand)\s*\(", code):
            self.emit(sf, line_of(code, m.start()), "rng-discipline",
                      f"{m.group(1)}() is banned — draw from a Simulator "
                      "stream (Rng::split with a named RngStreamId)")
        if sf.path not in RNG_CONSTRUCTION_ALLOWLIST:
            for m in re.finditer(r"\bRng\s*[({]", code):
                # `class Rng {` / `struct Rng {` define, not construct.
                lead = code[max(0, m.start() - 16):m.start()]
                if re.search(r"\b(class|struct)\s+$", lead):
                    continue
                self.emit(sf, line_of(code, m.start()), "rng-discipline",
                          "direct Rng construction — split from a Simulator "
                          "stream so the seed plumbing stays auditable")
        for m in re.finditer(r"\.\s*split\s*\(\s*\d", code):
            self.emit(sf, line_of(code, m.start()), "rng-discipline",
                      "split(<bare integer>) — use a named RngStreamId so "
                      "stream tags cannot collide")

    def rule_wall_clock(self, sf: SourceFile):
        if sf.path in WALL_CLOCK_ALLOWLIST:
            return
        code = sf.code
        for clock in WALL_CLOCKS:
            for m in re.finditer(r"\b" + clock + r"\b", code):
                self.emit(sf, line_of(code, m.start()), "wall-clock",
                          f"std::chrono::{clock} outside harness timing — "
                          "sim code tells time with Simulator::now()")
        for m in re.finditer(r"\b(gettimeofday|clock_gettime|timespec_get)"
                             r"\s*\(", code):
            self.emit(sf, line_of(code, m.start()), "wall-clock",
                      f"{m.group(1)}() outside harness timing — sim code "
                      "tells time with Simulator::now()")
        for m in re.finditer(r"(?<![A-Za-z0-9_])time\s*\(\s*(nullptr|NULL|0)?"
                             r"\s*\)", code):
            self.emit(sf, line_of(code, m.start()), "wall-clock",
                      "time() outside harness timing — sim code tells time "
                      "with Simulator::now()")
        for m in re.finditer(r"(?<![A-Za-z0-9_:.>])clock\s*\(\s*\)", code):
            self.emit(sf, line_of(code, m.start()), "wall-clock",
                      "clock() outside harness timing — sim code tells time "
                      "with Simulator::now()")

    def rule_send_kind(self, sf: SourceFile):
        code = sf.code
        # Frame sends must receive an explicit kind argument.
        for m in re.finditer(r"\b(broadcast_each|unicast_frame)\s*\(", code):
            open_paren = code.find("(", m.start())
            close = match_paren(code, open_paren)
            args = code[open_paren + 1:(close or open_paren + 1) - 1]
            if "PacketKind" not in args and "kind" not in args:
                self.emit(sf, line_of(code, m.start()), "send-kind",
                          f"{m.group(1)} without an explicit PacketKind "
                          "argument — the per-kind channel ledger cannot "
                          "account this frame")
        # make_packet's first argument is the kind.
        for m in re.finditer(r"\bmake_packet\s*\(", code):
            open_paren = code.find("(", m.start())
            close = match_paren(code, open_paren)
            if close is None:
                continue
            first = split_top_level(code[open_paren + 1:close - 1])[0]
            if "PacketKind" not in first and "kind" not in first:
                self.emit(sf, line_of(code, m.start()), "send-kind",
                          "make_packet whose first argument is not an "
                          "explicit PacketKind")
        # Bare `Packet p;` declarations must assign .kind immediately (the
        # factory idiom) or carry an ALLOW (carrier-slot members).
        if sf.path == "src/net/packet.h":
            return
        for m in re.finditer(r"\bPacket\s+([A-Za-z_][A-Za-z0-9_]*)\s*"
                             r"(;|\{\s*\}\s*;)", code):
            name = m.group(1)
            decl_line = line_of(code, m.start())
            window = sf.code.split("\n")[decl_line:decl_line + 8]
            assigns_kind = any(
                re.search(r"\b" + re.escape(name) + r"\s*\.\s*kind\s*=", w)
                for w in window)
            if not assigns_kind:
                self.emit(sf, decl_line, "send-kind",
                          f"'Packet {name};' defaults kind to kNone — build "
                          "packets through make_packet(PacketKind::k…) or "
                          "assign .kind immediately")

    # ---- driver -----------------------------------------------------------

    def lint_file(self, rel: str):
        sf = load_file(self.root, rel)
        names, _aliases, decls = collect_container_decls(sf)
        # A .cpp shares member declarations with its own header (and vice
        # versa): rsu_agent.cpp iterating a set declared in rsu_agent.h must
        # still be seen.
        stem, ext = os.path.splitext(rel)
        sibling = stem + (".h" if ext == ".cpp" else ".cpp")
        if os.path.exists(os.path.join(self.root, sibling)):
            sib = load_file(self.root, sibling)
            sib_names, _, _ = collect_container_decls(sib)
            names |= sib_names
        self.check_allow_syntax(sf)
        self.rule_unordered_iteration(sf, names)
        self.rule_pointer_keyed(sf, decls)
        self.rule_rng_discipline(sf)
        self.rule_wall_clock(sf)
        self.rule_send_kind(sf)


def gather_sources(root: str, paths):
    rels = []
    for p in paths:
        full = os.path.join(root, p) if not os.path.isabs(p) else p
        if os.path.isfile(full):
            rels.append(os.path.relpath(full, root))
        else:
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith((".h", ".hpp", ".cc", ".cpp", ".cxx")):
                        rels.append(
                            os.path.relpath(os.path.join(dirpath, fn), root))
    return sorted(set(r.replace(os.sep, "/") for r in rels))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories to lint (default: src/)")
    ap.add_argument("--repo-root", default=None,
                    help="repository root (default: two levels up from this "
                         "script)")
    ap.add_argument("--report", metavar="OUT.json",
                    help="write a machine-readable findings report")
    ap.add_argument("--all-rules-everywhere", action="store_true",
                    help="treat every input as digest-affecting (fixtures/"
                         "tests)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:24s} {desc}")
        return 0

    root = args.repo_root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    paths = args.paths or ["src"]
    rels = gather_sources(root, paths)
    if not rels:
        print(f"determinism-lint: no sources under {paths}", file=sys.stderr)
        return 2

    linter = Linter(root, force_digest_scope=args.all_rules_everywhere)
    for rel in rels:
        linter.lint_file(rel)

    active = [f for f in linter.findings if not f.suppressed]
    suppressed = [f for f in linter.findings if f.suppressed]
    if args.report:
        doc = {
            "schema": "hlsrg-determinism-lint/v1",
            "files_scanned": len(rels),
            "findings": [dataclasses.asdict(f) for f in active],
            "suppressed": [dataclasses.asdict(f) for f in suppressed],
        }
        with open(args.report, "w", encoding="utf-8") as out:
            json.dump(doc, out, indent=2)
            out.write("\n")
    if not args.quiet:
        for f in active:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        for f in suppressed:
            print(f"note: {f.path}:{f.line}: [{f.rule}] suppressed: "
                  f"{f.reason}")
        print(f"determinism-lint: {len(rels)} files, {len(active)} findings, "
              f"{len(suppressed)} suppressed")
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
