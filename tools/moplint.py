#!/usr/bin/env python3
"""moplint: dependency-free repo lint for MopEye's thread-correctness rules.

Three rule families, each of which used to be enforced only by reviewer
memory (ROADMAP standing rules) and now fails CI:

  owner-capture  Persistent callback members must not strongly capture their
                 owner. Flags `obj->member = [obj]...` / `obj.member = [obj]...`
                 where the lambda copy-captures the very object it is being
                 stored into (a shared_ptr cycle: the std::function keeps its
                 owner alive forever), and any lambda capture of
                 shared_from_this() assigned to a member.

  layering       The include DAG is util -> netpkt/sim/concurrent -> net ->
                 android/core -> apps/baselines/crowd -> collector -> fleet.
                 A file under src/<dir>/ may only include project headers from
                 <dir> itself or a (transitively) lower layer.

  raw-mutex      std::mutex / std::condition_variable / std::lock_guard and
                 friends are banned in src/ outside util/thread_annotations.h:
                 the annotated moputil::Mutex / MutexLock / CondVar wrappers
                 keep Clang -Wthread-safety analysis sound everywhere.

  raw-counter    Ad-hoc `uint64_t foo_count_;` style tally members are banned
                 in src/ outside src/telemetry/: counters belong on the
                 moptel::Registry (lane-sharded, merged on read, exported)
                 instead of growing another hand-merged Stats struct. Beyond
                 the *_count / *_counter / *_total suffixes the rule also
                 knows the tally idioms that actually grew in this codebase —
                 uint64_t *_read / *_polls instrumentation members,
                 *high_water peaks (uint64_t or size_t), and
                 std::vector<uint64_t>/<size_t> arrays of either (per-queue
                 or per-lane tally arrays) — so a counter migrated onto
                 the registry can't quietly regress later.

Suppress a finding with a trailing or preceding-line comment:
    // moplint-allow: <rule>

Usage:
    python3 tools/moplint.py [--root REPO_ROOT]
Exit status is 0 when clean, 1 when any violation is found.
"""

import argparse
import os
import re
import sys

# Direct allowed dependencies per src/ subsystem; the checker closes this
# transitively. Mirrors the target_link_libraries graph in src/*/CMakeLists.
LAYER_DEPS = {
    "util": [],
    "netpkt": ["util"],
    "sim": ["util"],
    "concurrent": ["util"],
    "net": ["util", "netpkt", "sim", "concurrent"],
    "telemetry": ["net"],
    "android": ["net"],
    "core": ["android", "concurrent", "telemetry"],
    "apps": ["core"],
    "baselines": ["core"],
    "crowd": ["core"],
    "collector": ["core", "crowd"],
    "fleet": ["collector"],
}

# Files exempt from the raw-mutex rule: the wrapper itself.
RAW_MUTEX_EXEMPT = {"src/util/thread_annotations.h"}

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# A hand-rolled tally member: `uint64_t frames_count_;`, `uint64_t retries_total = 0;`,
# `uint64_t packets_read_;`, `size_t queue_high_water_ = 0;`.
# Named-by-suffix so honest quantities like `uint64_t bytes_sent_` stay legal;
# the rule targets the *pattern* of growing new ad-hoc counter structs.
# Three shapes: uint64_t tallies by suffix (a size_t `shard_count` is a size,
# not a tally — keeping the legacy suffixes uint64_t-only avoids flagging
# honest cardinalities), high-water peaks in either width (those are gauges
# and grew as size_t everywhere), and std::vector<uint64_t>/<size_t> arrays
# of either — per-queue/per-lane tally arrays (the registry's lane-sharded
# counters are the sanctioned form; layering-pinned exceptions carry an
# explicit waiver).
RAW_COUNTER_RE = re.compile(
    r"\b(?:"
    r"(?P<t1>uint64_t)\s+(?P<n1>[A-Za-z_]\w*?(?:_count|_counter|_total|_read|_poll)s?_?)"
    r"|"
    r"(?P<t2>uint64_t|size_t)\s+(?P<n2>[A-Za-z_]\w*?high_waters?_?)"
    r"|"
    r"(?P<t3>std::vector<\s*uint64_t\s*>)\s+"
    r"(?P<n3>[A-Za-z_]\w*?(?:_count|_counter|_total|_read|_poll)s?_?)"
    r"|"
    r"(?P<t4>std::vector<\s*(?:uint64_t|size_t)\s*>)\s+(?P<n4>[A-Za-z_]\w*?high_waters?_?)"
    r")\s*(?:=[^;]*)?;"
)

# LHS of a member assignment receiving a lambda: `recv->member = [caps]` or
# `recv.member = [caps]`. The receiver is a simple identifier (possibly a
# member like foo_).
MEMBER_LAMBDA_ASSIGN_RE = re.compile(
    r"(?P<recv>[A-Za-z_]\w*)\s*(?:->|\.)\s*(?P<member>[A-Za-z_]\w*)\s*=\s*"
    r"\[(?P<caps>[^\]]*)\]"
)

ALLOW_RE = re.compile(r"moplint-allow:\s*([\w-]+(?:\s*,\s*[\w-]+)*)")


def transitive_deps():
    closed = {}

    def visit(d):
        if d in closed:
            return closed[d]
        acc = set()
        for dep in LAYER_DEPS[d]:
            acc.add(dep)
            acc |= visit(dep)
        closed[d] = acc
        return acc

    for d in LAYER_DEPS:
        visit(d)
    return closed

ALLOWED_INCLUDE_DIRS = transitive_deps()


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text, keep_strings=False):
    """Blanks out comment contents (and string-literal contents unless
    keep_strings), preserving line structure, so rules never fire on prose
    or quoted code."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | 'line' | 'block' | 'str' | 'chr'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "str"
                out.append(c)
                i += 1
            elif c == "'":
                mode = "chr"
                out.append(c)
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line":
            if c == "\n":
                mode = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # str / chr
            quote = '"' if mode == "str" else "'"
            if c == "\\" and i + 1 < n:
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
            elif c == quote:
                mode = None
                out.append(c)
                i += 1
            else:
                out.append(c if (keep_strings or c == "\n") else " ")
                i += 1
    return "".join(out)


def allowed_rules_for_line(raw_lines, lineno):
    """Rules suppressed for 1-based line `lineno` via moplint-allow comments
    on the same line or the line above."""
    rules = set()
    for ln in (lineno - 1, lineno):  # 0-based: line above, line itself
        if 0 <= ln - 0 < len(raw_lines) and ln >= 1:
            m = ALLOW_RE.search(raw_lines[ln - 1])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def check_layering(relpath, text, raw_lines):
    # Include paths live inside string literals, so this rule runs on text
    # with comments stripped but strings kept (see lint_file).
    parts = relpath.replace(os.sep, "/").split("/")
    if len(parts) < 3 or parts[0] != "src" or parts[1] not in LAYER_DEPS:
        return []
    subsystem = parts[1]
    allowed = ALLOWED_INCLUDE_DIRS[subsystem] | {subsystem}
    findings = []
    for idx, line in enumerate(text.splitlines(), start=1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        inc_dir = m.group(1).split("/")[0]
        if inc_dir in LAYER_DEPS and inc_dir not in allowed:
            if "layering" in allowed_rules_for_line(raw_lines, idx):
                continue
            findings.append(Finding(
                relpath, idx, "layering",
                f'src/{subsystem}/ must not include "{m.group(1)}" '
                f"({inc_dir} is not beneath {subsystem} in the layering DAG)"))
    return findings


def check_raw_mutex(relpath, text, raw_lines):
    if relpath.replace(os.sep, "/") in RAW_MUTEX_EXEMPT:
        return []
    findings = []
    for idx, line in enumerate(text.splitlines(), start=1):
        for m in RAW_MUTEX_RE.finditer(line):
            if "raw-mutex" in allowed_rules_for_line(raw_lines, idx):
                continue
            findings.append(Finding(
                relpath, idx, "raw-mutex",
                f"{m.group(0)} is banned outside util/thread_annotations.h — "
                "use moputil::Mutex / MutexLock / CondVar so the thread-safety "
                "annotations stay sound"))
    return findings


def check_raw_counter(relpath, text, raw_lines):
    # The registry's own cells are the one legitimate home for raw counters.
    norm = relpath.replace(os.sep, "/")
    if norm.startswith("src/telemetry/"):
        return []
    findings = []
    for idx, line in enumerate(text.splitlines(), start=1):
        for m in RAW_COUNTER_RE.finditer(line):
            if "raw-counter" in allowed_rules_for_line(raw_lines, idx):
                continue
            ctype = m.group("t1") or m.group("t2") or m.group("t3") or m.group("t4")
            name = m.group("n1") or m.group("n2") or m.group("n3") or m.group("n4")
            findings.append(Finding(
                relpath, idx, "raw-counter",
                f"raw counter member `{ctype} {name}` — register a "
                "moptel::Counter on the telemetry Registry instead of growing "
                "another hand-merged tally (waiver: // moplint-allow: "
                "raw-counter)"))
    return findings


def _capture_names(caps):
    """Identifiers captured by copy in a lambda capture list (skips &refs,
    `this`, and init-captures' initializer side)."""
    names = []
    for cap in caps.split(","):
        cap = cap.strip()
        if not cap or cap.startswith("&") or cap in ("this", "*this", "="):
            continue
        # init-capture `x = expr`: the hazard is the initializer, handled by
        # the shared_from_this scan; the bound name matters if it aliases the
        # receiver's initializer, so record the RHS identifier too.
        if "=" in cap:
            rhs = cap.split("=", 1)[1].strip()
            m = re.match(r"([A-Za-z_]\w*)", rhs)
            if m:
                names.append(m.group(1))
            continue
        m = re.match(r"([A-Za-z_]\w*)$", cap)
        if m:
            names.append(m.group(1))
    return names


def check_owner_capture(relpath, text, raw_lines):
    findings = []
    # Join continuation lines so `obj->cb =\n    [obj]` is still caught, but
    # keep a map back to the original line number of the statement start.
    lines = text.splitlines()
    joined = []
    i = 0
    while i < len(lines):
        line = lines[i]
        start = i + 1
        # Pull in following lines while an assignment's lambda intro hasn't
        # opened yet (`= ` at end of line).
        while re.search(r"=\s*$", line) and i + 1 < len(lines):
            i += 1
            line += " " + lines[i].strip()
        joined.append((start, line))
        i += 1

    for lineno, line in joined:
        for m in MEMBER_LAMBDA_ASSIGN_RE.finditer(line):
            recv = m.group("recv")
            caps = m.group("caps")
            allowed = allowed_rules_for_line(raw_lines, lineno)
            if "owner-capture" in allowed:
                continue
            captured = _capture_names(caps)
            if recv in captured:
                findings.append(Finding(
                    relpath, lineno, "owner-capture",
                    f"`{recv}->{m.group('member')}` is assigned a lambda that "
                    f"copy-captures `{recv}` — a persistent callback keeping "
                    "its own owner alive (shared_ptr cycle). Capture a "
                    "weak_ptr or raw pointer instead."))
            if "shared_from_this" in caps:
                findings.append(Finding(
                    relpath, lineno, "owner-capture",
                    f"`{recv}->{m.group('member')}` captures "
                    "shared_from_this(): a persistent callback member must "
                    "not strongly capture its owner. Capture weak_from_this() "
                    "and lock() at call time."))
    return findings


CHECKS = {
    "layering": check_layering,
    "raw-mutex": check_raw_mutex,
    "raw-counter": check_raw_counter,
    "owner-capture": check_owner_capture,
}


def lint_file(relpath, content):
    stripped = strip_comments_and_strings(content)
    with_strings = strip_comments_and_strings(content, keep_strings=True)
    raw_lines = content.splitlines()
    findings = []
    for rule, check in CHECKS.items():
        text = with_strings if rule == "layering" else stripped
        findings.extend(check(relpath, text, raw_lines))
    return findings


def lint_tree(root):
    findings = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            relpath = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as f:
                content = f.read()
            findings.extend(lint_file(relpath, content))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the tree containing this script)")
    args = parser.parse_args(argv)

    findings = lint_tree(args.root)
    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f)
    if findings:
        print(f"moplint: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    print("moplint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
