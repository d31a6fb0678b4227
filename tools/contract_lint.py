#!/usr/bin/env python3
"""Contract lint: repo-specific invariants clang-tidy cannot express.

Checks (each line-anchored, reported as file:line):

  threads         Raw std::thread is allowed only in the one place that
                  owns worker lifecycles: the ordered shard pipeline
                  (stream/ordered_pipeline.h) — all three engines ride it,
                  so shard counts and failure routing stay in one place.

  pool-writer     ValuePool::Intern is allowed only in the relational
                  layer (Tuple/Relation/CSV construct values) — the
                  engines must stay on the read-only side of the
                  single-writer pool contract (value_pool.h) and reach
                  foreign pools through PoolBridge.

  status-discard  A bare statement calling a method this repo declares
                  as returning Status/Result must not drop the verdict:
                  wrap it in CERTFIX_RETURN_IF_ERROR / CERTFIX_RETURN_NOT_OK,
                  assign it, or cast to (void) deliberately.

  include-guard   Headers under src/ use CERTFIX_<PATH>_H_ guards.

  idkey-map       std::unordered_map<IdKey, ...> is allowed only inside
                  the one index implementation (flat_key_index.{h,cc}) —
                  hot-path code uses FlatIdTable/FlatKeyIndex; cold
                  build-side groupings carry an explicit waiver.

  stderr          Raw std::cerr / fprintf(stderr, ...) is allowed only
                  in util/logging.cc (the single sink) and src/tools/
                  (CLI commands write user-facing errors to the stream
                  they were handed) — library code must go through
                  CERTFIX_LOG so lines stay whole under concurrency and
                  tests can capture them via SetLogSink.

  output          std::ofstream is allowed only in the checked writer,
                  util/output_file.{h,cc}: every file the program writes
                  goes through OutputFile, which checks each write and the
                  close and replaces the target only on success.

A line is waived with `// contract-lint: allow(<check>) <reason>`; the
reason is mandatory. For idkey-map only, the waiver may sit on the line
immediately before or after the declaration (multi-line template
declarations rarely fit a trailing comment).

Usage: tools/contract_lint.py [repo_root]   (exit 1 on any finding)
"""

import os
import re
import sys

THREAD_ALLOWED = ("src/stream/ordered_pipeline.h",)
POOL_ALLOWED = ("src/relational/",)
IDKEY_ALLOWED = ("src/relational/flat_key_index.h",
                 "src/relational/flat_key_index.cc")
STDERR_ALLOWED = ("src/util/logging.cc", "src/tools/")
OUTPUT_ALLOWED = ("src/util/output_file.h", "src/util/output_file.cc")

WAIVER = re.compile(r"//\s*contract-lint:\s*allow\(([\w-]+)\)\s+\S")
LINE_COMMENT = re.compile(r"//.*$")

THREAD_USE = re.compile(r"\bstd::thread\b(?!\s*::hardware_concurrency)")
POOL_WRITE = re.compile(r"(?:->|\.)\s*Intern\s*\(")
IDKEY_MAP = re.compile(r"\bstd::unordered_map<\s*IdKey\b")
STDERR_USE = re.compile(r"\bstd::cerr\b|\bfprintf\s*\(\s*stderr\b")
OFSTREAM_USE = re.compile(r"\bstd::ofstream\b")

STATUS_DECL = re.compile(
    r"^\s*(?:virtual\s+)?(?:Status|Result<[^;=]*>)\s+(\w+)\s*\(")
# Any other method declaration: a name declared somewhere with a
# non-Status return type is ambiguous (e.g. AttrSet::Add is void while
# RuleSet::Add returns Status) and is skipped rather than guessed at.
OTHER_DECL = re.compile(
    r"^\s*(?:virtual\s+)?(?:void|bool|int|unsigned|float|double|char|auto|"
    r"size_t|uint\d+_t|int\d+_t|AttrId|AttrSet|Tuple|Value|Relation|"
    r"std::[\w:<>,*&\s]+?|[A-Z]\w+(?:<[^;=()]*>)?[*&]?)\s+(\w+)\s*\(")
# A whole statement of the form `expr.Method(...);` / `expr->Method(...);`
# with no assignment, return, or macro wrapper on the line.
BARE_CALL = re.compile(
    r"^\s*(?:[\w\]\[.>*-]+(?:->|\.))?(\w+)\s*\(.*\)\s*;\s*$")
GUARDED = re.compile(
    r"^\s*(?:return|CERTFIX_\w+\(|ASSERT_|EXPECT_|CHECK|assert\(|\(void\)|"
    r"if\b|while\b|for\b|switch\b)")

# Control-flow / allocation words BARE_CALL would otherwise "call".
NOT_METHODS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch",
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
    "defined", "alignof", "decltype", "emplace_back", "push_back",
}


def harvest_status_methods(root):
    """Names declared in src/ headers as returning Status/Result — minus
    any name that is *also* declared with some other return type (e.g.
    AttrSet::Add is void while RuleSet::Add returns Status): ambiguous
    names would make every flag a coin toss, so they are skipped.
    """
    names = set()
    ambiguous = set()
    for path in walk_sources(root, exts=(".h",)):
        with open(path, encoding="utf-8") as f:
            for line in f:
                m = STATUS_DECL.match(line)
                if m:
                    names.add(m.group(1))
                    continue
                m = OTHER_DECL.match(line)
                if m:
                    ambiguous.add(m.group(1))
    names -= ambiguous
    # Constructors of Status/Result and tiny accessors that merely *build*
    # a status are not "checkable calls".
    for benign in ("Status", "OK", "ok", "status", "Error"):
        names.discard(benign)
    return names


def walk_sources(root, exts=(".h", ".cc")):
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs[:] = [d for d in dirs if not d.startswith(".")]
        for name in sorted(files):
            if name.endswith(exts):
                yield os.path.join(base, name)


def rel(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


def expected_guard(relpath):
    stem = relpath[len("src/"):]
    token = re.sub(r"[^A-Za-z0-9]", "_", stem.rsplit(".", 1)[0]).upper()
    return "CERTFIX_%s_H_" % token


def waived(line, check):
    m = WAIVER.search(line)
    return bool(m and m.group(1) == check)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    status_methods = harvest_status_methods(root)
    findings = []

    for path in walk_sources(root):
        relpath = rel(root, path)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()

        in_block_comment = False
        # Last character of the previous code line: a statement can only
        # *start* after ';', '{', '}' or ':' (else this line continues a
        # split expression such as a two-line assignment or macro call).
        prev_end = ";"
        for lineno, raw in enumerate(lines, 1):
            line = raw
            if in_block_comment:
                if "*/" in line:
                    line = line.split("*/", 1)[1]
                    in_block_comment = False
                else:
                    continue
            if "/*" in line and "*/" not in line:
                in_block_comment = True
                line = line.split("/*", 1)[0]
            code = LINE_COMMENT.sub("", line)
            if not code.strip():
                continue
            statement_start = prev_end in ";{}:"
            prev_end = code.strip()[-1]

            if (THREAD_USE.search(code)
                    and not relpath.startswith(THREAD_ALLOWED)
                    and not waived(raw, "threads")):
                findings.append(
                    (relpath, lineno,
                     "threads: raw std::thread outside "
                     "stream/ordered_pipeline.h — use OrderedShardPipeline"))

            if (IDKEY_MAP.search(code)
                    and relpath not in IDKEY_ALLOWED
                    and not waived(raw, "idkey-map")
                    and not (lineno >= 2
                             and waived(lines[lineno - 2], "idkey-map"))
                    and not (lineno < len(lines)
                             and waived(lines[lineno], "idkey-map"))):
                findings.append(
                    (relpath, lineno,
                     "idkey-map: std::unordered_map<IdKey, ...> outside the "
                     "index implementations — use FlatIdTable/FlatKeyIndex "
                     "(relational/flat_key_index.h) or waive with a reason"))

            if (STDERR_USE.search(code)
                    and not relpath.startswith(STDERR_ALLOWED)
                    and not waived(raw, "stderr")):
                findings.append(
                    (relpath, lineno,
                     "stderr: raw std::cerr/fprintf(stderr) outside "
                     "util/logging.cc and src/tools — use CERTFIX_LOG "
                     "(util/logging.h)"))

            if (OFSTREAM_USE.search(code)
                    and relpath not in OUTPUT_ALLOWED
                    and not waived(raw, "output")):
                findings.append(
                    (relpath, lineno,
                     "output: std::ofstream outside util/output_file — "
                     "write files through OutputFile so every write and "
                     "the close are checked and the target is replaced "
                     "only on success"))

            if (POOL_WRITE.search(code)
                    and not relpath.startswith(POOL_ALLOWED)
                    and not waived(raw, "pool-writer")):
                findings.append(
                    (relpath, lineno,
                     "pool-writer: ValuePool::Intern outside src/relational "
                     "violates the single-writer contract — go through "
                     "Tuple::Set/PoolBridge"))

            if statement_start and not GUARDED.match(code):
                m = BARE_CALL.match(code)
                if (m and m.group(1) in status_methods
                        and m.group(1) not in NOT_METHODS
                        and "=" not in code.split(m.group(1))[0]
                        and not waived(raw, "status-discard")):
                    findings.append(
                        (relpath, lineno,
                         "status-discard: result of '%s' is dropped — wrap "
                         "in CERTFIX_RETURN_IF_ERROR or cast to (void)"
                         % m.group(1)))

        if relpath.endswith(".h"):
            guard = expected_guard(relpath)
            text = "\n".join(lines)
            if ("#ifndef %s" % guard not in text
                    or "#define %s" % guard not in text):
                if not any(waived(l, "include-guard") for l in lines[:5]):
                    findings.append(
                        (relpath, 1,
                         "include-guard: expected %s" % guard))

    for relpath, lineno, message in findings:
        print("%s:%d: %s" % (relpath, lineno, message))
    if findings:
        print("contract_lint: %d finding(s)" % len(findings))
        return 1
    print("contract_lint: clean (%d status-returning methods tracked)"
          % len(status_methods))
    return 0


if __name__ == "__main__":
    sys.exit(main())
