#!/usr/bin/env python3
"""rw_lint: project-invariant linter for the lock-discipline rules.

Complements the Clang Thread Safety Analysis build (-DRW_THREAD_SAFETY=ON,
see docs/static_analysis.md): the compiler proves guarded-field access, this
script enforces the conventions the analysis cannot see. Runs on any Python 3
with no third-party imports, so it works in CI and as a local ctest.

Rules
  RW001  No naked std::mutex / std::condition_variable outside the rw::
         wrapper (src/util/mutex.h). All concurrent code uses rw::Mutex so
         it participates in the analysis and the deadlock checker; the only
         raw-primitive holdouts are the wrapper itself and the checker
         internals (src/util/deadlock.cpp), which carry reasoned waivers
         because the checker cannot be built on the type it instruments.
  RW002  No condition-variable wait without a predicate: every .wait(...)
         needs a predicate argument and every .wait_for/.wait_until needs
         (lock, time, predicate). Naked waits are how missed-wakeup and
         spurious-wakeup bugs ship.
  RW003  Annotated-class discipline: in a header class that owns an
         rw::Mutex, (a) every *_locked() helper declaration carries
         RW_REQUIRES, and (b) every data member declared in that class is
         either RW_GUARDED_BY-annotated, atomic, const, or itself a
         synchronization object.
  RW004  ControlOp codes (src/core/control.h) are dense from 1 and match
         the op table in docs/control_protocol.md.
  RW005  Every bench/bench_*.cpp emits the BENCH json summary line.
  RW006  No fresh util::Bytes construction inside the per-packet hot paths
         (on_packet() bodies and the on_ready() drives every stage runs
         on its worker). Steady-state pass-through must be allocation-free
         (tests/filter_chain_test.cpp asserts it): acquire scratch from
         util::BufferPool::local() or move an existing buffer through.
         Transform filters that genuinely need a fresh output buffer carry
         a reasoned waiver.
  RW007  No wall-clock time in the simulated layers: src/net/, src/wireless/,
         src/sim/ and the virtual clock's event queue (src/util/clock.cpp)
         must not call std::chrono::steady_clock::now() or sleep_for.
         Those layers run under util::SimClock in tests and the fleet
         simulation (docs/simulation.md); a stray wall-clock read
         makes runs timing-dependent and breaks the byte-identical
         determinism contract. Take a util::Clock* and use clock->now() /
         virtual scheduling instead. Genuine wall-clock needs (e.g. a
         watchdog that must fire even when the virtual loop wedges) carry a
         reasoned waiver.
  RW008  No blocking calls in run-to-completion dispatch contexts: the
         virtual-time layer (src/sim/ and src/util/clock.cpp), the
         observability snapshot/render paths (src/obs/), the
         control-protocol dispatch code
         (src/core/control.*), the detachable streams
         (src/core/detachable_stream.*, which every drive on every worker
         calls), the worker loop and pool, the filter
         library (src/filters/, whose drives run on a worker every chain
         hosted there shares) and the adaptation raplets (src/raplets/,
         ticked by whoever owns the control cadence) must not join
         threads, wait on condition variables, sleep (sleep_for/
         sleep_until), or receive with an infinite timeout. These bodies
         run inline under a dispatcher's lock, clock step or worker; one
         blocked callback stalls every queued event behind it, and under
         util::SimClock it wedges virtual time itself. Pace with a timer instead (a filter defers
         its next read: PacketFilter::input_delay). A worker thread that
         deliberately paces on a CV inside one of these directories (e.g.
         the stats log's wall-clock emitter) carries a reasoned waiver.

Run `rw_lint.py --self-check` to exercise every rule against built-in
fixtures (each rule must fire on a bad twin and stay silent on a waivered
or conforming twin); CI runs this before trusting a clean report.

Suppression: append  `// rw-lint: allow(RWxxx) <reason>`  to the offending
line (the reason is mandatory).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

ALLOW_RE = re.compile(r"//\s*rw-lint:\s*allow\((RW\d{3})\)\s*\S")

errors: list[str] = []


def report(path: Path, lineno: int, rule: str, msg: str, line: str) -> None:
    allow = ALLOW_RE.search(line)
    if allow and allow.group(1) == rule:
        return
    rel = path.relative_to(REPO)
    errors.append(f"{rel}:{lineno}: {rule}: {msg}")


def strip_comments(line: str) -> str:
    """Drops // comments, ignoring comment-lookalikes inside string and
    character literals (a "tcp://host" URL must not hide the rest of the
    line from the checks)."""
    quote = None  # the open quote character, if inside a literal
    i = 0
    while i < len(line):
        c = line[i]
        if quote:
            if c == "\\":
                i += 1  # skip the escaped character
            elif c == quote:
                quote = None
        elif c in "\"'":
            quote = c
        elif c == "/" and line.startswith("//", i):
            return line[:i]
        i += 1
    return line


def src_files(*suffixes: str):
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix in suffixes and path.is_file():
            yield path


# ---------------------------------------------------------------------------
# RW001: naked std::mutex / std::condition_variable

RAW_SYNC_RE = re.compile(r"\bstd::(mutex|condition_variable(_any)?|shared_mutex|recursive_mutex)\b")


def check_rw001() -> None:
    for path in src_files(".h", ".cpp"):
        rel = str(path.relative_to(REPO))
        if rel == "src/util/mutex.h":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if RAW_SYNC_RE.search(strip_comments(line)):
                report(path, lineno, "RW001",
                       "raw std:: synchronization primitive; use rw::Mutex / "
                       "rw::CondVar (src/util/mutex.h) so the thread-safety "
                       "analysis sees it", line)


# ---------------------------------------------------------------------------
# RW002: condition-variable waits must take a predicate


def split_call_args(text: str, open_paren: int) -> list[str] | None:
    """Returns top-level comma-separated args of the call whose '(' is at
    open_paren, or None if the call spans past the given text."""
    depth = 0
    args: list[str] = []
    start = open_paren + 1
    for i in range(open_paren, len(text)):
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i])
                return args
        elif c == "," and depth == 1:
            args.append(text[start:i])
            start = i + 1
    return None


WAIT_RE = re.compile(r"\.\s*(wait|wait_for|wait_until)\s*\(")


def check_rw002() -> None:
    for path in src_files(".h", ".cpp"):
        if str(path.relative_to(REPO)) == "src/util/mutex.h":
            continue  # the wrapper implements the predicate API itself
        lines = path.read_text().splitlines()
        # Match on comment-stripped text: prose like "wait_for(n)" in a
        # comment is not a call site.
        text = "\n".join(strip_comments(ln) for ln in lines)
        code_lines = text.splitlines()
        for m in WAIT_RE.finditer(text):
            lineno = text.count("\n", 0, m.start()) + 1
            # Join a few lines so multi-line calls parse.
            window = "\n".join(code_lines[lineno - 1:lineno + 12])
            col = m.start() - (text.rfind("\n", 0, m.start()) + 1)
            paren = window.find("(", col)
            args = split_call_args(window, paren) if paren >= 0 else None
            if args is None:
                continue  # unparseable; leave it to review
            fn = m.group(1)
            need = 2 if fn == "wait" else 3
            if len(args) < need:
                report(path, lineno, "RW002",
                       f"naked {fn}() without a predicate — missed/spurious "
                       "wakeups; pass the condition as a lambda", lines[lineno - 1])


# ---------------------------------------------------------------------------
# RW003: annotated-class member discipline

MEMBER_OK_RE = re.compile(
    r"RW_GUARDED_BY|RW_PT_GUARDED_BY|std::atomic|rw::Mutex|rw::CondVar|"
    r"\bconst\b|\bstatic\b|\busing\b|\btypedef\b|\bfriend\b|"
    r"&\s*[a-z_]\w*_\s*;")  # reference members: the binding is immutable
MEMBER_DECL_RE = re.compile(r"^\s+[A-Za-z_][\w:<>,&*\s]*\s[a-z_]\w*_\s*(=[^;]*)?;")
LOCKED_DECL_RE = re.compile(r"\b\w+_locked\s*\(")


def check_rw003() -> None:
    for path in src_files(".h"):
        if str(path.relative_to(REPO)) == "src/util/mutex.h":
            continue
        text = path.read_text()
        if "rw::Mutex" not in text:
            continue
        lines = text.splitlines()

        # (a) *_locked declarations must carry RW_REQUIRES in the statement.
        stmt, stmt_start = "", 0
        for lineno, line in enumerate(lines, 1):
            if not stmt:
                stmt_start = lineno
            stmt += strip_comments(line)
            if ";" in stmt or "{" in stmt:
                if LOCKED_DECL_RE.search(stmt) and "RW_REQUIRES" not in stmt \
                        and "RW_NO_THREAD_SAFETY_ANALYSIS" not in stmt:
                    report(path, stmt_start, "RW003",
                           "*_locked() helper without RW_REQUIRES(mu) — the "
                           "name promises a held lock; make the compiler "
                           "check it", lines[stmt_start - 1])
                stmt = ""

        # (b) members of a class owning an rw::Mutex must be annotated or
        # inherently safe. Heuristic: inside a class body that declared an
        # rw::Mutex, flag unannotated member declarations.
        depth = 0
        class_depth: list[int] = []  # brace depths of open class bodies
        mutex_depth: set[int] = set()  # class depths that own an rw::Mutex
        pending: list[tuple[int, str, int]] = []  # (lineno, line, depth)
        for lineno, line in enumerate(lines, 1):
            code = strip_comments(line)
            if re.search(r"\b(class|struct)\s+\w+[^;]*$", code) and "{" in code:
                class_depth.append(depth)
            if "rw::Mutex" in code and class_depth:
                mutex_depth.add(class_depth[-1])
            if class_depth and depth == class_depth[-1] + 1 \
                    and MEMBER_DECL_RE.match(code) \
                    and not MEMBER_OK_RE.search(code) \
                    and "(" not in code.split("=")[0]:
                pending.append((lineno, line, class_depth[-1]))
            depth += code.count("{") - code.count("}")
            while class_depth and depth <= class_depth[-1]:
                d = class_depth.pop()
                if d in mutex_depth:
                    for plineno, pline, pdepth in pending:
                        if pdepth == d:
                            report(path, plineno, "RW003",
                                   "data member of an rw::Mutex-owning class "
                                   "without RW_GUARDED_BY (or atomic/const)",
                                   pline)
                    mutex_depth.discard(d)
                pending = [p for p in pending if p[2] != d]


# ---------------------------------------------------------------------------
# RW004: ControlOp codes dense and documented

def check_rw004() -> None:
    header = REPO / "src/core/control.h"
    doc = REPO / "docs/control_protocol.md"
    enum_m = re.search(r"enum class ControlOp[^{]*\{(.*?)\};", header.read_text(),
                       re.S)
    if not enum_m:
        report(header, 1, "RW004", "enum class ControlOp not found", "")
        return
    ops = {name: int(val) for name, val in
           re.findall(r"k(\w+)\s*=\s*(\d+)", enum_m.group(1))}
    codes = sorted(ops.values())
    if codes != list(range(1, len(codes) + 1)):
        report(header, 1, "RW004",
               f"ControlOp codes must be dense from 1; got {codes}", "")
    doc_ops = {name: int(val) for name, val in
               re.findall(r"^\|\s*(\w+)\s*\|\s*(\d+)\s*\|", doc.read_text(),
                          re.M)}
    if doc_ops != ops:
        only_code = {k: v for k, v in ops.items() if doc_ops.get(k) != v}
        only_doc = {k: v for k, v in doc_ops.items() if ops.get(k) != v}
        report(doc, 1, "RW004",
               f"op table out of sync with control.h: header={only_code} "
               f"doc={only_doc}", "")


# ---------------------------------------------------------------------------
# RW005: benches emit the BENCH json line

def check_rw005() -> None:
    for path in sorted((REPO / "bench").glob("bench_*.cpp")):
        text = path.read_text()
        # Either the rwbench JsonSummary helper or a hand-rolled
        # BENCH_<name>.json writer (the google-benchmark-based benches).
        if "JsonSummary" not in text and "BENCH_" not in text:
            report(path, 1, "RW005",
                   "bench binary without a BENCH json summary (bench_util.h)",
                   "")


# ---------------------------------------------------------------------------
# RW006: per-packet util::Bytes construction in data-plane hot loops

HOT_DEF_RE = re.compile(
    r"\b(?:[A-Za-z_]\w*::)*(run|on_packet|on_ready)\s*\(")
# A Bytes object being created: declaration (`util::Bytes body = ...`,
# `Bytes out;`) or a ctor expression (`emit(util::Bytes(...))`).
BYTES_CTOR_RE = re.compile(r"\b(?:util::)?Bytes\b\s*(?:[a-z_]\w*\s*)?[({=;]")
# Not an allocation: pool acquire, moving an existing buffer through,
# references/pointers/template args, spans.
RW006_SAFE_RE = re.compile(
    r"\.acquire\s*\(|std::move\s*\(|Bytes\s*[&*>]|ByteSpan")


def check_rw006() -> None:
    for path in src_files(".h", ".cpp"):
        raw_lines = path.read_text().splitlines()
        code_lines = [strip_comments(ln) for ln in raw_lines]
        text = "\n".join(code_lines)
        for m in HOT_DEF_RE.finditer(text):
            # Walk to the matching ')' of the parameter list.
            depth, end_paren = 0, -1
            for k in range(m.end() - 1, len(text)):
                c = text[k]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        end_paren = k
                        break
            if end_paren < 0:
                continue
            # A definition has '{' before the next ';' (else it is a
            # declaration or a call site).
            body_open = -1
            for k in range(end_paren + 1, len(text)):
                if text[k] == ";":
                    break
                if text[k] == "{":
                    body_open = k
                    break
            if body_open < 0:
                continue
            depth, body_close = 0, len(text)
            for k in range(body_open, len(text)):
                c = text[k]
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                    if depth == 0:
                        body_close = k
                        break
            first = text.count("\n", 0, body_open) + 1  # line of the '{'
            last = text.count("\n", 0, body_close) + 1
            for lineno in range(first + 1, last):
                code = code_lines[lineno - 1]
                if RW006_SAFE_RE.search(code):
                    continue
                if BYTES_CTOR_RE.search(code):
                    report(path, lineno, "RW006",
                           "fresh util::Bytes in a per-packet hot path "
                           "(on_packet()/on_ready()); acquire from "
                           "util::BufferPool::local() or move the input "
                           "buffer through", raw_lines[lineno - 1])


# ---------------------------------------------------------------------------
# RW007: no wall-clock reads or sleeps in the simulated layers

# Layers that must stay driveable by util::SimClock (docs/simulation.md).
# Only the clock's .cpp: the header's WallClock is the sanctioned wall read.
RW007_LAYERS = ("src/net/", "src/wireless/", "src/sim/", "src/util/clock.cpp")
RW007_RE = re.compile(
    r"std::chrono::steady_clock::now\s*\(|\bsleep_for\s*\(")


def check_rw007() -> None:
    for path in src_files(".h", ".cpp"):
        rel = str(path.relative_to(REPO))
        if not rel.startswith(RW007_LAYERS):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if RW007_RE.search(strip_comments(line)):
                report(path, lineno, "RW007",
                       "wall-clock dependence in a simulated layer; take a "
                       "util::Clock* (virtual time in tests/sim) instead of "
                       "steady_clock::now()/sleep_for", line)


# ---------------------------------------------------------------------------
# RW008: no blocking calls in run-to-completion dispatch contexts

RW008_CONTEXTS = ("src/sim/", "src/util/clock.cpp", "src/obs/",
                  "src/core/control.", "src/core/detachable_stream.",
                  "src/core/event_loop.", "src/core/worker_pool.",
                  "src/filters/", "src/raplets/")
RW008_RE = re.compile(
    r"\.\s*join\s*\(\s*\)|\.\s*(wait|wait_for|wait_until)\s*\(|"
    r"\bsleep_(for|until)\s*\(|\brecv\s*\(\s*-1\b")


def check_rw008() -> None:
    for path in src_files(".h", ".cpp"):
        rel = str(path.relative_to(REPO))
        if not rel.startswith(RW008_CONTEXTS):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if RW008_RE.search(strip_comments(line)):
                report(path, lineno, "RW008",
                       "blocking call in a run-to-completion dispatch "
                       "context (sim callbacks, obs snapshot paths, control "
                       "dispatch, worker loop, filter drives, raplet "
                       "ticks); restructure "
                       "so the dispatcher never blocks, or waive with the "
                       "reason it cannot stall the event loop", line)


def run_checks() -> list[str]:
    """Runs every rule against the current REPO; returns the error list."""
    global errors
    errors = []
    check_rw001()
    check_rw002()
    check_rw003()
    check_rw004()
    check_rw005()
    check_rw006()
    check_rw007()
    check_rw008()
    return errors


# ---------------------------------------------------------------------------
# --self-check: every rule must fire on a bad fixture and stay silent on a
# waivered or conforming twin. A linter whose rules silently stopped firing
# is worse than none, so CI runs this before trusting a clean report.

# One bad/good fixture pair per rule. Paths are repo-relative; the self-check
# materializes each tree in a temp dir and points REPO at it.
SELF_CHECK_DIRTY = {
    "src/dirty/legacy.h": (
        "#pragma once\n"
        "std::mutex bad_mutex_;\n"
        # Regression for the strip_comments string bug: the // inside the
        # literal must not hide the std::mutex after it.
        'inline std::string url_ = "tcp://host"; std::mutex sneaky_;\n'
    ),
    "src/dirty/waits.cpp": (
        "void f() {\n"
        "  cv_.wait(lk);\n"
        "  cv_.wait_for(lk, timeout);\n"
        "}\n"
    ),
    "src/dirty/klass.h": (
        "#pragma once\n"
        "class K {\n"
        "  void poke_locked();\n"
        "  rw::Mutex mu_;\n"
        "  int unguarded_;\n"
        "};\n"
    ),
    "src/core/control.h": (
        "enum class ControlOp {\n  kInsert = 1,\n  kRemove = 3,\n};\n"
    ),
    "docs/control_protocol.md": "no op table here\n",
    "bench/bench_dirty.cpp": "int main() { return 0; }\n",
    "src/dirty/hot.cpp": (
        "void Filt::run(core::PacketContext& ctx) {\n"
        "  util::Bytes fresh(16);\n"
        "}\n"
    ),
    "src/dirty/hot_event.cpp": (
        "Filter::Drive Filt::on_ready() {\n"
        "  buf_ = util::Bytes();\n"
        "  return Drive::kIdle;\n"
        "}\n"
    ),
    "src/net/dirty_clock.cpp": (
        "void nap() { std::this_thread::sleep_for(t); }\n"
    ),
    "src/sim/dirty_block.cpp": "void drain() { worker_.join(); }\n",
    "src/filters/dirty_pace.cpp": (
        "void Pace::on_packet(util::Bytes p) {\n"
        "  std::this_thread::sleep_for(wait);\n"
        "  emit(std::move(p));\n"
        "}\n"
    ),
    "src/raplets/dirty_observer.cpp": (
        "void Obs::service_loop() {\n"
        "  while (auto d = socket_->recv(-1)) fold(*d);\n"
        "}\n"
    ),
}

# (file, rule) pairs the dirty tree must produce — nothing more, nothing less.
SELF_CHECK_EXPECTED = sorted([
    ("src/dirty/legacy.h", "RW001"), ("src/dirty/legacy.h", "RW001"),
    ("src/dirty/waits.cpp", "RW002"), ("src/dirty/waits.cpp", "RW002"),
    ("src/dirty/klass.h", "RW003"), ("src/dirty/klass.h", "RW003"),
    ("src/core/control.h", "RW004"), ("docs/control_protocol.md", "RW004"),
    ("bench/bench_dirty.cpp", "RW005"),
    ("src/dirty/hot.cpp", "RW006"),
    ("src/dirty/hot_event.cpp", "RW006"),
    ("src/net/dirty_clock.cpp", "RW007"),
    ("src/sim/dirty_block.cpp", "RW008"),
    ("src/filters/dirty_pace.cpp", "RW008"),
    ("src/raplets/dirty_observer.cpp", "RW008"),
])

SELF_CHECK_CLEAN = {
    "src/clean/legacy.h": (
        "#pragma once\n"
        "std::mutex waived_;  // rw-lint: allow(RW001) self-check fixture\n"
    ),
    "src/clean/waits.cpp": (
        "void f() {\n"
        "  cv_.wait(mu_, [this] { return ready_; });\n"
        "  cv_.wait(lk);  // rw-lint: allow(RW002) self-check fixture\n"
        "}\n"
    ),
    "src/clean/klass.h": (
        "#pragma once\n"
        "class K {\n"
        "  void poke_locked() RW_REQUIRES(mu_);\n"
        "  rw::Mutex mu_;\n"
        "  int guarded_ RW_GUARDED_BY(mu_);\n"
        "  int waived_;  // rw-lint: allow(RW003) self-check fixture\n"
        "};\n"
    ),
    "src/core/control.h": (
        "enum class ControlOp {\n  kInsert = 1,\n  kRemove = 2,\n};\n"
    ),
    "docs/control_protocol.md": (
        "| Insert | 1 |\n| Remove | 2 |\n"
    ),
    "bench/bench_clean.cpp": "int main() { JsonSummary(); }\n",
    "src/clean/hot.cpp": (
        "void Filt::run(core::PacketContext& ctx) {\n"
        "  out = std::move(ctx.packet);\n"
        "  util::Bytes w(4);  // rw-lint: allow(RW006) self-check fixture\n"
        "}\n"
    ),
    "src/clean/hot_event.cpp": (
        "Filter::Drive Filt::on_ready() {\n"
        "  buf_ = util::BufferPool::local().acquire(kChunk);\n"
        "  util::Bytes t = tail();  // rw-lint: allow(RW006) self-check fixture\n"
        "  return Drive::kIdle;\n"
        "}\n"
    ),
    "src/net/clean_clock.cpp": (
        "void nap() { std::this_thread::sleep_for(t); }"
        "  // rw-lint: allow(RW007) self-check fixture\n"
    ),
    "src/sim/clean_block.cpp": (
        "void drain() { worker_.join(); }"
        "  // rw-lint: allow(RW008) self-check fixture\n"
    ),
    "src/filters/clean_pace.cpp": (
        "util::Micros Pace::input_delay() { return debt_us(); }\n"
        "void Pace::on_packet(util::Bytes p) {\n"
        "  std::this_thread::sleep_for(wait);"
        "  // rw-lint: allow(RW008) self-check fixture\n"
        "  emit(std::move(p));\n"
        "}\n"
    ),
    "src/raplets/clean_observer.cpp": (
        "double Obs::poll() {\n"
        "  bool closed = false;\n"
        "  while (auto d = socket_->poll_recv(&closed)) fold(*d);\n"
        "  auto late = socket_->recv(-1);"
        "  // rw-lint: allow(RW008) self-check fixture\n"
        "  return worst();\n"
        "}\n"
    ),
}


def self_check() -> int:
    import tempfile

    global REPO
    real_repo = REPO

    def run_tree(tree: dict[str, str]) -> list[tuple[str, str]]:
        global REPO
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            for rel, content in tree.items():
                f = root / rel
                f.parent.mkdir(parents=True, exist_ok=True)
                f.write_text(content)
            REPO = root
            try:
                found = run_checks()
            finally:
                REPO = real_repo
            out = []
            for e in found:
                loc, rule, _ = e.split(": ", 2)
                out.append((loc.rsplit(":", 1)[0], rule))
            return sorted(out)

    failures = []
    got = run_tree(SELF_CHECK_DIRTY)
    if got != SELF_CHECK_EXPECTED:
        missing = [x for x in SELF_CHECK_EXPECTED if x not in got]
        extra = [x for x in got if x not in SELF_CHECK_EXPECTED]
        failures.append(f"dirty tree mismatch: missing={missing} extra={extra}")
    got_clean = run_tree(SELF_CHECK_CLEAN)
    if got_clean:
        failures.append(f"clean tree not clean: {got_clean}")

    if failures:
        print("rw_lint --self-check FAILED")
        for f in failures:
            print("  " + f)
        return 1
    print(f"rw_lint --self-check: OK "
          f"({len(SELF_CHECK_EXPECTED)} expected findings fired, "
          f"clean twins silent)")
    return 0


def main() -> int:
    if "--self-check" in sys.argv[1:]:
        return self_check()
    run_checks()
    if errors:
        print("\n".join(errors))
        print(f"\nrw_lint: {len(errors)} error(s). "
              "See tools/rw_lint.py header for the rules "
              "and the suppression syntax.")
        return 1
    print("rw_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
