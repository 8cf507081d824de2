#!/usr/bin/env python3
"""Custom lint rules for ringsim, run by scripts/lint.sh.

Rules (suppress a finding with a trailing `// lint: allow(<rule>)`):

  raw-new
      No raw `new` outside the event kernel's pooled allocator
      (src/sim/kernel.hpp). Everything else uses containers,
      std::make_unique, or the kernel pools, so leaks cannot hide.

  unordered-iteration
      No iteration over std::unordered_{map,set,multimap,multiset}.
      Hash iteration order is implementation-defined; iterating one in
      a result-affecting path makes runs nondeterministic across
      libstdc++ versions. Keyed lookup is fine; anything that must be
      walked belongs in an ordered container (service::JobTable keeps
      its FIFOs, running ids and retention order in vectors and deques
      and only looks records up by id, for exactly this reason).

  nodiscard
      Header declarations of result-returning validators and fallible
      operations (check*/try[A-Z]*) must be [[nodiscard]]: silently
      dropping a config-error list or a try-result is always a bug.

  raw-getenv
      No direct std::getenv outside src/util/. Environment lookups go
      through util::envString / util::envU64 so defaults, validation,
      and fallback-on-malformed behavior stay in one place and config
      surfaces (service, runner watchdog) remain enumerable.

  hot-path-deque
      No std::deque in src/ring/ or src/core/. Those directories hold
      the per-cycle ring tick and the protocol engines; deque's
      segmented storage costs an indirection per touch and scatters
      queue heads across the heap, which is exactly what the flat
      insert-queue rewrite removed. Use core::FlatQueue
      (src/core/flat_queue.hpp) — or justify the exception with a
      trailing allow.

  naked-thread
      No std::thread construction outside the two sanctioned thread
      owners: the runner's worker pool
      (src/runner/experiment_runner.cpp) and the service's
      ConnectionRegistry (src/service/connection_registry.*). Ad-hoc
      threads are how join-leaks and shutdown races get in; new
      concurrency goes through one of those wrappers, which carry the
      thread-safety annotations and the tests.
      (std::thread::hardware_concurrency() is fine anywhere.)
      No .detach() anywhere, the two owners included: a detached
      thread outlives its owner, so every thread is joined.

  unguarded-mutex
      Every core::Mutex / std::mutex member must have at least one
      sibling member annotated GUARDED_BY(that mutex) in the same
      file. A mutex guarding nothing the analyzer can see is either
      dead or, worse, guarding data by convention only — exactly the
      bug class -Wthread-safety exists to kill. Use the macros from
      src/core/thread_annotations.hpp.

  manual-mutex-lock
      No manual .lock()/.unlock() calls outside
      src/core/thread_annotations.hpp. Unlock/relock juggling defeats
      both RAII and the static analysis; hold scopes are expressed
      with core::MutexLock / core::UniqueLock, and code needing a
      window without the lock is restructured into two locked
      sections.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCAN_DIRS = ["src"]
ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z-]+)\)")

# The event kernel's free-list allocator is the one sanctioned use of
# raw allocation (placement new into pooled storage).
RAW_NEW_ALLOWED_FILES = {"src/sim/kernel.hpp"}

# The two sanctioned thread owners; everything else delegates to them.
THREAD_ALLOWED_FILES = {
    "src/runner/experiment_runner.cpp",
    "src/service/connection_registry.hpp",
    "src/service/connection_registry.cpp",
}

# The annotated wrappers themselves must touch the raw mutex.
MUTEX_WRAPPER_FILES = {"src/core/thread_annotations.hpp"}

findings = []


def flag(rule, path, lineno, message):
    findings.append(f"{path}:{lineno}: [{rule}] {message}")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure so line numbers keep working."""
    out = []
    i, n = 0, len(text)
    state = None  # None, '//', '/*', '"', "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "//"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "/*"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        else:
            if c == "\n":
                if state == "//":
                    state = None
                out.append("\n")
            elif state == "/*" and c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            elif state in "\"'":
                if c == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if c == state:
                    state = None
                    out.append(c)
                else:
                    out.append(" ")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def allowed(raw_lines, lineno, rule):
    line = raw_lines[lineno - 1]
    m = ALLOW_RE.search(line)
    return bool(m and m.group(1) == rule)


NEW_RE = re.compile(r"\bnew\b(?!\s*\()|\bnew\s*\(")
DEQUE_RE = re.compile(r"\bstd\s*::\s*deque\s*<")
GETENV_RE = re.compile(r"\b(?:std\s*::\s*)?getenv\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s*&?\s*"
    r"(\w+)\s*[;{=(,)]"
)
RANGE_FOR_RE = re.compile(r"for\s*\([^;)]*:\s*&?(\w+(?:\.\w+|->\w+)*)\s*\)")
ITER_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*(?:begin|cbegin|rbegin)\s*\(")

# std::thread but not std::thread::hardware_concurrency etc.
THREAD_RE = re.compile(r"\bstd\s*::\s*thread\b(?!\s*::)")
DETACH_RE = re.compile(r"\.\s*detach\s*\(\s*\)")
MUTEX_MEMBER_RE = re.compile(
    r"\b(?:core\s*::\s*Mutex|std\s*::\s*mutex)\s+(\w+)\s*;"
)
MANUAL_LOCK_RE = re.compile(r"\.\s*(?:lock|unlock)\s*\(\s*\)")

DECL_NAME = r"(?:check\w*|try[A-Z]\w*)"
NODISCARD_DECL_RE = re.compile(
    r"(?:virtual\s+)?"
    r"(bool|std::vector<std::string>|[A-Za-z_][\w:]*Result|"
    r"[A-Za-z_][\w:]*Report)\s+\n?\s*"
    rf"({DECL_NAME})\s*\("
)


def check_file(path):
    rel = path.relative_to(ROOT).as_posix()
    raw = path.read_text()
    raw_lines = raw.splitlines()
    clean = strip_comments_and_strings(raw)
    clean_lines = clean.splitlines()

    # raw-new
    if rel not in RAW_NEW_ALLOWED_FILES:
        for lineno, line in enumerate(clean_lines, 1):
            if NEW_RE.search(line) and not allowed(raw_lines, lineno,
                                                   "raw-new"):
                flag("raw-new", rel, lineno,
                     "raw `new`: use containers, std::make_unique, or "
                     "the kernel pools")

    # raw-getenv (env access is centralized in src/util/)
    if not rel.startswith("src/util/"):
        for lineno, line in enumerate(clean_lines, 1):
            if GETENV_RE.search(line) and not allowed(
                    raw_lines, lineno, "raw-getenv"):
                flag("raw-getenv", rel, lineno,
                     "direct getenv: use util::envString / "
                     "util::envU64 (src/util/env.hpp)")

    # hot-path-deque (ring tick + protocol engine directories)
    if rel.startswith("src/ring/") or rel.startswith("src/core/"):
        for lineno, line in enumerate(clean_lines, 1):
            if DEQUE_RE.search(line) and not allowed(
                    raw_lines, lineno, "hot-path-deque"):
                flag("hot-path-deque", rel, lineno,
                     "std::deque on a hot path: use core::FlatQueue "
                     "(src/core/flat_queue.hpp)")

    # unordered-iteration
    unordered_names = set(UNORDERED_DECL_RE.findall(clean))
    if unordered_names:
        for lineno, line in enumerate(clean_lines, 1):
            names = set()
            for m in RANGE_FOR_RE.finditer(line):
                names.add(m.group(1).split(".")[-1].split("->")[-1])
            for m in ITER_CALL_RE.finditer(line):
                names.add(m.group(1))
            hits = names & unordered_names
            if hits and not allowed(raw_lines, lineno,
                                    "unordered-iteration"):
                flag("unordered-iteration", rel, lineno,
                     f"iterating unordered container "
                     f"'{sorted(hits)[0]}': order is nondeterministic; "
                     f"use an ordered structure or collect-and-sort")

    # naked-thread (thread ownership is centralized)
    if rel not in THREAD_ALLOWED_FILES:
        for lineno, line in enumerate(clean_lines, 1):
            if THREAD_RE.search(line) and not allowed(
                    raw_lines, lineno, "naked-thread"):
                flag("naked-thread", rel, lineno,
                     "naked std::thread: use ExperimentRunner's pool "
                     "or service::ConnectionRegistry")
    for lineno, line in enumerate(clean_lines, 1):
        if DETACH_RE.search(line) and not allowed(
                raw_lines, lineno, "naked-thread"):
            flag("naked-thread", rel, lineno,
                 ".detach(): detached threads outlive their "
                 "owner; join through a registry instead")

    # unguarded-mutex (a mutex must guard annotated data)
    if rel not in MUTEX_WRAPPER_FILES:
        guards = set(re.findall(r"GUARDED_BY\(\s*(\w+)\s*\)", clean))
        for m in MUTEX_MEMBER_RE.finditer(clean):
            name = m.group(1)
            lineno = clean.count("\n", 0, m.start()) + 1
            if name in guards:
                continue
            if allowed(raw_lines, lineno, "unguarded-mutex"):
                continue
            flag("unguarded-mutex", rel, lineno,
                 f"mutex member '{name}' has no sibling "
                 f"GUARDED_BY({name}) member in this file "
                 f"(src/core/thread_annotations.hpp)")

    # manual-mutex-lock (hold scopes are RAII + annotations only)
    if rel not in MUTEX_WRAPPER_FILES:
        for lineno, line in enumerate(clean_lines, 1):
            if MANUAL_LOCK_RE.search(line) and not allowed(
                    raw_lines, lineno, "manual-mutex-lock"):
                flag("manual-mutex-lock", rel, lineno,
                     "manual .lock()/.unlock(): use core::MutexLock "
                     "or core::UniqueLock scopes")

    # nodiscard (headers only; declarations carry the contract)
    if path.suffix == ".hpp":
        for m in NODISCARD_DECL_RE.finditer(clean):
            lineno = clean.count("\n", 0, m.start()) + 1
            window_start = max(0, m.start() - 120)
            window = clean[window_start:m.start()]
            if "[[nodiscard]]" in window:
                continue
            if allowed(raw_lines, lineno, "nodiscard"):
                continue
            flag("nodiscard", rel, lineno,
                 f"'{m.group(2)}' returns {m.group(1)} but is not "
                 f"[[nodiscard]]")


def main():
    targets = sys.argv[1:]
    if targets:
        files = [Path(t).resolve() for t in targets]
        files = [f for f in files if f.suffix in (".hpp", ".cpp")]
    else:
        files = []
        for d in SCAN_DIRS:
            files.extend(sorted((ROOT / d).rglob("*.hpp")))
            files.extend(sorted((ROOT / d).rglob("*.cpp")))
    for f in files:
        if f.exists():
            check_file(f)
    for msg in findings:
        print(msg)
    if findings:
        print(f"{len(findings)} lint finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
