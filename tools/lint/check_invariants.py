#!/usr/bin/env python3
"""Project-specific invariant lint for the MobiCeal tree.

The compiler (and clang's -Wthread-safety) prove lock discipline; this pass
enforces the repo rules a compiler cannot see. Every finding carries a rule
id; a line can opt out with an inline marker stating a reason:

    some_call();  // lint:allow <rule-id> <why this is safe here>

Rules (see README "Static analysis" for the policy):

  wall-clock     src/ is a virtual-time simulation: wall-clock sources
                 (std::chrono clocks, time(), gettimeofday, ...) in timed
                 paths make results nondeterministic and silently weaken
                 the _adv deniability canaries.
  raw-rand       rand()/srand()/std::random_device/raw mt19937 bypass the
                 seeded util::Rng / crypto::SecureRandom plumbing, breaking
                 replay determinism.
  unordered-iter Iterating (or popping begin() of) std::unordered_map/set
                 feeds standard-library hash layout into I/O or timing
                 order. Point lookups are fine; ordered traversal must use
                 deterministic containers.
  sync-types     Locking in src/ uses the annotated util::Mutex /
                 util::MutexLock / util::CondVar (util/sync.hpp) so clang's
                 thread-safety analysis sees every lock; raw std::mutex /
                 std::lock_guard / std::condition_variable are invisible
                 to it.
  adapter-route  Scheme adapters (src/api/adapters/*) must stack their
                 backing device via api::stack_device_for — direct
                 read_blocks/write_blocks on a raw backing device bypasses
                 striping/cache/crypt wiring and the knob plumbing.
  adapter-reg    Every scheme adapter translation unit self-registers a
                 SchemeRegistrar, so registry-driven benches and the
                 security game cover it automatically.
  baseline-schema  Committed bench/baselines/*.json must parse, name the
                 bench their filename claims, record workload_mb, and carry
                 numeric values for every knob key bench_compare.py guards
                 (the CONFIG_KEYS list is read out of bench_compare.py so
                 the two can never drift apart).
  knob-docs      Every knob in the api::StackConfig registry must appear in
                 the knob tables of README.md AND docs/ARCHITECTURE.md (a
                 markdown table row carrying the backticked flag), and every
                 flag those tables document must exist in the registry. The
                 registry is parsed out of src/api/stack_config.cpp, so the
                 docs cannot drift from the code in either direction.
  shard-encap    The thin-pool allocator's state (the bitmap words, the
                 per-shard free counts, the txn ledgers) lives inside
                 thin::ShardedBitmap (src/thin/alloc_shard.hpp) and is only
                 coherent under the shard locks. Direct member access from
                 the rest of src/thin/ reintroduces the unlocked bitmap
                 walks the sharding refactor removed.
  knob-registry  Stack tuning knobs are declared exactly once, in the
                 api::StackConfig registry (src/api/stack_config.cpp).
                 Ad-hoc getenv() reads or bench_knob_* helpers anywhere in
                 src/bench/examples/tests fork the knob surface: the flag,
                 the env var and the struct field drift apart. Bench-run
                 controls (JSON output path, workload size/reps) in
                 bench/harness.cpp and the wall-clock crypto worker count
                 in src/crypto/crypto_pool.cpp are exempt — they tune the
                 run, not the simulated stack.
  async-hooks-paired
                 A class in src/ or tests/ that derives BlockDevice directly
                 and overrides do_submit or do_drain must also override
                 do_wait_until and completion_cutoff; otherwise wait_until()
                 and polling stop at this layer and never reach the timed
                 device below. Single-lower wrappers derive
                 blockdev::ForwardingDevice, which forwards every hook.

Stdlib-only; runs from ctest and CI:  python3 tools/lint/check_invariants.py
Exit status is the number of findings (0 = clean).
"""

import argparse
import json
import os
import re
import sys

ALLOW_RE = re.compile(r"(?://|#)\s*lint:allow\s+(?P<rule>[\w-]+)\s+\S")

# ---- line-pattern rules ------------------------------------------------------

WALL_CLOCK_PATTERNS = [
    r"std::chrono::(system|steady|high_resolution)_clock",
    r"\bgettimeofday\s*\(",
    r"\bclock_gettime\s*\(",
    r"\bstd::time\s*\(",
    r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)",
    r"\b(localtime|gmtime)(_r)?\s*\(",
]

RAW_RAND_PATTERNS = [
    r"\bstd::rand\s*\(",
    r"(?<![\w:])s?rand\s*\(",
    r"\bstd::random_device\b",
    r"\bstd::mt19937(_64)?\b",
    r"\barc4random",
]

SYNC_TYPE_PATTERNS = [
    r"\bstd::mutex\b",
    r"\bstd::recursive_mutex\b",
    r"\bstd::shared_mutex\b",
    r"\bstd::lock_guard\b",
    r"\bstd::scoped_lock\b",
    r"\bstd::condition_variable(_any)?\b",
]
# util/sync.hpp wraps the std primitives by design; thread_annotations.hpp
# documents them.
SYNC_TYPE_EXEMPT_FILES = {
    os.path.join("util", "sync.hpp"),
    os.path.join("util", "thread_annotations.hpp"),
}

ADAPTER_IO_PATTERNS = [r"(->|\.)\s*(read_blocks|write_blocks)\s*\("]

# Allocator-internal member names: the trailing lookahead keeps public
# accessors (txn_allocated_count) and unrelated fields (geom_.bitmap_blocks)
# out of scope — only the bare member token fires.
SHARD_ENCAP_PATTERNS = [
    r"\b(bitmap_|free_chunks_|txn_allocated_|txn_freed_)"
    r"(?![A-Za-z0-9_])",
]
SHARD_ENCAP_TREE = os.path.join("src", "thin")
SHARD_ENCAP_OWNER = os.path.join("src", "thin", "alloc_shard.hpp")

KNOB_REGISTRY_PATTERNS = [r"\bgetenv\s*\(", r"\bbench_knob\w*\s*\("]
# The registry itself, plus the two legitimate non-stack getenv sites (see
# the knob-registry rule text above).
KNOB_REGISTRY_EXEMPT_FILES = {
    os.path.join("src", "api", "stack_config.cpp"),
    os.path.join("src", "crypto", "crypto_pool.cpp"),
    os.path.join("bench", "harness.cpp"),
}
KNOB_REGISTRY_TREES = ("src", "bench", "examples", "tests")

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*&?\s*"
    r"(?P<name>\w+)\s*[;({=]")
UNORDERED_TYPE_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"{loc}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line):
    """Best-effort removal of // comments and string/char literals so the
    pattern rules don't fire on prose or log text."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            i += 1
            out.append(quote + quote)  # keep an empty literal as a token
            continue
        out.append(c)
        i += 1
    return "".join(out)


def allowed(rule, raw_line):
    m = ALLOW_RE.search(raw_line)
    return m is not None and m.group("rule") == rule


def iter_source_files(root, subdir, exts=(".cpp", ".hpp", ".h", ".cc")):
    base = os.path.join(root, subdir)
    for dirpath, _, files in sorted(os.walk(base)):
        for f in sorted(files):
            if f.endswith(exts):
                yield os.path.join(dirpath, f)


def rel(root, path):
    return os.path.relpath(path, root)


# ---- src/ rules --------------------------------------------------------------

def check_src_file(root, path, findings):
    with open(path, encoding="utf-8") as f:
        raw_lines = f.read().splitlines()

    relpath = rel(root, path)
    rel_to_src = os.path.relpath(path, os.path.join(root, "src"))
    unordered_names = set()

    for lineno, raw in enumerate(raw_lines, 1):
        code = strip_comments_and_strings(raw)
        for pat in WALL_CLOCK_PATTERNS:
            if re.search(pat, code) and not allowed("wall-clock", raw):
                findings.append(Finding(
                    relpath, lineno, "wall-clock",
                    "wall-clock time source in virtual-time code: "
                    "timed paths must draw time from util::SimClock"))
        for pat in RAW_RAND_PATTERNS:
            if re.search(pat, code) and not allowed("raw-rand", raw):
                findings.append(Finding(
                    relpath, lineno, "raw-rand",
                    "unseeded/global randomness: use util::Rng or "
                    "crypto::SecureRandom (replay determinism)"))
        for pat in SYNC_TYPE_PATTERNS:
            if (re.search(pat, code)
                    and rel_to_src not in SYNC_TYPE_EXEMPT_FILES
                    and not allowed("sync-types", raw)):
                findings.append(Finding(
                    relpath, lineno, "sync-types",
                    "raw std synchronisation primitive: use the annotated "
                    "util::Mutex/MutexLock/CondVar so -Wthread-safety "
                    "sees the lock"))

        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group("name"))

    # Second pass: ordered traversal of unordered containers declared in
    # this file (range-for, .begin(), ->begin()).
    for lineno, raw in enumerate(raw_lines, 1):
        code = strip_comments_and_strings(raw)
        for name in unordered_names:
            range_for = re.search(
                r"for\s*\([^;)]*:\s*\*?" + re.escape(name) + r"\s*\)", code)
            begin = re.search(
                re.escape(name) + r"\s*(\.|->)\s*(c?begin|c?rbegin)\s*\(",
                code)
            if (range_for or begin) and not allowed("unordered-iter", raw):
                findings.append(Finding(
                    relpath, lineno, "unordered-iter",
                    f"ordered traversal of unordered container '{name}': "
                    "iteration order is stdlib hash layout — use a "
                    "deterministic container or an explicit sort"))


# ---- adapter rules -----------------------------------------------------------

def check_adapters(root, findings):
    adapters_dir = os.path.join(root, "src", "api", "adapters")
    if not os.path.isdir(adapters_dir):
        return
    for path in iter_source_files(root, os.path.join("src", "api",
                                                     "adapters"),
                                  exts=(".cpp",)):
        # Translation units with a sibling header are shared infrastructure
        # (e.g. the FooterTranslatorScheme base), not scheme adapters.
        if os.path.exists(path[:-len(".cpp")] + ".hpp"):
            continue
        relpath = rel(root, path)
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        text = "\n".join(strip_comments_and_strings(l) for l in raw_lines)

        for lineno, raw in enumerate(raw_lines, 1):
            code = strip_comments_and_strings(raw)
            for pat in ADAPTER_IO_PATTERNS:
                if re.search(pat, code) and not allowed("adapter-route", raw):
                    findings.append(Finding(
                        relpath, lineno, "adapter-route",
                        "direct block I/O in a scheme adapter: devices "
                        "must be stacked via api::stack_device_for so "
                        "striping/cache/crypt knobs apply"))

        if ("stack_device_for" not in text
                and "FooterTranslatorScheme" not in text):
            findings.append(Finding(
                relpath, 0, "adapter-route",
                "adapter never routes its backing device through "
                "api::stack_device_for (directly or via "
                "FooterTranslatorScheme)"))
        if "SchemeRegistrar" not in text:
            findings.append(Finding(
                relpath, 0, "adapter-reg",
                "adapter does not self-register a SchemeRegistrar: "
                "registry-driven benches and the security game will "
                "silently skip it"))


# ---- allocator encapsulation -------------------------------------------------

def check_shard_encapsulation(root, findings):
    tree = os.path.join(root, SHARD_ENCAP_TREE)
    if not os.path.isdir(tree):
        return
    for path in iter_source_files(root, SHARD_ENCAP_TREE):
        relpath = rel(root, path)
        if relpath == SHARD_ENCAP_OWNER:
            continue
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        for lineno, raw in enumerate(raw_lines, 1):
            code = strip_comments_and_strings(raw)
            for pat in SHARD_ENCAP_PATTERNS:
                if re.search(pat, code) and not allowed("shard-encap", raw):
                    findings.append(Finding(
                        relpath, lineno, "shard-encap",
                        "direct access to allocator-internal state: the "
                        "bitmap/free-count/txn-ledger members are only "
                        "coherent under their shard lock — go through "
                        "thin::ShardedBitmap's API (alloc_shard.hpp)"))


# ---- knob registry -----------------------------------------------------------

def check_knob_registry(root, findings):
    for tree in KNOB_REGISTRY_TREES:
        for path in iter_source_files(root, tree):
            relpath = rel(root, path)
            if relpath in KNOB_REGISTRY_EXEMPT_FILES:
                continue
            with open(path, encoding="utf-8") as f:
                raw_lines = f.read().splitlines()
            for lineno, raw in enumerate(raw_lines, 1):
                code = strip_comments_and_strings(raw)
                for pat in KNOB_REGISTRY_PATTERNS:
                    if re.search(pat, code) and not allowed("knob-registry",
                                                           raw):
                        findings.append(Finding(
                            relpath, lineno, "knob-registry",
                            "ad-hoc knob plumbing: stack knobs are declared "
                            "once in the api::StackConfig registry "
                            "(src/api/stack_config.cpp) — use "
                            "StackConfig::apply_knobs / is_knob_flag"))


# ---- knob documentation ------------------------------------------------------

KNOB_DOC_FILES = ("README.md", os.path.join("docs", "ARCHITECTURE.md"))
# One kKnobs entry: {"--flag", "MOBICEAL_ENV", ...}
KNOB_ENTRY_RE = re.compile(r'\{\s*"(--[\w-]+)"\s*,\s*"(MOBICEAL_\w+)"')
# A documented knob: a markdown table row starting with the backticked flag,
# optionally followed by an argument placeholder (`--queue-depth N`,
# `--cache-writeback 0\|1`).
DOC_KNOB_ROW_RE = re.compile(r"^\s*\|\s*`(--[\w-]+)(?:[ =][^`]*)?`")


def read_registry_knobs(root):
    """(flag, env) pairs straight out of the kKnobs table in
    src/api/stack_config.cpp — the single source of truth for knobs."""
    path = os.path.join(root, "src", "api", "stack_config.cpp")
    if not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8") as f:
        return KNOB_ENTRY_RE.findall(f.read())


def check_knob_docs(root, findings):
    # No parseable registry: nothing to drift (fixture trees). The unit
    # tests pin the regex against the real tree, so silent rot is caught.
    registry = read_registry_knobs(root)
    if not registry:
        return
    registry_flags = {flag for flag, _ in registry}
    for doc in KNOB_DOC_FILES:
        path = os.path.join(root, doc)
        if not os.path.isfile(path):
            findings.append(Finding(
                doc, 0, "knob-docs",
                "knob-table document missing: the StackConfig registry is "
                "documented in README.md and docs/ARCHITECTURE.md"))
            continue
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        documented = {}
        for lineno, line in enumerate(lines, 1):
            m = DOC_KNOB_ROW_RE.match(line)
            if m:
                documented.setdefault(m.group(1), lineno)
        for flag, env in registry:
            if flag not in documented:
                findings.append(Finding(
                    doc, 0, "knob-docs",
                    f"knob {flag} ({env}) is in the StackConfig registry "
                    "but missing from this file's knob table"))
        for flag, lineno in sorted(documented.items()):
            if flag not in registry_flags:
                findings.append(Finding(
                    doc, lineno, "knob-docs",
                    f"knob table documents {flag}, which is not in the "
                    "StackConfig registry (removed or misspelled)"))


# ---- bench baseline schema ---------------------------------------------------

def read_config_keys(root):
    """CONFIG_KEYS straight out of tools/bench_compare.py — one source of
    truth for the knob schema."""
    path = os.path.join(root, "tools", "bench_compare.py")
    with open(path, encoding="utf-8") as f:
        src = f.read()
    m = re.search(r"CONFIG_KEYS\s*=\s*\(([^)]*)\)", src)
    if not m:
        raise RuntimeError("CONFIG_KEYS tuple not found in bench_compare.py")
    keys = [a or b for a, b in
            re.findall(r"\"([^\"]+)\"|'([^']+)'", m.group(1))]
    if not keys:
        raise RuntimeError("CONFIG_KEYS tuple in bench_compare.py is empty")
    return tuple(keys)


METRIC_SUFFIXES = ("_kbps", "_mbps", "_s", "_ns", "_adv")


def check_baselines(root, findings):
    baselines_dir = os.path.join(root, "bench", "baselines")
    if not os.path.isdir(baselines_dir):
        return
    config_keys = read_config_keys(root)
    for fname in sorted(os.listdir(baselines_dir)):
        if not fname.endswith(".json"):
            continue
        relpath = rel(root, os.path.join(baselines_dir, fname))
        try:
            with open(os.path.join(baselines_dir, fname),
                      encoding="utf-8") as f:
                doc = json.load(f)
        except json.JSONDecodeError as e:
            findings.append(Finding(relpath, 0, "baseline-schema",
                                    f"invalid JSON: {e}"))
            continue
        if not fname.startswith("BENCH_"):
            findings.append(Finding(
                relpath, 0, "baseline-schema",
                "baseline files are named BENCH_<name>.json"))
            continue
        expected_bench = fname[len("BENCH_"):-len(".json")]
        if doc.get("bench") != expected_bench:
            findings.append(Finding(
                relpath, 0, "baseline-schema",
                f"bench field {doc.get('bench')!r} does not match filename "
                f"(expected {expected_bench!r}) — directory-mode pairing "
                "in bench_compare.py keys on the name"))
        metrics = doc.get("metrics")
        if not isinstance(metrics, dict):
            findings.append(Finding(relpath, 0, "baseline-schema",
                                    "missing metrics object"))
            continue
        # Throughput is a rate: comparing it without pinning the workload
        # size is meaningless, so any _kbps/_mbps baseline must record
        # workload_mb. Latency tables and _adv canaries have no workload.
        has_throughput = any(k.endswith(("_kbps", "_mbps")) for k in metrics)
        if has_throughput and "workload_mb" not in metrics:
            findings.append(Finding(
                relpath, 0, "baseline-schema",
                "throughput baseline records no workload_mb: "
                "bench_compare.py cannot guard against cross-workload "
                "comparisons"))
        for key, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                findings.append(Finding(
                    relpath, 0, "baseline-schema",
                    f"metric {key!r} is not numeric"))
        for key in config_keys:
            if key in metrics and not isinstance(metrics[key], (int, float)):
                findings.append(Finding(
                    relpath, 0, "baseline-schema",
                    f"knob {key!r} must be numeric"))


# ---- async hook pairing ------------------------------------------------------

ASYNC_HOOK_TREES = ("src", "tests")
# `class Foo final : public blockdev::BlockDevice {` — the base list runs to
# the opening brace; a direct BlockDevice base is one of its entries.
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?P<name>\w+)\s*(?:final\s*)?:"
    r"(?P<bases>[^{;]*)\{")
DIRECT_BLOCKDEVICE_RE = re.compile(
    r"^\s*(?:public|protected|private)?\s*(?:virtual\s+)?"
    r"(?:[\w:]*::)?BlockDevice\s*$")
ASYNC_TRIGGER_HOOKS = ("do_submit", "do_drain")
ASYNC_PAIRED_HOOKS = ("do_wait_until", "completion_cutoff")


def class_body(code, open_brace):
    """Text between the class's opening brace and its matching close."""
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return code[open_brace + 1:i]
    return code[open_brace + 1:]


def overrides(body, hook):
    return re.search(r"\b" + hook + r"\s*\([^;{]*\boverride\b", body)


def check_async_hooks(root, findings):
    for tree in ASYNC_HOOK_TREES:
        for path in iter_source_files(root, tree):
            relpath = rel(root, path)
            with open(path, encoding="utf-8") as f:
                raw_lines = f.read().splitlines()
            code = "\n".join(strip_comments_and_strings(l) for l in raw_lines)
            for m in CLASS_HEAD_RE.finditer(code):
                bases = m.group("bases").split(",")
                if not any(DIRECT_BLOCKDEVICE_RE.match(b) for b in bases):
                    continue
                lineno = code.count("\n", 0, m.start()) + 1
                if allowed("async-hooks-paired", raw_lines[lineno - 1]):
                    continue
                body = class_body(code, m.end() - 1)
                if not any(overrides(body, h) for h in ASYNC_TRIGGER_HOOKS):
                    continue
                missing = [h for h in ASYNC_PAIRED_HOOKS
                           if not overrides(body, h)]
                if missing:
                    findings.append(Finding(
                        relpath, lineno, "async-hooks-paired",
                        f"{m.group('name')} overrides do_submit/do_drain but "
                        f"not {' or '.join(missing)}: wait_until() and "
                        "polling stop at this layer — override them too, or "
                        "derive blockdev::ForwardingDevice"))


# ---- driver ------------------------------------------------------------------

def run(root):
    findings = []
    for path in iter_source_files(root, "src"):
        check_src_file(root, path, findings)
    check_adapters(root, findings)
    check_shard_encapsulation(root, findings)
    check_knob_registry(root, findings)
    check_knob_docs(root, findings)
    check_baselines(root, findings)
    check_async_hooks(root, findings)
    return findings


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels up from this file)")
    args = ap.parse_args()
    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))

    findings = run(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"check_invariants: {len(findings)} finding(s)")
        return min(len(findings), 125)
    print("check_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
