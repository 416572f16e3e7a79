#!/usr/bin/env bash
# Docs <-> code sync check, run as the CI docs-check job. Five passes:
#
#  1. Markdown link check: every relative link target in docs/, README.md,
#     EXPERIMENTS.md, DESIGN.md and ROADMAP.md must exist on disk.
#  2. Counter-name sync: every `counter_name`-style token referenced in
#     docs/OBSERVABILITY.md must appear in the names array of
#     src/common/stats.hpp (a renamed counter must update its docs).
#  3. Topology-preset sync: every preset and spec prefix documented in
#     docs/TOPOLOGY.md must exist in src/sim/topology.hpp, and vice versa —
#     a new preset cannot ship undocumented.
#  4. Config-key sync: every OMSP_CONFIG key the grammar accepts
#     (kConfigKeys in src/common/env_config.hpp) has a row in README's key
#     table, and every row names a key the grammar accepts.
#  5. One counting path, one fetch path: no file under src/ other than
#     src/trace/tracer.hpp (trace::record) calls a `.add(` or `->add(`
#     member, so every counter moves through the kind->counter table, and
#     these retired names appear nowhere under src/, tests/ or bench/: the
#     trace macros OMSP_TRACE_EVENT / OMSP_TRACE_COMPILED_OUT, the printf
#     page tracer OMSP_PTRACE with its OMSP_TRACE_PAGE / OMSP_TRACE_OFF
#     variables, and the second fetch path's kDiffFetchAsync kind and
#     async_fetch switch.
#
# Pure stdlib python3; no dependencies beyond what the CI image carries.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v python3 >/dev/null || { echo "docs_check: python3 required" >&2; exit 1; }

python3 - <<'EOF'
import os, re, sys

failures = []

# ---- 1. relative markdown links exist --------------------------------------
doc_files = ["README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md"]
doc_files += sorted("docs/" + f for f in os.listdir("docs") if f.endswith(".md"))

link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
for path in doc_files:
    text = open(path, encoding="utf-8").read()
    for target in link_re.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        rel = target.split("#")[0]
        if not rel:
            continue
        resolved = os.path.normpath(os.path.join(os.path.dirname(path), rel))
        if not os.path.exists(resolved):
            failures.append(f"{path}: broken link -> {target}")
print(f"link check: {len(doc_files)} files scanned")

# ---- 2. OBSERVABILITY.md counter names exist in stats.hpp ------------------
stats = open("src/common/stats.hpp", encoding="utf-8").read()
known = set(re.findall(r'"([a-z][a-z0-9_]*)"', stats))
# OBSERVABILITY.md also names trace event kinds (src/trace/event.hpp), which
# share the snake_case shape; those are code identifiers too, so accept them.
known |= set(re.findall(r'"([a-z][a-z0-9_]*)"',
                        open("src/trace/event.hpp", encoding="utf-8").read()))
obs = open("docs/OBSERVABILITY.md", encoding="utf-8").read()
# Counter tokens appear in backticks or table cells as snake_case words.
referenced = set(re.findall(r"\b([a-z]+(?:_[a-z0-9]+)+)\b", obs))
# Only check tokens that look like counters (match one of the known-name
# suffixes), so prose snake_case like `trace_event` is not misflagged.
counterish = {t for t in referenced if t in known or any(
    t.endswith(s) for s in ("_sent", "_recv", "_offnode", "_created",
                            "_applied", "_faults", "_acquires", "_fetches",
                            "_fetched", "_hits", "_batches", "_lost",
                            "_invalidations"))}
for t in sorted(counterish - known):
    failures.append(f"docs/OBSERVABILITY.md: counter '{t}' not in "
                    "src/common/stats.hpp names[]")
print(f"counter sync: {len(counterish & known)} documented counters verified")

# ---- 3. TOPOLOGY.md presets match topology.hpp -----------------------------
topo_hpp = open("src/sim/topology.hpp", encoding="utf-8").read()
topo_md = open("docs/TOPOLOGY.md", encoding="utf-8").read()
code_presets = set(re.findall(r"static Topology (\w+)\(", topo_hpp))
doc_presets = set(re.findall(r"Topology::(\w+)\(", topo_md))
for p in sorted(code_presets - doc_presets - {"parse"}):
    failures.append(f"src/sim/topology.hpp: preset '{p}' undocumented in "
                    "docs/TOPOLOGY.md")
# The docs also reference ordinary members as Topology::name(...); any
# callable defined in the header is fair game.
code_callables = set(re.findall(r"\b(\w+)\(", topo_hpp))
for p in sorted(doc_presets - code_callables):
    failures.append(f"docs/TOPOLOGY.md: 'Topology::{p}' does not exist in "
                    "src/sim/topology.hpp")
# Spec grammar prefixes must agree between parse() and the docs.
code_prefixes = set(re.findall(r'substr\(0, \d+\) == "(\w+):"', topo_hpp))
for p in sorted(code_prefixes):
    if f"`{p}:" not in topo_md:
        failures.append(f"docs/TOPOLOGY.md: spec prefix '{p}:' undocumented")
print(f"preset sync: {len(code_presets - {'parse'})} presets, "
      f"{len(code_prefixes)} spec prefixes verified")

# ---- 4. OMSP_CONFIG keys match README's key table --------------------------
env_hpp = open("src/common/env_config.hpp", encoding="utf-8").read()
key_block = re.search(r"kConfigKeys = \{([^}]*)\}", env_hpp)
code_keys = set(re.findall(r'"(\w+)"', key_block.group(1))) if key_block else set()
if not code_keys:
    failures.append("src/common/env_config.hpp: kConfigKeys not found")
readme = open("README.md", encoding="utf-8").read()
knobs = readme.split("## Debugging knobs", 1)[-1].split("\n## ", 1)[0]
doc_keys = set(re.findall(r"^\| `(\w+)` \|", knobs, re.M))
for k in sorted(code_keys - doc_keys):
    failures.append(f"README.md: OMSP_CONFIG key '{k}' missing from the key table")
for k in sorted(doc_keys - code_keys):
    failures.append(f"README.md: key table row '{k}' is not an OMSP_CONFIG key")
print(f"config-key sync: {len(code_keys & doc_keys)} keys verified")

# ---- 5. counters move only through trace::record ---------------------------
add_re = re.compile(r"(?:\.|->)add\(")
retired_re = re.compile(r"OMSP_TRACE_EVENT|OMSP_TRACE_COMPILED_OUT|"
                        r"OMSP_PTRACE|OMSP_TRACE_PAGE|OMSP_TRACE_OFF|"
                        r"kDiffFetchAsync|async_fetch")
scanned = 0
for top in ("src", "tests", "bench"):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            text = open(path, encoding="utf-8", errors="replace").read()
            scanned += 1
            for n, line in enumerate(text.splitlines(), 1):
                if retired_re.search(line):
                    failures.append(f"{path}:{n}: retired name "
                                    f"{retired_re.search(line).group(0)}")
                if (top == "src" and path != "src/trace/tracer.hpp"
                        and add_re.search(line)):
                    failures.append(f"{path}:{n}: direct add() call; move "
                                    "counters through trace::record")
print(f"counting path: {scanned} files scanned")

if failures:
    print("docs_check failures:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("docs_check: all green")
EOF
