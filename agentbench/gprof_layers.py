"""Bucket a gprof profile of the simulator by src/ layer.

The flat profile gives each function's self time; the call graph gives
the caller -> callee arcs with their exact call counts and the time
gprof propagates along them. A function's layer is the namespace under
``agentsim::`` that defines it (``agentsim::kv::BlockManager::release``
is ``kv``). Library code (``std::`` templates such as the hash tables
and trees the layers use) is charged to the layer that called it, split
by call counts; code with no recorded caller (libc, the allocator) stays
in the ``std`` bucket.

    gprof -b -p -q BINARY gmon.out | python3 gprof_layers.py
"""

import re
import sys

LAYERS = ("sim", "kv", "serving", "llm", "agents", "workload", "tools",
          "telemetry", "core", "stats", "energy")
UNATTRIBUTED = "std"

# Profiler bookkeeping, not program time.
PROFILER_SYMBOLS = {"mcount", "_mcount", "__mcount_internal",
                    "__profile_frequency"}

# Inclusive-time groups: name -> qualified-name prefixes (a trailing
# "::" matches a whole class).
INCLUSIVE = {
    "kv.allocatePrompt": ("agentsim::kv::BlockManager::allocatePrompt",),
    "kv.appendToken": ("agentsim::kv::BlockManager::appendToken",),
    "kv.release": ("agentsim::kv::BlockManager::release",),
    "kv.spill": ("agentsim::kv::BlockManager::spillToTier",
                 "agentsim::kv::BlockManager::parkChain",
                 "agentsim::kv::BlockManager::prefetchChain"),
    "kv.checkInvariants": ("agentsim::kv::BlockManager::checkInvariants",),
    "serving.buildStep": ("agentsim::serving::LlmEngine::buildStep",),
    "serving.commitStep": ("agentsim::serving::LlmEngine::commitStep",),
    "llm.perfModel": ("agentsim::llm::PerfModel::",),
    "workload.makeTokens": ("agentsim::workload::makeTokens",),
    "agents.prompt": ("agentsim::agents::PromptBuilder::",
                      "agentsim::agents::TrajectoryMemory::",
                      "agentsim::agents::EpisodicMemory::"),
    "telemetry.trace": ("agentsim::telemetry::TraceSink::",),
    "telemetry.spans": ("agentsim::telemetry::SpanCollector::",
                        "agentsim::telemetry::criticalPath"),
}

# The block-hash -> block table of kv::BlockManager (cacheTable_).
CACHE_TABLE_FIND = ("std::_Hashtable<unsigned long, std::pair<unsigned "
                    "long const, int>,")

FLAT_RE = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
                     r"(?:(\d+)\s+([\d.]+)\s+([\d.]+)\s+)?(\S.*)$")
PRIMARY_RE = re.compile(r"^\[(\d+)\]\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
                        r"(?:(\d+)(?:\+\d+)?\s+)?(.*) \[(\d+)\]$")
ARC_RE = re.compile(r"^\s+(?:([\d.]+)\s+([\d.]+)\s+)?(\d+)(?:/\d+)?\s+"
                    r"(.*) \[(\d+)\]$")
CYCLE_RE = re.compile(r" <cycle \d+>$")


def qualified(name):
    """``void ns::Cls<T>::fn(args) const`` -> ``ns::Cls::fn``."""
    name = name.replace("(anonymous namespace)", "{anon}")
    out = []
    depth = 0
    for i, ch in enumerate(name):
        if ch in "<({[":
            if ch == "(" and depth == 0:
                break
            depth += 1
        elif ch in ">)}]":
            depth -= 1
        elif depth == 0:
            if name.startswith("operator", i):
                break
            out.append(ch)
    text = "".join(out).strip().rstrip(":")
    return text.split(" ")[-1] if text else ""


def template_args(name):
    """Top-level template arguments of the first ``<...>`` in name."""
    start = name.find("<")
    args, depth, cur = [], 0, []
    for ch in name[start + 1:] if start >= 0 else "":
        if ch in "<({[":
            depth += 1
        elif ch in ">)}]":
            if depth == 0:
                args.append("".join(cur).strip())
                return args
            depth -= 1
        elif ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
            continue
        cur.append(ch)
    return args


def layer_of(name):
    """The src/ layer that defines a function, or None."""
    q = qualified(name)
    parts = q.split("::")
    if len(parts) > 1 and parts[0] == "agentsim" and parts[1] in LAYERS:
        return parts[1]
    # A std::function wrapping a lambda runs the lambda's layer.
    if q.startswith("std::_Function_handler"):
        args = template_args(name)
        if len(args) == 2:
            return layer_of(args[1])
    return None


def parse(text):
    """Flat profile self times and call-graph entries from gprof -b."""
    self_s = {}
    entries = {}   # name -> dict(idx, incl, called, parents, children)
    by_idx = {}
    section = None
    block = []
    for line in text.splitlines():
        if line.startswith("Flat profile"):
            section = "flat"
            continue
        if line.strip() == "Call graph":
            section = "graph"
            continue
        if section == "flat":
            m = FLAT_RE.match(line)
            if m and not line.lstrip().startswith("%"):
                name = CYCLE_RE.sub("", m.group(7).strip())
                self_s[name] = self_s.get(name, 0.0) + float(m.group(3))
        elif section == "graph":
            if line.startswith("-----"):
                _graph_block(block, entries, by_idx)
                block = []
            else:
                block.append(line)
    _graph_block(block, entries, by_idx)
    for e in entries.values():
        e["parents"] = [(by_idx.get(i), c) for i, c, _ in e["parents"]
                        if by_idx.get(i) not in (None, e["name"])]
        e["children"] = [(by_idx.get(i), c, t) for i, c, t in e["children"]
                         if by_idx.get(i) not in (None, e["name"])]
    return self_s, entries


def _graph_block(lines, entries, by_idx):
    primary = None
    parents, children = [], []
    for line in lines:
        m = PRIMARY_RE.match(line)
        if m:
            primary = m
            continue
        a = ARC_RE.match(line)
        if not a or a.group(1) is None:
            continue  # <spontaneous> or a recursion count
        arc = (int(a.group(5)), int(a.group(3)),
               float(a.group(1)) + float(a.group(2)))
        (children if primary else parents).append(arc)
    if primary is None:
        return
    name = CYCLE_RE.sub("", primary.group(6).strip())
    if name.startswith("<cycle"):
        return
    idx = int(primary.group(7))
    by_idx[idx] = name
    entries[name] = {
        "name": name,
        "incl": float(primary.group(3)) + float(primary.group(4)),
        "called": int(primary.group(5) or 0),
        "parents": parents,
        "children": children,
    }


def attribute(self_s, entries):
    """Self seconds per layer, library time charged to its callers."""
    memo = {}

    def shares(name, seen):
        if name in memo:
            return memo[name]
        layer = layer_of(name)
        if layer is not None:
            result = {layer: 1.0}
        else:
            parents = [(p, c) for p, c in entries.get(name, {}).get(
                "parents", []) if p not in seen]
            total = sum(c for _, c in parents)
            result = {}
            for parent, count in parents:
                for lay, frac in shares(parent, seen | {name}).items():
                    result[lay] = result.get(lay, 0.0) + frac * count / total
            if not result:
                result = {UNATTRIBUTED: 1.0}
        memo[name] = result
        return result

    layers = {lay: 0.0 for lay in LAYERS + (UNATTRIBUTED,)}
    for name, seconds in self_s.items():
        if name in PROFILER_SYMBOLS:
            continue
        for lay, frac in shares(name, frozenset()).items():
            layers[lay] += seconds * frac
    return layers


def inclusive(entries, prefixes):
    """Seconds in a set of functions and their callees, counting calls
    between members of the set once. A member that was never called
    counts for nothing: its samples are ticks that gprof charged to the
    nearest symbol, such as a split-off cold block of a neighbour."""
    def member(name):
        q = qualified(name)
        return any(q == p or (p.endswith("::") and q.startswith(p))
                   or (not p.endswith("::") and q.startswith(p + "::"))
                   for p in prefixes)

    names = [n for n in entries if member(n) and entries[n]["called"] > 0]
    total = sum(entries[n]["incl"] for n in names)
    inner = sum(t for n in names for child, _, t in entries[n]["children"]
                if member(child))
    return max(0.0, total - inner)


def calls(entries, qualified_name):
    return sum(e["called"] for n, e in entries.items()
               if qualified(n) == qualified_name)


def cache_probes(entries):
    """Calls from kv code into the block-hash table's find()."""
    return sum(count for n, e in entries.items()
               if n.startswith(CACHE_TABLE_FIND) and
               qualified(n) == "std::_Hashtable::find"
               for parent, count in e["parents"]
               if layer_of(parent) == "kv")


def profile(text):
    """Everything run.py reports from one gprof text dump."""
    self_s, entries = parse(text)
    layers = attribute(self_s, entries)
    total = sum(layers.values())
    return {
        "total_s": total,
        "self_s": layers,
        "incl_s": {k: inclusive(entries, v) for k, v in INCLUSIVE.items()},
        "calls": {
            "kv.allocatePrompt": calls(
                entries, "agentsim::kv::BlockManager::allocatePrompt"),
            "kv.cacheProbe": cache_probes(entries),
            "llm.denseFlopsPerToken": calls(
                entries, "agentsim::llm::ModelSpec::denseFlopsPerToken"),
        },
    }


if __name__ == "__main__":
    import json
    print(json.dumps(profile(sys.stdin.read()), indent=1, sort_keys=True))
