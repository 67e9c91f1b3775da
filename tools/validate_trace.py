#!/usr/bin/env python3
"""Validates a solver trace against the schemas in docs/observability.md.

Usage: validate_trace.py <trace.jsonl> [--min-workers=N]
       validate_trace.py --lp <trace.jsonl>
       validate_trace.py --chrome <profile.json> [--require=name,name,...]

Default (JSONL) mode checks, in order:
  * every line is a JSON object with the common keys (t, type, worker);
  * the event type is one of the documented types — unknown types FAIL, so a
    new EventType cannot ship without a schema/doc update;
  * every type-specific required key is present with the right JSON type
    (numeric payloads may be null, the encoding of non-finite doubles);
  * timestamps are non-decreasing (the merge sorts) and non-negative;
  * exactly one solve_start and at most one solve_end;
  * node, incumbent events are present, and with --min-workers=2 (the CI
    setting for a parallel solve) steal events and >= N distinct workers.

--lp mode validates an LP-relaxation trace (`milp_solve --lp-relaxation`):
the same per-line checks, then exactly one solve_start and one solve_end
and no tree events (node_open, node_close, incumbent, steal): one LP solve
has no search tree.

--chrome mode validates the span profiler's Chrome trace-event export
(`milp_solve --profile-json`, obs/span.hpp):
  * top-level object with a `traceEvents` array and `otherData.spans_dropped`;
  * every event is `ph` "M" (metadata) or "X" (complete span) with the
    documented keys and types; ts/dur are non-negative microseconds;
  * per tid, spans are properly nested — a span never half-overlaps an
    enclosing one (within a 1 us float tolerance);
  * `--require=encode,solve,...` additionally demands each named span occur.

Exit code 0 on success, 1 on any violation (first violation is reported with
its line number), 2 on usage errors.
"""
import json
import sys

# type -> {key: allowed JSON types}; every event also carries t/type/worker.
NUMBER = (int, float)
NULLABLE_NUMBER = (int, float, type(None))
SCHEMA = {
    "solve_start": {"workers": NUMBER},
    "phase": {"phase": (str,)},
    "node_open": {"node": (int,), "parent_bound": NULLABLE_NUMBER},
    "node_close": {"node": (int,), "outcome": (str,), "bound": NULLABLE_NUMBER},
    "bound": {"bound": NULLABLE_NUMBER},
    "incumbent": {"node": (int,), "objective": NULLABLE_NUMBER},
    "steal": {"node": (int,), "victim": (int,)},
    "refactor": {},
    "dual_repair": {},
    "cold_restart": {},
    "recover": {"node": (int,), "rung": (str,)},
    "checkpoint": {"open": (int,)},
    "solve_end": {"objective": NULLABLE_NUMBER},
}
PHASES = {"presolve", "root_lp", "heuristic", "tree", "extract"}
OUTCOMES = {"branched", "integer", "infeasible", "pruned", "cutoff", "limit",
            "requeued", "abandoned"}
RUNGS = {"tighten", "cold", "requeue", "abandon"}


def fail(lineno, msg):
    print(f"FAIL line {lineno}: {msg}", file=sys.stderr)
    return 1


TREE_EVENTS = ("node_open", "node_close", "incumbent", "steal")


def validate(path, min_workers, lp=False):
    counts = {}
    workers = set()
    prev_t = -1.0
    lineno = 0
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                e = json.loads(raw)
            except json.JSONDecodeError as exc:
                return fail(lineno, f"not valid JSON: {exc}")
            if not isinstance(e, dict):
                return fail(lineno, "not a JSON object")
            for key, kinds in (("t", NUMBER), ("type", (str,)), ("worker", (int,))):
                if not isinstance(e.get(key), kinds):
                    return fail(lineno, f"missing or mistyped common key '{key}'")
            etype = e["type"]
            if etype not in SCHEMA:
                return fail(lineno, f"unknown event type '{etype}'")
            for key, kinds in SCHEMA[etype].items():
                if key not in e:
                    return fail(lineno, f"'{etype}' missing key '{key}'")
                if not isinstance(e[key], kinds):
                    return fail(lineno, f"'{etype}' key '{key}' has wrong type")
            extra = set(e) - {"t", "type", "worker"} - set(SCHEMA[etype])
            if extra:
                return fail(lineno, f"'{etype}' has undocumented keys {sorted(extra)}")
            if etype == "phase" and e["phase"] not in PHASES:
                return fail(lineno, f"unknown phase '{e['phase']}'")
            if etype == "node_close" and e["outcome"] not in OUTCOMES:
                return fail(lineno, f"unknown outcome '{e['outcome']}'")
            if etype == "recover" and e["rung"] not in RUNGS:
                return fail(lineno, f"unknown recover rung '{e['rung']}'")
            if e["t"] < 0:
                return fail(lineno, "negative timestamp")
            if e["t"] < prev_t:
                return fail(lineno, "timestamps not sorted")
            prev_t = e["t"]
            counts[etype] = counts.get(etype, 0) + 1
            workers.add(e["worker"])

    if lineno == 0:
        return fail(0, "empty trace")
    if counts.get("solve_start", 0) != 1:
        return fail(lineno, f"expected exactly 1 solve_start, got {counts.get('solve_start', 0)}")
    if counts.get("solve_end", 0) > 1:
        return fail(lineno, f"expected at most 1 solve_end, got {counts['solve_end']}")
    if lp:
        if counts.get("solve_end", 0) != 1:
            return fail(lineno, "LP trace: expected exactly 1 solve_end, got 0")
        for tree in TREE_EVENTS:
            if counts.get(tree, 0) != 0:
                return fail(lineno, f"LP trace has {tree} events")
    for required in () if lp else ("node_open", "node_close", "incumbent"):
        if counts.get(required, 0) == 0:
            return fail(lineno, f"no {required} events")
    if len(workers) < min_workers:
        return fail(lineno, f"events from {len(workers)} worker(s), need >= {min_workers}")
    if min_workers >= 2 and counts.get("steal", 0) == 0:
        return fail(lineno, "parallel trace has no steal events")

    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"OK {path}: {sum(counts.values())} events, "
          f"{len(workers)} workers ({summary})")
    return 0


# Chrome trace-event validation (the span profiler's --profile-json export).

NESTING_EPS_US = 1.0  # float formatting tolerance for end-time comparisons


def chrome_fail(idx, msg):
    print(f"FAIL event {idx}: {msg}", file=sys.stderr)
    return 1


def validate_chrome(path, require):
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    if not isinstance(data, dict) or not isinstance(data.get("traceEvents"), list):
        print(f"FAIL: {path}: no traceEvents array", file=sys.stderr)
        return 1
    dropped = data.get("otherData", {}).get("spans_dropped")
    if not isinstance(dropped, int) or dropped < 0:
        print(f"FAIL: {path}: otherData.spans_dropped missing or invalid",
              file=sys.stderr)
        return 1

    spans = []  # (ts, dur, tid, name, idx)
    names = set()
    tids = set()
    for idx, e in enumerate(data["traceEvents"]):
        if not isinstance(e, dict):
            return chrome_fail(idx, "not a JSON object")
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") not in ("process_name", "thread_name"):
                return chrome_fail(idx, f"unknown metadata '{e.get('name')}'")
            if not isinstance(e.get("args"), dict) or "name" not in e["args"]:
                return chrome_fail(idx, "metadata without args.name")
            continue
        if ph != "X":
            return chrome_fail(idx, f"unknown phase '{ph}' (want M or X)")
        for key, kinds in (("name", (str,)), ("cat", (str,)),
                           ("ts", NUMBER), ("dur", NUMBER),
                           ("pid", (int,)), ("tid", (int,))):
            if not isinstance(e.get(key), kinds):
                return chrome_fail(idx, f"missing or mistyped key '{key}'")
        if e["ts"] < 0 or e["dur"] < 0:
            return chrome_fail(idx, "negative ts/dur")
        args = e.get("args")
        if not isinstance(args, dict) or not isinstance(args.get("depth"), int) \
                or args["depth"] < 0:
            return chrome_fail(idx, "missing or invalid args.depth")
        spans.append((e["ts"], e["dur"], e["tid"], e["name"], idx))
        names.add(e["name"])
        tids.add(e["tid"])

    if not spans:
        print(f"FAIL: {path}: no span (ph=X) events", file=sys.stderr)
        return 1
    missing = sorted(set(require) - names)
    if missing:
        print(f"FAIL: {path}: required spans absent: {', '.join(missing)}",
              file=sys.stderr)
        return 1

    # Proper nesting per thread lane: walking spans in start order with a
    # stack of enclosing end times, a span that starts inside its parent must
    # also end inside it. Half-overlap would render as garbage in Perfetto.
    by_tid = {}
    for s in sorted(spans):
        by_tid.setdefault(s[2], []).append(s)
    for tid, lane in by_tid.items():
        stack = []  # end times of open ancestors
        for ts, dur, _, name, idx in lane:
            while stack and ts >= stack[-1] - NESTING_EPS_US:
                stack.pop()
            if stack and ts + dur > stack[-1] + NESTING_EPS_US:
                return chrome_fail(
                    idx, f"span '{name}' (tid {tid}) half-overlaps its parent")
            stack.append(ts + dur)

    print(f"OK {path}: {len(spans)} spans, {len(tids)} worker lane(s), "
          f"{len(names)} distinct names, {dropped} dropped")
    return 0


def main(argv):
    min_workers = 1
    chrome = False
    lp = False
    require = []
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--min-workers="):
            min_workers = int(arg.split("=", 1)[1])
        elif arg == "--chrome":
            chrome = True
        elif arg == "--lp":
            lp = True
        elif arg.startswith("--require="):
            require = [n for n in arg.split("=", 1)[1].split(",") if n]
        elif arg.startswith("-"):
            print(f"unknown option: {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    if require and not chrome:
        print("--require only applies to --chrome mode", file=sys.stderr)
        return 2
    if chrome and lp:
        print("--lp and --chrome are separate modes", file=sys.stderr)
        return 2
    if chrome:
        return validate_chrome(paths[0], require)
    return validate(paths[0], min_workers, lp)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
