"""``repro`` command-line interface.

Subcommands mirror the paper's workflow:

* ``repro characterize <app>`` — Fig. 1-style runtime statistics;
* ``repro simulate <app> [--core ... --cache ...]`` — one design point;
* ``repro sweep [--apps ...] [--out results.json]`` — the campaign;
* ``repro figure <axis> --results results.json`` — a paper figure
  (text, optionally ``--svg out.svg``);
* ``repro scaling <app>`` — Fig. 2-style scaling study;
* ``repro timeline <app>`` — Fig. 3/4-style ASCII timelines;
* ``repro serve`` — HTTP query API over a persistent content-addressed
  result store;
* ``repro query (sweep|best|delta|...)`` — client for a running server;
* ``repro sweep --shard K/N`` + ``repro merge-journal`` — split one
  campaign across processes or hosts and union the partial journals
  into one resumable, byte-stable file;
* ``repro search <app>`` — active Pareto-front search instead of an
  exhaustive sweep (range spaces with 10^5+ points);
* ``repro claims`` — the paper's Figs. 5-9 and Table II claims checked
  in fast and replay mode.

Every subcommand prints to stdout; sweeps persist a JSON
:class:`~repro.core.results.ResultSet` consumable by ``figure``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..analysis import (
    compute_region_scaling,
    format_rows,
    full_app_scaling,
    occupancy_stats,
    rank_activity_stats,
    render_core_timeline,
    render_rank_timeline,
)
from ..apps import APP_NAMES, get_app
from ..config import (
    CACHE_LABELS,
    CORE_LABELS,
    FIGURE_AXES,
    baseline_node,
    full_design_space,
    plane_design_space,
    smoke_design_space,
)
from ..core import Musa, ResultSet, run_sweep


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="MUSA reproduction: design-space exploration of "
                    "next-generation HPC machines (IPDPS 2019)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("characterize", help="Fig. 1 runtime statistics")
    c.add_argument("app", choices=APP_NAMES)
    c.add_argument("--cores", type=int, default=32)

    s = sub.add_parser("simulate", help="simulate one design point")
    s.add_argument("app", choices=APP_NAMES)
    _add_node_args(s)

    w = sub.add_parser("sweep", help="run a design-space sweep")
    w.add_argument("--apps", nargs="+", default=list(APP_NAMES),
                   choices=APP_NAMES)
    w.add_argument("--out", default="results.json")
    w.add_argument("--processes", type=int, default=None)
    w.add_argument("--mode", default="fast", choices=("fast", "replay"),
                   help="per-point integration: 'fast' analytic critical "
                        "path, or 'replay' event-driven MPI trace replay "
                        "(paper Sec. II; slower, models communication "
                        "overlap and bus contention)")
    w.add_argument("--ranks", type=int, default=256,
                   help="MPI ranks per simulated run (default 256)")
    w.add_argument("--plane", action="store_true",
                   help="only the 2 GHz / {32,64}-core plane (faster)")
    w.add_argument("--smoke", action="store_true",
                   help="tiny 8-configuration smoke space (CI)")
    w.add_argument("--resume", default=None, metavar="JOURNAL",
                   help="journal completed tasks here and skip any "
                        "already journaled (crash-safe resume)")
    w.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="write execution metrics (throughput, retries, "
                        "memo hit rate) as JSON")
    w.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-task wall-clock budget in seconds")
    w.add_argument("--retries", type=int, default=2,
                   help="retry attempts per failing task (default 2)")
    w.add_argument("--batch-size", type=int, default=256,
                   help="configs per batched evaluation (default 256)")
    w.add_argument("--profile", type=int, default=None, metavar="N",
                   help="profile the sweep with cProfile and print the "
                        "top-N cumulative hotspots; the raw stats are "
                        "written as a .prof next to --metrics-json (or "
                        "--out)")
    w.add_argument("--shard", default=None, metavar="K/N",
                   help="evaluate only every N-th task starting at K "
                        "(0-based); run one shard per process or host, "
                        "then union the journals with `repro "
                        "merge-journal`")

    mj = sub.add_parser(
        "merge-journal",
        help="union sharded sweep journals into one resumable journal")
    mj.add_argument("journals", nargs="+", metavar="JOURNAL",
                    help="partial journal files (any order)")
    mj.add_argument("--out", required=True, metavar="JOURNAL",
                    help="merged journal path (byte-stable: independent "
                         "of input order)")
    mj.add_argument("--results", default=None, metavar="JSON",
                    help="also write the merged successful records as a "
                         "ResultSet JSON")

    se = sub.add_parser(
        "search",
        help="active Pareto-front search (evaluates a fraction of the "
             "space instead of sweeping it)")
    se.add_argument("app", choices=APP_NAMES)
    se.add_argument("--range", action="store_true",
                    help="search the range-generated space (31 "
                         "frequencies x 4..252 cores, 140616 points) "
                         "instead of the 864-point paper space")
    se.add_argument("--x-metric", default="time_ns")
    se.add_argument("--y-metric", default="power_total_w")
    se.add_argument("--ranks", type=int, default=256)
    se.add_argument("--mode", default="fast", choices=("fast", "replay"))
    se.add_argument("--max-evals", type=int, default=None,
                    help="hard evaluation budget (default: 20%% of the "
                         "space)")
    se.add_argument("--budget-frac", type=float, default=0.2)
    se.add_argument("--batch-size", type=int, default=64)
    se.add_argument("--epsilon", type=float, default=0.15)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--surrogate", action="store_true",
                    help="rank candidates with the quadratic surrogate")
    se.add_argument("--store", default=None, metavar="JSONL",
                    help="stream evaluated points into this content-"
                         "addressed store (reused on later searches and "
                         "by `repro serve`)")
    se.add_argument("--out", default=None, metavar="JSON",
                    help="write every evaluated record as a ResultSet "
                         "JSON")

    f = sub.add_parser("figure", help="render a paper figure from a sweep")
    f.add_argument("axis", choices=sorted(FIGURE_AXES))
    f.add_argument("--results", default="results.json")
    f.add_argument("--metric", default="time_ns",
                   choices=("time_ns", "power_total_w", "power_core_l1_w",
                            "energy_j"))
    f.add_argument("--cores", type=int, default=64)
    f.add_argument("--svg", default=None,
                   help="also write an SVG bar chart to this path")

    g = sub.add_parser("scaling", help="Fig. 2 scaling study")
    g.add_argument("app", choices=APP_NAMES)
    g.add_argument("--ranks", type=int, default=64)

    t = sub.add_parser("timeline", help="Fig. 3/4 ASCII timelines")
    t.add_argument("app", choices=APP_NAMES)
    t.add_argument("--cores", type=int, default=64)
    t.add_argument("--ranks", type=int, default=16)
    t.add_argument("--width", type=int, default=72)

    r = sub.add_parser("recommend",
                       help="derive co-design guidelines from a sweep")
    r.add_argument("--results", default="results.json")
    r.add_argument("--cores", type=int, default=64)

    sub.add_parser("claims",
                   help="check the paper's Figs. 5-9 and Table II claims "
                        "in fast and replay mode (exit 1 if a fast-mode "
                        "claim fails)")

    v = sub.add_parser("validate",
                       help="cross-check the analytic models against the "
                            "event-level substrates")
    v.add_argument("--apps", nargs="+", default=list(APP_NAMES),
                   choices=APP_NAMES)
    v.add_argument("--accesses", type=int, default=40_000)

    e = sub.add_parser("explain",
                       help="CPI-stack breakdown of one kernel on one node")
    e.add_argument("app", choices=APP_NAMES)
    e.add_argument("kernel", nargs="?", default=None,
                   help="kernel name (default: the app's first kernel)")
    _add_node_args(e)
    e.add_argument("--share", type=int, default=32,
                   help="cores sharing the L3 (default 32)")

    cp = sub.add_parser(
        "compare",
        help="A/B-compare two node specs across all applications")
    cp.add_argument("node_a", help='e.g. "medium/64M:512K/4chDDR4/2GHz"')
    cp.add_argument("node_b", help='e.g. "high/96M:1M/8chDDR4/512b"')
    cp.add_argument("--apps", nargs="+", default=list(APP_NAMES),
                    choices=APP_NAMES)

    rf = sub.add_parser("roofline",
                        help="roofline placement of an app's kernels")
    rf.add_argument("app", choices=APP_NAMES)
    _add_node_args(rf)

    tn = sub.add_parser("tornado",
                        help="one-factor axis sensitivity around a baseline")
    tn.add_argument("app", choices=APP_NAMES)
    tn.add_argument("--metric", default="time_ns",
                    choices=("time_ns", "power_total_w", "energy_j"))
    tn.add_argument("--cores", type=int, default=64)

    rp = sub.add_parser("report",
                        help="self-contained HTML report from a sweep")
    rp.add_argument("--results", default="results.json")
    rp.add_argument("--out", default="report.html")
    rp.add_argument("--cores", type=int, default=64)

    sv = sub.add_parser(
        "serve",
        help="serve design-space queries over HTTP from a persistent "
             "content-addressed result store")
    sv.add_argument("--store", default="serve_store.jsonl", metavar="JSONL",
                    help="content-addressed store path "
                         "(default serve_store.jsonl)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8787)
    sv.add_argument("--invalidate-stale", action="store_true",
                    help="on startup, drop store entries produced by a "
                         "different code version")

    q = sub.add_parser(
        "query",
        help="query a running `repro serve` instance")
    q.add_argument("kind", choices=("sweep", "best", "delta", "health",
                                    "metrics", "invalidate"))
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--port", type=int, default=8787)
    q.add_argument("--apps", nargs="+", default=None, choices=APP_NAMES)
    q.add_argument("--smoke", action="store_true",
                   help="query over the 8-configuration smoke space")
    q.add_argument("--set", dest="subset", nargs="+", default=[],
                   metavar="AXIS=VALUE",
                   help="pin axes, e.g. --set frequency=2.0 cores=64 "
                        "(repeatable values: cores=32,64)")
    q.add_argument("--mode", default="fast", choices=("fast", "replay"))
    q.add_argument("--ranks", type=int, default=256)
    q.add_argument("--objective", default="time_ns",
                   choices=("time_ns", "energy_j", "power_total_w", "edp"),
                   help="best-query objective (geomean across apps)")
    q.add_argument("--power-cap", type=float, default=None, metavar="W")
    q.add_argument("--area-cap", type=float, default=None, metavar="MM2")
    q.add_argument("--energy-cap", type=float, default=None, metavar="J")
    q.add_argument("--min-frequency", type=float, default=None,
                   metavar="GHZ")
    q.add_argument("--axis", default=None,
                   help="delta-query axis (e.g. cache, memory)")
    q.add_argument("--a", dest="val_a", default=None,
                   help="delta-query first axis value")
    q.add_argument("--b", dest="val_b", default=None,
                   help="delta-query second axis value")
    q.add_argument("--app", default=None,
                   help="invalidate: restrict to one app")
    q.add_argument("--stale", action="store_true",
                   help="invalidate: drop entries from other code versions")
    q.add_argument("--all", dest="inv_all", action="store_true",
                   help="invalidate: drop everything")
    q.add_argument("--out", default=None, metavar="PATH",
                   help="write sweep-query records as a ResultSet JSON "
                        "consumable by `repro figure`")
    return p


def _add_node_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--core", default="medium", choices=CORE_LABELS)
    sp.add_argument("--cache", default="64M:512K", choices=CACHE_LABELS)
    sp.add_argument("--memory", default="4chDDR4",
                    choices=("4chDDR4", "8chDDR4", "16chDDR4", "16chHBM"))
    sp.add_argument("--frequency", type=float, default=2.0)
    sp.add_argument("--vector", type=int, default=128)
    sp.add_argument("--cores", type=int, default=64)


def _node_from_args(args) -> "NodeConfig":
    return baseline_node(args.cores).with_(
        core=args.core, cache=args.cache, memory=args.memory,
        frequency_ghz=args.frequency, vector_bits=args.vector,
    )


def cmd_characterize(args) -> int:
    r = Musa(get_app(args.app)).simulate_node(baseline_node(args.cores))
    print(format_rows(
        f"{args.app} @ {args.cores} cores (baseline node)",
        ["metric", "value"],
        [
            ["runtime [ms]", r.time_ns / 1e6],
            ["L1 MPKI", r.mpki_l1],
            ["L2 MPKI", r.mpki_l2],
            ["L3 MPKI", r.mpki_l3],
            ["DRAM requests [G/s]", r.gmem_req_per_s],
            ["bandwidth utilization", r.bw_utilization],
            ["core occupancy", r.occupancy],
            ["node power [W]", r.power.total_w],
            ["energy/node [J]", r.energy_j],
        ]))
    return 0


def cmd_simulate(args) -> int:
    node = _node_from_args(args)
    r = Musa(get_app(args.app)).simulate_node(node)
    p = r.power
    print(format_rows(
        f"{args.app} on {node.label}",
        ["metric", "value"],
        [
            ["runtime [ms]", r.time_ns / 1e6],
            ["Core+L1 power [W]", p.core_l1_w],
            ["L2+L3 power [W]", p.l2_l3_w],
            ["Memory power [W]", p.memory_w],
            ["node power [W]", p.total_w],
            ["energy/node [J]", r.energy_j],
            ["bandwidth utilization", r.bw_utilization],
        ]))
    return 0


def _profiled_sweep(run, args) -> "ResultSet":
    """Run ``run()`` under cProfile, print the top-N cumulative
    hotspots and dump the raw stats next to ``--metrics-json`` (or, when
    no metrics path was given, next to ``--out``)."""
    import cProfile
    import pstats
    from pathlib import Path

    if args.profile < 1:
        raise SystemExit("error: --profile must be >= 1")
    prof = cProfile.Profile()
    prof.enable()
    try:
        results = run()
    finally:
        prof.disable()
    anchor = Path(args.metrics_json or args.out)
    prof_path = anchor.with_suffix(".prof")
    prof.dump_stats(prof_path)
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.sort_stats("cumulative")
    print(f"\ntop {args.profile} hotspots by cumulative time "
          f"(full stats: {prof_path})")
    stats.print_stats(args.profile)
    return results


def cmd_sweep(args) -> int:
    import json

    from ..analysis import format_metrics_summary
    from ..obs import get_metrics, summarize

    if args.smoke:
        space = smoke_design_space()
    elif args.plane:
        space = plane_design_space()
    else:
        space = full_design_space()
    total = len(space) * len(args.apps)
    shard_note = ""
    if args.shard:
        if not args.resume:
            print("warning: --shard without --resume produces partial "
                  "results that cannot be merged; pass --resume "
                  "JOURNAL so `repro merge-journal` can union the "
                  "shards", file=sys.stderr)
        shard_note = f" (shard {args.shard})"
    print(f"sweeping {len(space)} configurations x {len(args.apps)} apps "
          f"({total} simulations){shard_note}...", flush=True)
    reg = get_metrics()
    reg.reset()

    def _run():
        return run_sweep(args.apps, space, n_ranks=args.ranks,
                         processes=args.processes,
                         progress=True, resume=args.resume,
                         timeout_s=args.timeout, max_retries=args.retries,
                         batch_size=args.batch_size,
                         mode=args.mode, shard=args.shard)

    if args.profile is not None:
        results = _profiled_sweep(_run, args)
    else:
        results = _run()
    results.save(args.out)
    print(f"wrote {len(results)} records to {args.out}")
    n_failed = len(results.failures())
    if n_failed:
        print(f"warning: {n_failed} task(s) exhausted retries and were "
              "recorded as failed stubs", file=sys.stderr)
    summary = summarize(reg.snapshot())
    print(format_metrics_summary(summary))
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"wrote metrics to {args.metrics_json}")
    return 0


def cmd_merge_journal(args) -> int:
    from ..core import merge_journal

    try:
        replay = merge_journal(args.journals, args.out)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n_ok = len(replay.results)
    n_failed = len(replay.failed)
    print(f"merged {len(args.journals)} journal(s) into {args.out}: "
          f"{n_ok} completed task(s), {n_failed} failed stub(s)")
    if args.results:
        replay.results.save(args.results)
        print(f"wrote {n_ok} records to {args.results}")
    return 0


def cmd_search(args) -> int:
    from ..analysis import format_metrics_summary, search_front
    from ..config import range_design_space
    from ..core.store import ResultStore, code_version
    from ..obs import get_metrics, summarize

    space = range_design_space() if args.range else full_design_space()
    reg = get_metrics()
    reg.reset()
    store = ResultStore(args.store) if args.store else None
    try:
        r = search_front(
            args.app, space, x_metric=args.x_metric, y_metric=args.y_metric,
            n_ranks=args.ranks, mode=args.mode, max_evals=args.max_evals,
            budget_frac=args.budget_frac, batch_size=args.batch_size,
            epsilon=args.epsilon, seed=args.seed, surrogate=args.surrogate,
            store=store, code_version=code_version())
    finally:
        if store is not None:
            store.close()
    status = "converged" if r.converged else "budget exhausted"
    print(f"{args.app}: searched {len(space)} points, evaluated "
          f"{r.n_evaluated} ({r.evaluated_fraction:.1%}) in {r.rounds} "
          f"rounds — {status}")
    print(format_rows(
        f"Pareto front ({args.x_metric} vs {args.y_metric}, "
        f"{len(r.front)} points)",
        ["config", "cores", args.x_metric, args.y_metric],
        [[p.label, p.config["cores"], p.x, p.y] for p in r.front]))
    if args.out:
        r.results.save(args.out)
        print(f"wrote {r.n_evaluated} records to {args.out}")
    print(format_metrics_summary(summarize(reg.snapshot())))
    return 0


def cmd_figure(args) -> int:
    from ..core import normalize_axis

    try:
        results = ResultSet.load(args.results)
    except FileNotFoundError:
        print(f"error: no sweep results at {args.results!r} — run "
              "`repro sweep` first", file=sys.stderr)
        return 1
    baseline, values = FIGURE_AXES[args.axis]
    bars = normalize_axis(results, args.axis, baseline, args.metric)
    rows = []
    table = {}
    for b in bars:
        if b.cores != args.cores:
            continue
        rows.append([b.app, b.value, b.mean, b.std, b.n_samples])
        table.setdefault(b.app, {})[b.value] = b.mean
    if not rows:
        print(f"error: no records for --cores {args.cores}",
              file=sys.stderr)
        return 1
    print(format_rows(
        f"{args.metric} vs {args.axis} (normalized to {baseline}), "
        f"{args.cores} cores",
        ["app", args.axis, "mean", "std", "n"], rows))
    if args.svg:
        from ..analysis.svgchart import grouped_bar_chart

        svg = grouped_bar_chart(
            table, groups=list(table), values=list(values),
            title=f"{args.metric} vs {args.axis} ({args.cores} cores)",
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}")
    return 0


def cmd_scaling(args) -> int:
    musa = Musa(get_app(args.app))
    region = compute_region_scaling(musa)
    full = full_app_scaling(musa, n_ranks=args.ranks, n_iterations=2)
    rows = []
    for n in region.core_counts:
        i = region.core_counts.index(n)
        rows.append([n, region.speedups[i], region.efficiency(n),
                     full.speedups[i], full.efficiency(n)])
    print(format_rows(
        f"{args.app} scaling ({args.ranks} ranks for the full app)",
        ["cores", "region speedup", "region eff", "full speedup",
         "full eff"], rows))
    return 0


def cmd_timeline(args) -> int:
    musa = Musa(get_app(args.app))
    sched = musa.burst_phase(musa.app.representative_phase(), args.cores,
                             collect_spans=True)
    stats = occupancy_stats(sched)
    print(f"{args.app}: representative phase on {args.cores} cores — "
          f"occupancy {stats.busy_fraction:.0%}, "
          f"{stats.active_cores}/{args.cores} cores active")
    print(render_core_timeline(sched.spans, args.cores, sched.makespan_ns,
                               width=args.width, max_cores=24))
    res = musa.simulate_burst_full(n_cores=args.cores, n_ranks=args.ranks,
                                   n_iterations=2, collect_segments=True)
    rstats = rank_activity_stats(res)
    print(f"\nfull-app replay, {args.ranks} ranks — "
          f"{rstats.mean_collective_fraction:.0%} of rank-time in "
          "collectives ('#' compute, 'B' collective, '-' p2p, 'w' wait)")
    print(render_rank_timeline(res.segments, args.ranks, res.total_ns,
                               width=args.width, max_ranks=16))
    return 0


def cmd_recommend(args) -> int:
    from ..analysis import recommend

    try:
        results = ResultSet.load(args.results)
    except FileNotFoundError:
        print(f"error: no sweep results at {args.results!r} — run "
              "`repro sweep` first", file=sys.stderr)
        return 1
    print(recommend(results, cores=args.cores).render())
    return 0


def cmd_claims(args) -> int:
    from ..analysis.claims import check_claims, claim_fixtures, comm_share

    fast, replay = claim_fixtures("fast"), claim_fixtures("replay")
    verdicts = list(zip(check_claims(fast), check_claims(replay)))
    print(format_rows(
        "Paper claims, fast vs replay mode (256 ranks); only fast mode "
        "sets the exit code",
        ["claim", "paper", "bound", "fast", "", "replay", ""],
        [[f.claim.name, f.claim.paper, f.claim.bound,
          f.value, "ok" if f.holds else "FAIL",
          r.value, "ok" if r.holds else "FAIL"] for f, r in verdicts]))
    print()
    print(format_rows(
        "Communication share of the replayed baseline run "
        "(1 - fast / replay time)",
        ["app", "cores", "share"], comm_share(fast, replay)))
    n_fast = sum(f.holds for f, _ in verdicts)
    n_replay = sum(r.holds for _, r in verdicts)
    print(f"\n{n_fast}/{len(verdicts)} claims hold in fast mode, "
          f"{n_replay}/{len(verdicts)} in replay mode")
    return 0 if n_fast == len(verdicts) else 1


def cmd_validate(args) -> int:
    from ..config import cache_preset
    from ..uarch import validate_kernel

    rows = []
    all_passed = True
    for app in args.apps:
        detailed = get_app(app).detailed_trace()
        for kernel in detailed.names():
            v = validate_kernel(detailed[kernel], cache_preset("64M:512K"),
                                l3_share_cores=32,
                                n_accesses=args.accesses)
            ok = v.passed()
            all_passed &= ok
            eff = ("n/a" if v.efficiency_error is None
                   else f"{v.efficiency_error:.3f}")
            rows.append([app, kernel, v.max_miss_error, eff,
                         "PASS" if ok else "FAIL"])
    print(format_rows(
        "Analytic models vs event-level substrates (64M:512K, 32-way L3 share)",
        ["app", "kernel", "max miss-ratio err", "DRAM eff err", "verdict"],
        rows))
    return 0 if all_passed else 1


def cmd_explain(args) -> int:
    from ..uarch import explain_kernel

    detailed = get_app(args.app).detailed_trace()
    kernel = args.kernel or detailed.names()[0]
    if kernel not in detailed:
        print(f"error: {args.app} has no kernel {kernel!r}; "
              f"choose from {detailed.names()}", file=sys.stderr)
        return 1
    node = _node_from_args(args)
    print(explain_kernel(detailed[kernel], node,
                         l3_share_cores=args.share).render())
    return 0


def cmd_roofline(args) -> int:
    from ..uarch import render_roofline, roofline_point

    node = _node_from_args(args)
    detailed = get_app(args.app).detailed_trace()
    points = [roofline_point(detailed[k], node) for k in detailed.names()]
    print(render_roofline(points))
    return 0


def cmd_tornado(args) -> int:
    from ..analysis import render_tornado, tornado

    musa = Musa(get_app(args.app))
    swings = tornado(musa, baseline_node(args.cores), metric=args.metric)
    print(render_tornado(swings, args.metric))
    return 0


def cmd_report(args) -> int:
    from ..analysis import build_html_report

    try:
        results = ResultSet.load(args.results)
    except FileNotFoundError:
        print(f"error: no sweep results at {args.results!r} — run "
              "`repro sweep` first", file=sys.stderr)
        return 1
    try:
        html_text = build_html_report(results, cores=args.cores)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(html_text)
    print(f"wrote {args.out}")
    return 0


def cmd_compare(args) -> int:
    from ..config import parse_node
    from ..core import compare_nodes

    try:
        node_a = parse_node(args.node_a)
        node_b = parse_node(args.node_b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    apps = [get_app(a) for a in args.apps]
    try:
        print(compare_nodes(node_a, node_b, apps=apps).render())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    from ..core.store import ResultStore, code_version
    from ..serve import ServeState, serve_forever

    store = ResultStore(args.store)
    state = ServeState(store, code_version=code_version())
    if args.invalidate_stale:
        dropped = store.invalidate_stale(state.code_version)
        if dropped:
            print(f"invalidated {dropped} stale entr"
                  f"{'y' if dropped == 1 else 'ies'} "
                  f"(code version != {state.code_version})")
    try:
        serve_forever(state, host=args.host, port=args.port)
    finally:
        store.close()
    return 0


def _axis_value(axis: str, text: str):
    """Coerce a CLI axis value to the type the design space uses."""
    if axis == "frequency":
        return float(text)
    if axis in ("vector", "cores"):
        return int(text)
    return text


def cmd_query(args) -> int:
    import json

    from ..serve import ServeClient

    client = ServeClient(host=args.host, port=args.port)

    try:
        if args.kind == "health":
            print(json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        if args.kind == "metrics":
            derived = client.metrics().get("derived", {})
            print(json.dumps(derived, indent=2, sort_keys=True))
            return 0
        if args.kind == "invalidate":
            criteria = {}
            if args.app:
                criteria["app"] = args.app
            if args.stale:
                criteria["stale"] = True
            if args.inv_all:
                criteria["all"] = True
            n = client.invalidate(criteria)
            print(f"invalidated {n} entr{'y' if n == 1 else 'ies'}")
            return 0

        subset = {}
        for item in args.subset:
            axis, _, value = item.partition("=")
            if not value:
                print(f"error: --set expects AXIS=VALUE, got {item!r}",
                      file=sys.stderr)
                return 2
            parts = value.split(",")
            vals = [_axis_value(axis, v) for v in parts]
            subset[axis] = vals[0] if len(vals) == 1 else vals
        query = {"kind": args.kind, "mode": args.mode, "ranks": args.ranks,
                 "space": "smoke" if args.smoke else "full"}
        if args.apps:
            query["apps"] = args.apps
        if subset:
            query["subset"] = subset
        if args.kind == "best":
            query["objective"] = args.objective
            query["power_cap_w"] = args.power_cap
            query["area_cap_mm2"] = args.area_cap
            query["energy_cap_j"] = args.energy_cap
            query["min_frequency_ghz"] = args.min_frequency
        elif args.kind == "delta":
            if not (args.axis and args.val_a and args.val_b):
                print("error: delta queries need --axis, --a and --b",
                      file=sys.stderr)
                return 2
            query["axis"] = args.axis
            query["a"] = _axis_value(args.axis, args.val_a)
            query["b"] = _axis_value(args.axis, args.val_b)

        response = client.query(query)
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach repro serve at "
              f"{args.host}:{args.port} ({exc})", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    served = response.get("served", {})
    result = response.get("result", {})
    if args.kind == "sweep":
        records = result.get("records", [])
        print(f"{len(records)} records "
              f"({served.get('store_hits', 0)} from store, "
              f"{served.get('evaluated', 0)} evaluated)")
        if args.out:
            ResultSet(records).save(args.out)
            print(f"wrote {args.out}")
    elif args.kind == "best":
        print(format_rows(
            f"best config ({result.get('objective')}, geomean across apps)",
            ["field", "value"],
            [["config", result.get("label")],
             ["score", result.get("score")],
             ["feasible configs", result.get("n_feasible")]]
            + [[f"  {app}", v]
               for app, v in sorted(result.get("per_app", {}).items())]))
    elif args.kind == "delta":
        rows = [[app, g] for app, g in
                sorted(result.get("geomean_speedup_by_app", {}).items())]
        print(format_rows(
            f"delta {result.get('axis')}: {result.get('a')} -> "
            f"{result.get('b')} (speedup b over a, geomean)",
            ["app", "geomean speedup"], rows))
        print(f"{len(result.get('pairs', []))} paired points "
              f"({served.get('store_hits', 0)} from store, "
              f"{served.get('evaluated', 0)} evaluated)")
    return 0


_COMMANDS = {
    "characterize": cmd_characterize,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "merge-journal": cmd_merge_journal,
    "search": cmd_search,
    "figure": cmd_figure,
    "scaling": cmd_scaling,
    "timeline": cmd_timeline,
    "recommend": cmd_recommend,
    "claims": cmd_claims,
    "validate": cmd_validate,
    "explain": cmd_explain,
    "compare": cmd_compare,
    "roofline": cmd_roofline,
    "tornado": cmd_tornado,
    "report": cmd_report,
    "serve": cmd_serve,
    "query": cmd_query,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
