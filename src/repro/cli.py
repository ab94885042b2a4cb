"""Command-line interface: ``repro-ear``.

Subcommands::

    repro-ear list                      # workloads and policies
    repro-ear run -w BT-MZ.C -p me_eufs # one workload, one config
    repro-ear table 3                   # regenerate a paper table
    repro-ear figure 4                  # regenerate a paper figure
    repro-ear sweep -w BT-MZ.C.mpi      # fixed-uncore motivation sweep
    repro-ear resilience -w BT-MZ.C     # fault-intensity robustness sweep
    repro-ear timeline -w BT-MZ.C       # ASCII frequency timeline of one run
    repro-ear telemetry -w BT-MZ.C      # event timelines from a telemetry run
    repro-ear learn --validate          # coefficient learning phase (grid -> fit -> save)
    repro-ear campaign --budget-mj 14   # application list under EARGM budget control
    repro-ear cluster --n-jobs 12       # cluster campaign: scheduler + EARDBD + EARGM
    repro-ear eacct --db accounting.json  # query an exported accounting DB
    repro-ear export 3 -o t3.csv        # export a paper table as CSV
    repro-ear serve --socket ear.sock   # persistent service: streaming submissions
    repro-ear submit -w synt.cpu.1n     # stream a job into a running service
    repro-ear status --drain            # query/drain/stop a running service

The full reference lives in ``docs/CLI.md``, generated from the same
argparse tree by ``repro-ear --dump-docs`` (so it can never drift from
the implementation).  Tables and figures print the measured values
only; the goldens the benchmark harness writes to ``results/`` also
carry the paper's values in parentheses.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import pathlib
import sys

from .ear.config import EarConfig
from .errors import ReproError
from .experiments import (
    figure1,
    figure3_bqcd,
    figure4_btmz,
    figure5_gromacs1,
    figure6_gromacs2,
    figure7_hpcg_pop,
    figure8_dumses_afid,
    format_figure_series,
    format_table,
    ghz,
    pct,
    table1_kernel_metrics,
    table2_kernel_characteristics,
    table3_kernel_savings,
    table4_kernel_frequencies,
    table5_application_characteristics,
    table6_application_frequencies,
    table7_dc_vs_pck,
    uncore_sweep,
)
from .experiments.runner import compare, standard_configs
from .sim.engine import ENGINES, RunSpec, run_workload
from .workloads import mpi_applications, paper_workloads

__all__ = ["main", "build_parser", "dump_docs"]


def _find_workload(name: str):
    workloads = paper_workloads()
    for wl in workloads:
        if wl.name.lower() == name.lower():
            return wl
    names = ", ".join(w.name for w in workloads)
    raise SystemExit(f"unknown workload {name!r}; available: {names}")


def _config(configs: dict, name: str) -> EarConfig | None:
    """Look up one of :func:`standard_configs`'s configurations by name."""
    if name not in configs:
        raise SystemExit(f"unknown config {name!r}; use {sorted(configs)}")
    return configs[name]


def _cmd_list(_args) -> int:
    from .ear.policies import available_policies

    print("Workloads:")
    for wl in paper_workloads():
        print(
            f"  {wl.name:<14} {wl.n_nodes:>2} node(s)  {wl.n_processes:>4} proc  "
            f"~{wl.total_ref_time_s:.0f}s  - {wl.description}"
        )
    print("\nPolicies:", ", ".join(available_policies()))
    return 0


def _with_backend(wl, backend: str | None):
    """Rebind a workload's node type to another uncore backend.

    ``None`` (and the node type's own backend) leave the workload —
    and therefore every cache key and golden — untouched.
    """
    if backend is None or backend == wl.node_config.uncore_backend:
        return wl
    import dataclasses

    return wl.retargeted(
        dataclasses.replace(wl.node_config, uncore_backend=backend)
    )


def _cmd_run(args) -> int:
    wl = _with_backend(_find_workload(args.workload), args.uncore_backend)
    configs = standard_configs(
        cpu_policy_th=args.cpu_th,
        unc_policy_th=args.unc_th,
        coefficients_path=args.coefficients,
        regions=True,
    )
    if args.policy != "all":
        configs = {"none": None, args.policy: _config(configs, args.policy)}
    cmp_ = compare(wl, configs, scale=args.scale, engine=args.engine)
    rows = [
        [
            name,
            pct(c.time_penalty),
            pct(c.power_saving),
            pct(c.energy_saving),
            ghz(c.result.avg_cpu_freq_ghz),
            ghz(c.result.avg_imc_freq_ghz),
        ]
        for name, c in cmp_.items()
    ]
    print(
        format_table(
            f"{wl.name}: policies vs nominal execution",
            ["config", "time penalty", "power saving", "energy saving", "cpu", "imc"],
            rows,
        )
    )
    return 0


def _name(row: dict) -> str:
    return row["kernel"] if "kernel" in row else row["application"]


def _characteristics_row(r: dict) -> list[str]:
    return [
        _name(r),
        f"{r['time_s']:.0f}",
        f"{r['cpi']:.2f}",
        f"{r['gbs']:.1f}",
        f"{r['dc_power_w']:.0f}",
    ]


def _frequencies_row(r: dict) -> list[str]:
    return [_name(r)] + [
        f"{ghz(r[c]['cpu'])}/{ghz(r[c]['imc'])}" for c in ("none", "me", "me_eufs")
    ]


_CHARACTERISTICS = ["time (s)", "CPI", "GB/s", "DC power (W)"]
_FREQUENCIES = ["none cpu/imc", "ME cpu/imc", "ME+eU cpu/imc"]

#: table number -> (row builder, title, headers, row renderer); shared
#: by ``table`` (rendered) and ``export`` (CSV of the raw rows).
_TABLES = {
    1: (
        table1_kernel_metrics,
        "Table I: kernels under min_energy with HW IMC selection",
        ["kernel", "CPI", "GB/s", "CPU GHz", "IMC GHz"],
        lambda r: [
            r["kernel"],
            f"{r['cpi']:.2f}",
            f"{r['gbs']:.1f}",
            ghz(r["cpu_ghz"]),
            ghz(r["imc_ghz"]),
        ],
    ),
    2: (
        table2_kernel_characteristics,
        "Table II: single-node kernels",
        ["kernel", *_CHARACTERISTICS],
        _characteristics_row,
    ),
    3: (
        table3_kernel_savings,
        "Table III: kernel savings (ME / ME+eU)",
        ["kernel", "pen ME", "pen eU", "pow ME", "pow eU", "en ME", "en eU"],
        lambda r: [r["kernel"]]
        + [
            pct(r[c][metric])
            for metric in ("time_penalty", "power_saving", "energy_saving")
            for c in ("me", "me_eufs")
        ],
    ),
    4: (
        table4_kernel_frequencies,
        "Table IV: kernel avg CPU/IMC frequencies",
        ["kernel", *_FREQUENCIES],
        _frequencies_row,
    ),
    5: (
        table5_application_characteristics,
        "Table V: MPI applications",
        ["application", *_CHARACTERISTICS],
        _characteristics_row,
    ),
    6: (
        table6_application_frequencies,
        "Table VI: application avg CPU/IMC frequencies",
        ["application", *_FREQUENCIES],
        _frequencies_row,
    ),
    7: (
        table7_dc_vs_pck,
        "Table VII: DC node vs RAPL PCK power savings (ME+eU)",
        ["application", "DC saving", "PCK saving"],
        lambda r: [r["application"], pct(r["dc_saving"]), pct(r["pck_saving"])],
    ),
}


def _table(number: int):
    if number not in _TABLES:
        raise SystemExit("tables 1-7 exist")
    return _TABLES[number]


def _cmd_table(args) -> int:
    builder, title, headers, row = _table(args.number)
    print(format_table(title, headers, [row(r) for r in builder(scale=args.scale)]))
    return 0


def _sweep_table(title: str, sweep) -> str:
    return format_table(
        title,
        ["uncore GHz", "time pen", "power save", "energy save", "GB/s pen"],
        [
            [
                ghz(p.uncore_ghz),
                pct(p.time_penalty),
                pct(p.power_saving),
                pct(p.energy_saving),
                pct(p.gbs_penalty),
            ]
            for p in sweep.points
        ],
    )


def _cmd_figure(args) -> int:
    scale = args.scale
    n = args.number
    if n == 1:
        for name, sweep in figure1(scale=scale).items():
            print(
                _sweep_table(
                    f"Figure 1: {name} fixed-uncore sweep (CPU {ghz(sweep.cpu_ghz)} GHz, "
                    f"HW ref IMC {ghz(sweep.hw_reference_imc_ghz)} GHz)",
                    sweep,
                )
            )
    elif n == 3:
        print(format_figure_series("Figure 3: BQCD", figure3_bqcd(scale=scale)))
    elif n == 4:
        print(format_figure_series("Figure 4: BT-MZ", figure4_btmz(scale=scale)))
    elif n == 5:
        for key, series in figure5_gromacs1(scale=scale).items():
            print(format_figure_series(f"Figure 5: GROMACS(I) {key}", series))
    elif n == 6:
        print(format_figure_series("Figure 6: GROMACS(II)", figure6_gromacs2(scale=scale)))
    elif n == 7:
        for key, series in figure7_hpcg_pop(scale=scale).items():
            print(format_figure_series(f"Figure 7: {key}", series))
    elif n == 8:
        for key, series in figure8_dumses_afid(scale=scale).items():
            print(format_figure_series(f"Figure 8: {key}", series))
    else:
        raise SystemExit("figures 1 and 3-8 exist")
    return 0


def _cmd_timeline(args) -> int:
    from .ear.policies import available_policies
    from .experiments.trace import render_timeline, settled_imc_max_ghz

    wl = _find_workload(args.workload)
    if args.policy not in available_policies():
        raise SystemExit(
            f"unknown policy {args.policy!r}; use {list(available_policies())}"
        )
    cfg = EarConfig(
        policy=args.policy, cpu_policy_th=args.cpu_th, unc_policy_th=args.unc_th
    )
    # every node's timeline is read from its engine/freq_sample stream
    result = run_workload(
        wl,
        ear_config=cfg,
        seed=1,
        scale=args.scale,
        telemetry=True,
        engine=args.engine,
    )
    try:
        print(render_timeline(result, node=args.node))
    except ValueError as exc:
        raise SystemExit(str(exc))
    settled = settled_imc_max_ghz(result)
    if settled is not None:
        print(f"  settled uncore ceiling: {settled:.1f} GHz")
    return 0


def _cmd_telemetry(args) -> int:
    from .experiments.parallel import RunRequest, default_pool
    from .experiments.resilience import reference_fault_plan
    from .telemetry import (
        events_to_jsonl,
        metrics_to_prometheus,
        render_degradation_ladder,
        render_descent_timeline,
        stage_timing_summary,
    )

    wl = _find_workload(args.workload)
    configs = standard_configs(cpu_policy_th=args.cpu_th, unc_policy_th=args.unc_th)
    request = RunRequest(
        workload=wl,
        ear_config=_config(configs, args.policy),
        seed=args.seed,
        scale=args.scale,
        fault_plan=reference_fault_plan().at_intensity(args.fault_intensity),
        telemetry=True,
    )
    # through the pool: a cached telemetry run is reused, a cached
    # telemetry-free run is upgraded in place.
    (result,) = default_pool().run_many([request])
    try:
        print(render_descent_timeline(result, node=args.node))
        print()
        print(render_degradation_ladder(result, node=args.node))
    except ValueError as exc:
        raise SystemExit(str(exc))
    rows = stage_timing_summary(result)
    if rows:
        print(
            "\n"
            + format_table(
                f"{wl.name}: stage timing",
                ["node", "name", "count", "total (s)", "mean (s)"],
                [
                    [
                        str(r["node"]),
                        r["name"],
                        str(r["count"]),
                        f"{r['total_s']:.2f}",
                        f"{r['mean_s']:.3f}",
                    ]
                    for r in rows
                ],
            )
        )
    if args.jsonl:
        path = pathlib.Path(args.jsonl)
        path.write_text(events_to_jsonl(result))
        print(f"wrote {len(result.events)} events to {path}")
    if args.metrics:
        path = pathlib.Path(args.metrics)
        path.write_text(metrics_to_prometheus(result))
        print(f"wrote metrics to {path}")
    return 0


def _cmd_cluster(args) -> int:
    import json

    from .cluster import (
        ClusterConfig,
        EardbdConfig,
        MarketConfig,
        TraceConfig,
        compare_cluster_policies,
        generate_trace,
        render_cluster_report,
        render_comparison,
    )
    from .cluster.pool import parse_node_mix
    from .ear.eargm import EargmConfig
    from .experiments.resilience import reference_fault_plan

    node_mix = parse_node_mix(args.node_mix) if args.node_mix else None
    n_nodes = (
        sum(count for _, count in node_mix) if node_mix is not None else args.nodes
    )
    trace = generate_trace(
        TraceConfig(
            n_jobs=args.n_jobs,
            seed=args.seed,
            mean_interarrival_s=args.interarrival_s,
            burst_fraction=args.burst,
            scale=args.scale,
        )
    )
    eargm = (
        EargmConfig(budget_j=args.budget_mj * 1e6, horizon_s=args.horizon_s)
        if args.budget_mj is not None
        else None
    )
    market = None
    if args.power_market:
        # the power cap derives from the energy budget over the EARGM
        # horizon unless pinned directly: B MJ over H seconds sustains
        # exactly B*1e6/H watts.
        if args.budget_w is not None:
            budget_w = args.budget_w
        elif args.budget_mj is not None:
            budget_w = args.budget_mj * 1e6 / args.horizon_s
        else:
            raise SystemExit("--power-market needs --budget-w or --budget-mj")
        market = MarketConfig(budget_w=budget_w)
    cluster = ClusterConfig(
        n_nodes=n_nodes,
        eargm=eargm,
        eardbd=EardbdConfig(
            flush_interval_s=args.flush_interval_s, buffer_limit=args.buffer_limit
        ),
        backfill=not args.no_backfill,
        fault_plan=reference_fault_plan().at_intensity(args.fault_intensity),
        telemetry=True,
        node_mix=node_mix,
        # mixed campaigns arm per-job telemetry so the per-die
        # uncore/limit_write streams land in the node results.
        job_telemetry=node_mix is not None,
        market=market,
    )
    configs = standard_configs(
        cpu_policy_th=args.cpu_th, unc_policy_th=args.unc_th, regions=True
    )
    # ``-p X`` means ``--policies X``; "compare" expands to the paper's
    # three and "monitoring" aliases the no-policy baseline under its
    # service name.
    names = {}
    for raw in (args.policies or args.policy).split(","):
        entry = raw.strip()
        expanded = ("none", "me", "me_eufs") if entry == "compare" else (entry,)
        for name in filter(None, expanded):
            key = "none" if name == "monitoring" else name
            if key not in configs:
                raise SystemExit(
                    f"unknown policy {name!r}; use "
                    "none|monitoring|me|me_eufs|me_eufs_regions|compare"
                )
            names[name] = configs[key]
    if not names:
        raise SystemExit("--policies needs at least one policy name")
    from .experiments.journal import campaign_id
    from .experiments.parallel import default_pool

    cid = campaign_id(
        "cluster",
        sorted(names),
        args.n_jobs,
        args.seed,
        args.interarrival_s,
        args.burst,
        args.scale,
        n_nodes,
        args.fault_intensity,
        args.budget_mj,
        args.cpu_th,
        args.unc_th,
        not args.no_backfill,
        args.node_mix or "",
        args.power_market,
        args.budget_w,
    )
    pool = default_pool()
    with _campaign_journal(
        args, cid, "resuming cluster campaign", command="cluster", policy=",".join(names)
    ) as journal:
        pool.journal = journal
        try:
            campaigns = compare_cluster_policies(trace, cluster, names)
        finally:
            pool.journal = None
    for name, campaign in campaigns.items():
        print(render_cluster_report(campaign.report, jobs=not args.summary))
        print()
    if len(campaigns) > 1:
        print(render_comparison(campaigns))
    last = campaigns[list(campaigns)[-1]]
    if args.accounting:
        path = last.accounting.save(args.accounting)
        print(f"wrote accounting DB ({last.accounting.node_rows()} node rows) to {path}")
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps({n: c.report.to_dict() for n, c in campaigns.items()}, indent=2)
            + "\n"
        )
        print(f"wrote report JSON to {args.json}")
    return 0


def _cmd_eacct(args) -> int:
    from .ear.accounting import AccountingDB

    db = AccountingDB.load(args.db)
    if args.job is not None:
        records = [db.job(args.job)]
    else:
        records = db.jobs(workload=args.workload, policy=args.policy)
    if args.as_json:
        import json
        from dataclasses import asdict

        print(json.dumps([asdict(r) for r in records], indent=2, sort_keys=True))
        return 0
    rows = [
        [
            str(r.job_id),
            r.workload,
            r.policy,
            str(len(r.nodes)),
            f"{r.seconds:.1f}",
            f"{r.dc_energy_j / 1e6:.3f}",
            f"{r.avg_node_power_w:.0f}",
        ]
        for r in records
    ]
    print(
        format_table(
            f"eacct: {len(records)} job(s), {db.total_energy_j(records) / 1e6:.2f} MJ",
            ["job", "workload", "policy", "nodes", "seconds", "MJ", "W/node"],
            rows,
        )
    )
    return 0


def _cmd_campaign(args) -> int:
    from .ear.eargm import Eargm, EargmConfig
    from .ear.manager import ClusterManager
    from .experiments.tables import app_thresholds

    eargm = Eargm(
        EargmConfig(budget_j=args.budget_mj * 1e6, horizon_s=args.horizon_s)
    )
    manager = ClusterManager(eargm)
    print(
        f"{'job':>4} {'application':<12} {'cap':>4} {'time':>9} {'energy':>9} {'budget':>9}"
    )
    for wl in mpi_applications():
        if args.scale != 1.0:
            wl = wl.scaled_iterations(args.scale)
        job = manager.submit(wl, cpu_policy_th=app_thresholds(wl.name))
        print(
            f"{job.job_id:>4} {wl.name:<12} {job.pstate_offset_applied:>4} "
            f"{job.result.time_s:8.1f}s {job.result.dc_energy_j / 1e6:7.2f}MJ "
            f"{job.level_before.name:>9}"
        )
    print(
        f"\ncampaign: {manager.total_energy_j / 1e6:.1f} MJ consumed, "
        f"final level {eargm.level().name}"
    )
    if args.accounting:
        path = manager.accounting.save(args.accounting)
        print(f"wrote accounting DB to {path}")
    return 0


def _cmd_export(args) -> int:
    from .experiments.export import rows_to_csv

    text = rows_to_csv(_table(args.number)[0](scale=args.scale))
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_sweep(args) -> int:
    wl = _with_backend(_find_workload(args.workload), args.uncore_backend)
    sweep = uncore_sweep(
        wl, cpu_ghz=args.cpu_ghz, scale=args.scale, engine=args.engine
    )
    title = f"{wl.name} fixed-uncore sweep at CPU {ghz(args.cpu_ghz)} GHz"
    print(_sweep_table(title, sweep))
    return 0


def _cmd_resilience(args) -> int:
    from .experiments.resilience import (
        DEFAULT_INTENSITIES,
        infra_resilience_sweep,
        resilience_sweep,
    )

    if args.intensities:
        try:
            intensities = tuple(float(x) for x in args.intensities.split(","))
        except ValueError:
            raise SystemExit(f"bad --intensities {args.intensities!r}; use e.g. 0,0.5,1,2")
    else:
        intensities = DEFAULT_INTENSITIES
    if args.infra:
        sweep = infra_resilience_sweep(
            intensities=intensities,
            n_jobs=args.n_jobs,
            n_nodes=args.nodes,
            scale=args.scale,
        )
        print(
            format_table(
                f"cluster of {sweep.n_nodes} nodes, {sweep.n_jobs} jobs: "
                "control-plane fault sweep (node crashes + EARDBD restarts)",
                [
                    "intensity",
                    "completed",
                    "failed",
                    "requeues",
                    "node fails",
                    "dbd restarts",
                    "pool retries",
                    "makespan",
                    "energy",
                    "reconciled",
                ],
                [
                    [
                        f"{p.intensity:.2f}",
                        f"{p.n_completed}/{p.n_jobs}",
                        str(p.n_failed),
                        str(p.n_requeues),
                        str(p.n_node_failures),
                        str(p.eardbd_restarts),
                        str(p.pool_retries),
                        f"{p.makespan_s:.0f}s",
                        f"{p.total_energy_j / 1e6:.2f}MJ",
                        "yes" if p.eardbd_reconciled else "NO",
                    ]
                    for p in sweep.points
                ],
            )
        )
        return 0
    wl = _find_workload(args.workload)
    configs = standard_configs(cpu_policy_th=args.cpu_th, unc_policy_th=args.unc_th)
    if args.policy not in configs or args.policy == "none":
        raise SystemExit(
            f"unknown policy config {args.policy!r}; use "
            f"{sorted(k for k in configs if k != 'none')}"
        )
    sweep = resilience_sweep(
        wl,
        configs[args.policy],
        config_name=args.policy,
        intensities=intensities,
        scale=args.scale,
    )
    rows = []
    for p in sweep.points:
        h = p.health
        rows.append(
            [
                f"{p.intensity:.2f}",
                str(h.faults_injected),
                str(h.samples_rejected + h.windows_rejected),
                str(h.windows_stalled),
                str(h.msr_retries),
                str(h.watchdog_restores),
                f"{h.degraded_s:.0f}s",
                pct(p.time_penalty),
                pct(p.energy_saving),
            ]
        )
    print(
        format_table(
            f"{wl.name}: {args.policy} under fault injection "
            f"(savings vs clean no-policy reference)",
            [
                "intensity",
                "faults",
                "rejected",
                "stalled",
                "retries",
                "watchdog",
                "degraded",
                "time pen",
                "energy save",
            ],
            rows,
        )
    )
    return 0


def _cmd_learn(args) -> int:
    import dataclasses
    import json

    from .ear.models import DEFAULT_COEFFICIENTS_DIR
    from .cluster.pool import GENERATIONS
    from .hw.node import BROADWELL_NODE, GPU_NODE, SD530
    from .learning import LearningCampaign, LearningGrid, default_kernels
    from .telemetry.recorder import EventRecorder

    node = {
        "sd530": SD530,
        "gpu": GPU_NODE,
        "broadwell": BROADWELL_NODE,
        # the mixed-cluster generation: TPMI backend, per-die uncore.
        "graniterapids": GENERATIONS["graniterapids"],
    }[args.node_type]
    grid = (
        LearningGrid.full(node) if args.grid == "full" else LearningGrid.coarse(node)
    )
    if args.scale is not None:
        grid = dataclasses.replace(grid, scale=args.scale)
    recorder = EventRecorder(node=-1)
    kernels = None
    if args.kernels:
        battery = default_kernels(node)
        wanted = [k.strip() for k in args.kernels.split(",") if k.strip()]
        by_name = {w.name.lower(): w for w in battery}
        unknown = [k for k in wanted if k.lower() not in by_name]
        if unknown:
            raise SystemExit(
                f"unknown kernel(s) {', '.join(unknown)}; battery: "
                f"{', '.join(w.name for w in battery)}"
            )
        kernels = tuple(by_name[k.lower()] for k in wanted)
    campaign = LearningCampaign(node, kernels=kernels, grid=grid, recorder=recorder)
    cid = campaign.journal_id()
    out_dir = None if args.out == "none" else (args.out or DEFAULT_COEFFICIENTS_DIR)
    with _campaign_journal(
        args, cid, "resuming campaign", command="learn", node_type=node.name, grid=args.grid
    ) as journal:
        campaign.journal = journal
        print(
            f"learning {node.name}: {len(campaign.kernels)} kernel(s) x "
            f"{campaign.grid.runs_per_kernel} grid runs each "
            f"(grid={args.grid}, scale={campaign.grid.scale}, journal={cid})"
        )
        table, report = campaign.run(validate=args.validate, threshold=args.threshold)
        saved = None if out_dir is None else campaign.save(table, out_dir)
    quality = table.quality
    print(
        f"fitted {len(table)} P-state pairs from {quality.n_observations} "
        f"observations ({', '.join(quality.kernels)})"
    )
    print(
        f"  min R^2: CPI {quality.min_r2_cpi:.4f}, power {quality.min_r2_power:.4f}"
    )
    print(
        f"  worst training error: time {quality.max_rel_time_err:.1%}, "
        f"power {quality.max_rel_power_err:.1%}"
    )
    if quality.avx512_licence_ghz is not None:
        print(f"  measured AVX-512 licence frequency: {quality.avx512_licence_ghz:.1f} GHz")
    if report is not None:
        print(report.summary())
    if saved is not None:
        print(f"saved to {saved}")
        print(
            "use it with EarConfig(coefficients_path=...) or delete the file "
            "to return to the analytic fallback"
        )
    if args.jsonl:
        path = pathlib.Path(args.jsonl)
        path.write_text(
            "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in recorder.events)
        )
        print(f"wrote {len(recorder.events)} learning events to {path}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .service import EarService, ServiceConfig

    config = ServiceConfig(
        socket_path=args.socket,
        port=args.port,
        name=args.name,
        n_nodes=args.n_nodes,
        policy=args.policy,
        budget_mj=args.budget_mj,
        horizon_s=args.horizon_s,
        flush_interval_s=args.flush_interval_s,
        max_pending=args.max_pending,
        max_inflight=args.max_inflight,
        journal=not args.no_journal,
        journal_dir=args.journal_dir,
        journal_fsync=not args.no_fsync,
        resume=args.resume,
    )
    service = EarService(config)

    async def _run() -> int:
        await service.start()
        listening = []
        if config.socket_path:
            listening.append(f"unix:{config.socket_path}")
        if config.port is not None:
            listening.append(f"tcp:{config.host}:{config.port}")
        print(f"repro-ear service {config.name!r} listening on {', '.join(listening)}")
        if args.resume and service.journal is not None:
            print(
                f"resumed journal {service.journal.path}: "
                f"{service.resumed_runs} runs already completed"
            )
        print("endpoints: /metrics /events /status (HTTP) + JSON-line ops; "
              "SIGTERM drains and exits")
        return await service.serve_forever()

    return asyncio.run(_run())


def _service_client(args):
    from .service import ServiceClient

    return ServiceClient(args.socket, port=args.port, timeout=args.timeout)


def _cmd_submit(args) -> int:
    from .service import ServiceError

    client = _service_client(args)
    try:
        receipt = client.submit(
            args.workload,
            policy=args.policy,
            seed=args.seed,
            scale=args.scale,
            count=args.count,
            cluster=args.cluster,
            submit_s=args.submit_s,
            tag=args.tag,
        )
    except ServiceError as exc:
        raise SystemExit(f"submit rejected: {exc}")
    print(
        f"accepted {receipt['accepted']} job(s) on cluster "
        f"{receipt['cluster']!r} ({receipt['pending']} pending)"
    )
    return 0


def _cmd_status(args) -> int:
    import json

    from .service import ServiceError

    client = _service_client(args)
    try:
        if args.stop:
            client.shutdown(drain=True)
            print("shutdown requested (graceful drain)")
            return 0
        if args.metrics:
            print(client.metrics(), end="")
            return 0
        if args.tail:
            for line in client.tail(args.tail):
                print(line)
            return 0
        status = client.drain() if args.drain else client.status()
    except ServiceError as exc:
        raise SystemExit(f"status failed: {exc}")
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(
        f"service {status['service']!r} protocol v{status['protocol']} "
        f"({'accepting' if status['accepting'] else 'draining'})"
    )
    for name, row in status["clusters"].items():
        line = (
            f"  {name}: policy={row['policy']} submitted={row['submitted']} "
            f"completed={row['completed']} failed={row['failed']} "
            f"rejected={row['rejected']} pending={row['pending']} "
            f"queued={row['queued']} running={row['running']} "
            f"energy={row['energy_j'] / 1e6:.3f} MJ clock={row['clock_s']:.0f} s"
        )
        print(line)
        if "eargm" in row:
            g = row["eargm"]
            print(
                f"    eargm: {g['level']} horizon "
                f"{g['horizon_consumed_j'] / 1e6:.3f}/{g['budget_j'] / 1e6:.3f} MJ, "
                f"{g['horizons_completed']} horizon(s) completed"
            )
    ev = status["events"]
    print(
        f"  events: {ev['total']} total, {ev['buffered']} buffered, "
        f"{ev['dropped']} dropped"
    )
    if "cache" in status:
        c = status["cache"]
        print(
            f"  cache: {c['entries']} entries, {c['hits']} hits, "
            f"{c['misses']} misses, {c['evictions']} evictions"
        )
    return 0


def _default_cache_dir() -> pathlib.Path:
    """Persistent run-cache location: ``$REPRO_CACHE_DIR`` or ``results/.cache``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return pathlib.Path(env) if env else pathlib.Path("results") / ".cache"


def _configure_execution(args) -> None:
    """Install the CLI's execution pool: workers, cache, retry policy."""
    from .experiments.parallel import configure_defaults
    from .experiments.retry import RetryPolicy

    configure_defaults(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else _default_cache_dir(),
        use_cache=not args.no_cache,
        retry=RetryPolicy(max_attempts=args.retries, timeout_s=args.job_timeout),
    )


#: printed after a Ctrl-C/SIGTERM when the interrupted command left a
#: resumable journal behind; set by the journaling subcommands.
_RESUME_HINT: str | None = None


@contextlib.contextmanager
def _campaign_journal(args, cid: str, resume_label: str, **meta):
    """Open (or, with ``--resume``, reopen) a subcommand's campaign journal.

    Prints the resume line, arms the interrupt handler's resume hint,
    and writes the journal's trailer only when the body completes.
    """
    from .experiments.journal import CampaignJournal

    global _RESUME_HINT
    journal = CampaignJournal.for_campaign(
        cid, directory=args.journal_dir, resume=args.resume, meta=meta
    )
    if args.resume:
        print(f"{resume_label} {cid}: {journal.replay().describe()}")
    _RESUME_HINT = (
        f"campaign journal is safe at {journal.path}; "
        "rerun the same command with --resume to continue"
    )
    try:
        yield journal
        journal.finish()
    finally:
        journal.close()


# -- argument declarations shared by several subcommands ----------------------
# Each is called in place (not through ``parents=``, which would move the
# inherited arguments first and reorder docs/CLI.md).


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be > 0 and finite")
    return value


def _scale_flag(p, help: str | None = None) -> None:
    p.add_argument("--scale", type=_positive_float, default=1.0, help=help)


def _workload_flag(p, help: str | None = None) -> None:
    p.add_argument("-w", "--workload", required=True, help=help)


def _threshold_flags(p) -> None:
    """The eUFS policy thresholds, defaulting to :func:`standard_configs`'s."""
    th = standard_configs.__kwdefaults__
    p.add_argument("--cpu-th", type=float, default=th["cpu_policy_th"], dest="cpu_th")
    p.add_argument("--unc-th", type=float, default=th["unc_policy_th"], dest="unc_th")


def _node_flag(p) -> None:
    p.add_argument("--node", type=int, default=0, help="node to render (default 0)")


def _journal_dir_flag(p) -> None:
    p.add_argument(
        "--journal-dir",
        default=None,
        dest="journal_dir",
        help="campaign journal directory (default results/.journal)",
    )


def _client_flags(p) -> None:
    p.add_argument(
        "--socket",
        default="ear.sock",
        help="unix socket of the service (default ear.sock)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port of the service (overrides --socket)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="client I/O timeout in seconds (default 30)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro-ear`` argparse tree.

    Shared by :func:`main`, the docs generator (:func:`dump_docs`) and
    the docs-consistency checker (:mod:`repro.docscheck`), so the CLI,
    its reference documentation and the commands quoted in prose can
    never drift apart silently.
    """
    parser = argparse.ArgumentParser(
        prog="repro-ear",
        description="EAR explicit-UFS reproduction (CLUSTER 2021) on a simulated Skylake cluster",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for experiment execution (default 1 = serial; "
        "0 = all cores)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent run cache (default: results/.cache, "
        "override the location with REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=RunSpec.engine,
        help="simulation inner loop for the run, sweep and timeline "
        "subcommands: the scalar reference or the batched numpy kernel "
        "(equivalent within 1e-9; see benchmarks/test_perf.py)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per experiment before it is quarantined as a poison "
        "job (worker crashes and timeouts retry under seeded backoff)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        dest="job_timeout",
        help="per-experiment wall-clock limit in seconds (needs --jobs > 1; "
        "default: unlimited)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and policies").set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one workload under policies")
    _workload_flag(p_run)
    p_run.add_argument(
        "-p", "--policy", default="all", help="none|me|me_eufs|me_eufs_regions|all"
    )
    _threshold_flags(p_run)
    _scale_flag(p_run)
    p_run.add_argument(
        "--coefficients",
        default=None,
        help="fitted coefficient table (file) or directory of per-node-type "
        "tables; default: the analytic coefficients (see docs/MODELS.md)",
    )
    p_run.add_argument(
        "--uncore-backend",
        default=None,
        choices=["msr", "sysfs", "tpmi"],
        dest="uncore_backend",
        help="uncore control path to run the workload's node type on "
        "(default: the node type's own backend; SD530 uses msr)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_table = sub.add_parser("table", help="regenerate a paper table (1-7)")
    p_table.add_argument("number", type=int)
    _scale_flag(p_table)
    p_table.set_defaults(fn=_cmd_table)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure (1, 3-8)")
    p_fig.add_argument("number", type=int)
    _scale_flag(p_fig)
    p_fig.set_defaults(fn=_cmd_figure)

    p_sweep = sub.add_parser("sweep", help="fixed-uncore sweep for a workload")
    _workload_flag(p_sweep)
    p_sweep.add_argument("--cpu-ghz", type=float, default=2.4, dest="cpu_ghz")
    _scale_flag(p_sweep)
    p_sweep.add_argument(
        "--uncore-backend",
        default=None,
        choices=["msr", "sysfs", "tpmi"],
        dest="uncore_backend",
        help="uncore control path to sweep on (default: the node type's own)",
    )
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_res = sub.add_parser(
        "resilience", help="fault-injection sweep: graceful-degradation table"
    )
    p_res.add_argument(
        "-w",
        "--workload",
        default="BT-MZ.C",
        help="workload for the hardware sweep (ignored with --infra)",
    )
    p_res.add_argument("-p", "--policy", default="me_eufs", help="me|me_eufs")
    p_res.add_argument(
        "--intensities",
        default=None,
        help="comma-separated fault-intensity multipliers (default 0,0.5,1,2,4)",
    )
    p_res.add_argument(
        "--infra",
        action="store_true",
        help="sweep the control-plane fault channels instead (node crashes "
        "mid-job, EARDBD restarts) over a cluster campaign, reporting "
        "requeue/retry tallies per intensity",
    )
    p_res.add_argument(
        "--nodes", type=int, default=6, help="cluster size for --infra"
    )
    p_res.add_argument(
        "--n-jobs",
        type=int,
        default=10,
        dest="n_jobs",
        help="trace length for --infra",
    )
    _threshold_flags(p_res)
    _scale_flag(p_res)
    p_res.set_defaults(fn=_cmd_resilience)

    p_tl = sub.add_parser("timeline", help="ASCII frequency timeline of one run")
    _workload_flag(p_tl)
    p_tl.add_argument(
        "-p", "--policy", default="min_energy", help="registered policy name"
    )
    _threshold_flags(p_tl)
    _scale_flag(p_tl)
    _node_flag(p_tl)
    p_tl.set_defaults(fn=_cmd_timeline)

    p_tel = sub.add_parser(
        "telemetry",
        help="policy-descent + degradation-ladder timelines from a telemetry run",
    )
    _workload_flag(p_tel)
    p_tel.add_argument("-p", "--policy", default="me_eufs", help="none|me|me_eufs")
    p_tel.add_argument("--seed", type=int, default=1)
    _scale_flag(p_tel)
    _node_flag(p_tel)
    p_tel.add_argument(
        "--fault-intensity",
        type=float,
        default=0.0,
        dest="fault_intensity",
        help="scale the reference fault regime onto the run (default 0 = clean)",
    )
    _threshold_flags(p_tel)
    p_tel.add_argument("--jsonl", default=None, help="write the event stream as JSONL")
    p_tel.add_argument(
        "--metrics", default=None, help="write Prometheus-style text metrics"
    )
    p_tel.set_defaults(fn=_cmd_telemetry)

    p_cmp = sub.add_parser(
        "campaign", help="run the application list under EARGM budget control"
    )
    p_cmp.add_argument("--budget-mj", type=float, default=14.0, dest="budget_mj")
    p_cmp.add_argument("--horizon-s", type=float, default=4500.0, dest="horizon_s")
    _scale_flag(p_cmp)
    p_cmp.add_argument(
        "--accounting", default=None, help="export the accounting DB as JSON"
    )
    p_cmp.set_defaults(fn=_cmd_campaign)

    p_clu = sub.add_parser(
        "cluster",
        help="discrete-event cluster campaign: FCFS+backfill scheduler, "
        "EARDBD aggregation, EARGM actuation",
    )
    p_clu.add_argument("--nodes", type=int, default=8)
    p_clu.add_argument(
        "--node-mix",
        default=None,
        dest="node_mix",
        help="heterogeneous pool as <generation>=<count>[,...], e.g. "
        "skylake=8,graniterapids=8 (generations: skylake, broadwell, "
        "graniterapids); overrides --nodes and arms per-job telemetry",
    )
    p_clu.add_argument("--n-jobs", type=int, default=12, dest="n_jobs")
    p_clu.add_argument("--seed", type=int, default=0, help="trace seed")
    p_clu.add_argument(
        "-p",
        "--policy",
        default="compare",
        help="none|me|me_eufs|me_eufs_regions|compare (default: compare "
        "the paper's three)",
    )
    p_clu.add_argument(
        "--policies",
        default=None,
        help="explicit comma-separated comparison list, e.g. "
        "me_eufs,me_eufs_regions ('monitoring' aliases the no-policy "
        "baseline); overrides -p, first entry is the comparison reference "
        "when 'none' is absent",
    )
    p_clu.add_argument(
        "--interarrival-s",
        type=float,
        default=20.0,
        dest="interarrival_s",
        help="mean job inter-arrival time",
    )
    p_clu.add_argument(
        "--burst",
        type=float,
        default=0.25,
        help="fraction of jobs arriving together at t=0",
    )
    _scale_flag(p_clu)
    p_clu.add_argument(
        "--budget-mj",
        type=float,
        default=None,
        dest="budget_mj",
        help="EARGM energy budget (default: no budget control)",
    )
    p_clu.add_argument("--horizon-s", type=float, default=4500.0, dest="horizon_s")
    p_clu.add_argument(
        "--power-market",
        action="store_true",
        dest="power_market",
        help="run the EARGM power-cap market: jobs bid watts needed vs. "
        "saveable, caps are redistributed each flush interval, capped jobs "
        "descend the uncore ladder before CPU P-states (docs/POLICIES.md)",
    )
    p_clu.add_argument(
        "--budget-w",
        type=float,
        default=None,
        dest="budget_w",
        help="cluster power budget for --power-market in watts "
        "(default: derived as --budget-mj * 1e6 / --horizon-s)",
    )
    p_clu.add_argument(
        "--flush-interval-s",
        type=float,
        default=30.0,
        dest="flush_interval_s",
        help="EARDBD flush period in simulated seconds",
    )
    p_clu.add_argument(
        "--buffer-limit",
        type=int,
        default=256,
        dest="buffer_limit",
        help="EARDBD buffered node reports before drops",
    )
    p_clu.add_argument(
        "--no-backfill", action="store_true", help="pure FCFS (no backfill)"
    )
    p_clu.add_argument(
        "--fault-intensity",
        type=float,
        default=0.0,
        dest="fault_intensity",
        help="scale the reference fault regime onto every job (default 0)",
    )
    _threshold_flags(p_clu)
    p_clu.add_argument(
        "--summary", action="store_true", help="omit the per-job table"
    )
    p_clu.add_argument(
        "--accounting",
        default=None,
        help="export the last campaign's accounting DB as JSON (for eacct)",
    )
    p_clu.add_argument("--json", default=None, help="write the report(s) as JSON")
    p_clu.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted campaign from its journal (completed "
        "runs are served from the cache, not recomputed)",
    )
    _journal_dir_flag(p_clu)
    p_clu.set_defaults(fn=_cmd_cluster)

    p_acc = sub.add_parser(
        "eacct", help="query an exported accounting DB (eacct-style)"
    )
    p_acc.add_argument(
        "--db", required=True, help="accounting JSON written by cluster/campaign"
    )
    p_acc.add_argument("--job", type=int, default=None, help="one job id")
    p_acc.add_argument("--workload", default=None, help="filter by workload name")
    p_acc.add_argument("--policy", default=None, help="filter by policy name")
    p_acc.add_argument(
        "--json", action="store_true", dest="as_json", help="JSON instead of a table"
    )
    p_acc.set_defaults(fn=_cmd_eacct)

    p_exp = sub.add_parser("export", help="export a paper table as CSV")
    p_exp.add_argument("number", type=int, help="table number 1-7")
    p_exp.add_argument("-o", "--output", default=None, help="file (default stdout)")
    _scale_flag(p_exp)
    p_exp.set_defaults(fn=_cmd_export)

    p_learn = sub.add_parser(
        "learn",
        help="coefficient learning phase: grid runs -> least-squares fit "
        "-> held-out validation -> save",
    )
    p_learn.add_argument(
        "--node-type",
        default="sd530",
        choices=["sd530", "gpu", "broadwell", "graniterapids"],
        dest="node_type",
        help="node type to fit coefficients for (default sd530); "
        "graniterapids fits the TPMI-backed generation and saves a "
        "backend-qualified table",
    )
    p_learn.add_argument(
        "--grid",
        default="full",
        choices=["full", "coarse"],
        help="measurement grid: full (3 uncore points) or coarse "
        "(endpoints only, ~3x cheaper); both cover every P-state",
    )
    p_learn.add_argument(
        "--kernels",
        default=None,
        help="comma-separated subset of the training battery "
        "(default: the whole battery for the node type)",
    )
    p_learn.add_argument(
        "--out",
        default=None,
        help="coefficients directory (default results/coefficients; "
        "'none' fits without saving)",
    )
    p_learn.add_argument(
        "--validate",
        action="store_true",
        help="replay held-out workloads and refuse to save a table whose "
        "projection error exceeds the threshold",
    )
    p_learn.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum held-out relative projection error (default 0.20)",
    )
    p_learn.add_argument(
        "--scale",
        type=float,
        default=None,
        help="override the grid's workload scale",
    )
    p_learn.add_argument(
        "--jsonl", default=None, help="write the learning telemetry events as JSONL"
    )
    p_learn.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted campaign from its journal (completed "
        "grid points are served from the cache, not recomputed)",
    )
    _journal_dir_flag(p_learn)
    p_learn.set_defaults(fn=_cmd_learn)

    p_serve = sub.add_parser(
        "serve",
        help="persistent EAR service: streaming job submissions over a "
        "unix socket/TCP, incremental telemetry, Prometheus scrape endpoint",
    )
    p_serve.add_argument(
        "--socket",
        default="ear.sock",
        help="unix socket path to listen on (default ear.sock)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="also listen on TCP 127.0.0.1:PORT (default: unix socket only)",
    )
    p_serve.add_argument(
        "--name", default="default", help="service instance name (default 'default')"
    )
    p_serve.add_argument(
        "--n-nodes",
        type=int,
        default=8,
        dest="n_nodes",
        help="nodes per auto-created cluster (default 8)",
    )
    p_serve.add_argument(
        "--policy",
        default="me_eufs",
        choices=["none", "me", "me_eufs"],
        help="default EAR policy for auto-created clusters (default me_eufs)",
    )
    p_serve.add_argument(
        "--budget-mj",
        type=float,
        default=None,
        dest="budget_mj",
        help="EARGM energy budget per horizon in MJ (default: no budget)",
    )
    p_serve.add_argument(
        "--horizon-s",
        type=float,
        default=4500.0,
        dest="horizon_s",
        help="EARGM rolling-horizon length in seconds (default 4500)",
    )
    p_serve.add_argument(
        "--flush-interval-s",
        type=float,
        default=30.0,
        dest="flush_interval_s",
        help="EARDBD flush cadence in simulated seconds (default 30)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        dest="max_pending",
        help="per-cluster ingress bound; excess submissions are rejected "
        "with a backpressure error (default 1024)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=2,
        dest="max_inflight",
        help="concurrent blocking dispatches into the worker pool (default 2)",
    )
    p_serve.add_argument(
        "--no-journal",
        action="store_true",
        dest="no_journal",
        help="disable the write-ahead campaign journal",
    )
    p_serve.add_argument(
        "--no-fsync",
        action="store_true",
        dest="no_fsync",
        help="journal without fsync-per-record (faster, weaker crash safety)",
    )
    _journal_dir_flag(p_serve)
    p_serve.add_argument(
        "--resume",
        action="store_true",
        help="extend the previous journal for this service name; completed "
        "runs are served from the run cache, not re-simulated",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="stream job submissions to a running `repro-ear serve`"
    )
    _client_flags(p_submit)
    _workload_flag(p_submit, help="workload name (see `repro-ear list`)")
    p_submit.add_argument(
        "-p",
        "--policy",
        default=None,
        choices=["none", "me", "me_eufs"],
        help="EAR policy for the target cluster (only on first submission "
        "to a cluster; default: the server's --policy)",
    )
    p_submit.add_argument(
        "--seed", type=int, default=1, help="simulation seed (default 1)"
    )
    _scale_flag(p_submit, help="iteration-count scale for the workload (default 1.0)")
    p_submit.add_argument(
        "--count",
        type=int,
        default=1,
        help="submit N copies with consecutive seeds (default 1)",
    )
    p_submit.add_argument(
        "--cluster",
        default="default",
        help="target cluster name; unknown names auto-create a cluster",
    )
    p_submit.add_argument(
        "--submit-s",
        type=float,
        default=None,
        dest="submit_s",
        help="pin the arrival on the simulation clock (default: now)",
    )
    p_submit.add_argument(
        "--tag",
        type=int,
        default=None,
        help="client-side ordering key; pending jobs are admitted in "
        "(submit_s, tag) order",
    )
    p_submit.set_defaults(fn=_cmd_submit)

    p_svc_status = sub.add_parser(
        "status", help="query (or drain/stop) a running `repro-ear serve`"
    )
    _client_flags(p_svc_status)
    p_svc_status.add_argument(
        "--tail",
        type=int,
        default=0,
        metavar="N",
        help="print the last N telemetry event lines instead of the status",
    )
    p_svc_status.add_argument(
        "--metrics",
        action="store_true",
        help="print the Prometheus exposition text instead of the status",
    )
    p_svc_status.add_argument(
        "--drain",
        action="store_true",
        help="block until all submitted jobs have simulated, then report",
    )
    p_svc_status.add_argument(
        "--stop",
        action="store_true",
        help="request a graceful shutdown (drain, journal trailer, exit)",
    )
    p_svc_status.add_argument(
        "--json", action="store_true", help="print the raw status payload as JSON"
    )
    p_svc_status.set_defaults(fn=_cmd_status)

    return parser


def _escape_cell(text: str) -> str:
    """Make a help string safe inside a one-line markdown table cell."""
    return " ".join(text.split()).replace("|", "\\|")


def _invocation(action: argparse.Action) -> str:
    """Render one argument the way a user would type it."""
    if not action.option_strings:
        return str(action.metavar or action.dest)
    forms = ", ".join(action.option_strings)
    if action.nargs == 0:
        return forms
    metavar = action.metavar or action.dest.upper()
    return f"{forms} {metavar}"


def _default_cell(action: argparse.Action) -> str:
    if action.required:
        return "required"
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        return "off" if action.default is False else "on"
    if action.default is None or action.default is argparse.SUPPRESS:
        return "—"
    return f"`{action.default}`"


def _argument_table(actions: list[argparse.Action]) -> list[str]:
    rows = [
        a
        for a in actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    ]
    if not rows:
        return ["(no arguments)", ""]
    lines = ["| argument | default | description |", "| --- | --- | --- |"]
    for a in rows:
        choices = ""
        if a.choices:
            choices = " one of: " + ", ".join(f"`{c}`" for c in a.choices) + "."
        lines.append(
            f"| `{_escape_cell(_invocation(a))}` "
            f"| {_escape_cell(_default_cell(a))} "
            f"| {_escape_cell(a.help or '')}{choices} |"
        )
    lines.append("")
    return lines


def dump_docs(parser: argparse.ArgumentParser | None = None) -> str:
    """Render the whole CLI as markdown (the source of ``docs/CLI.md``).

    Walks the argparse tree directly instead of using
    ``format_usage``/``format_help``, whose line wrapping depends on
    the invoking terminal's width — generated docs must be byte-stable.
    """
    if parser is None:
        parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    help_of = {a.dest: (a.help or "") for a in sub._choices_actions}
    lines = [
        "<!-- Generated by `repro-ear --dump-docs` "
        "(`python -m repro.cli --dump-docs`). -->",
        "<!-- Do not edit by hand; CI fails when this file is stale. -->",
        "",
        f"# `{parser.prog}` command reference",
        "",
        str(parser.description),
        "",
        "Global options (before the subcommand):",
        "",
    ]
    lines += _argument_table(parser._actions)
    lines += ["Subcommands:", ""]
    for name in sub.choices:
        lines.append(f"- [`{parser.prog} {name}`](#repro-ear-{name}) — {help_of[name]}")
    lines.append("")
    for name, subparser in sub.choices.items():
        lines += [f"## `{parser.prog} {name}`", "", _escape_cell(help_of[name]) + ".", ""]
        lines += _argument_table(subparser._actions)
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-ear`` console script.

    Ctrl-C (and SIGTERM, which is converted to the same path) exits
    with the conventional code 130 and no traceback; journaling
    subcommands print a resume hint, since their write-ahead journals
    are fsync'd per record and therefore already safe on disk.
    """
    if argv is None:
        argv = sys.argv[1:]
    # --dump-docs has to short-circuit: the subcommand is otherwise required.
    if argv and argv[0] == "--dump-docs":
        print(dump_docs(), end="")
        return 0
    args = build_parser().parse_args(argv)
    if args.jobs == 0:
        args.jobs = os.cpu_count() or 1
    if args.jobs < 0:
        raise SystemExit("--jobs must be >= 0")
    if args.retries < 1:
        raise SystemExit("--retries must be >= 1")
    if args.job_timeout is not None and args.job_timeout <= 0:
        raise SystemExit("--timeout must be positive")
    _configure_execution(args)
    import signal

    def _sigterm(_signum, _frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # not the main thread (embedded use)
        previous = None
    try:
        return args.fn(args)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from None
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        if _RESUME_HINT:
            print(_RESUME_HINT, file=sys.stderr)
        sys.stdout.flush()
        sys.stderr.flush()
        # Skip interpreter thread shutdown: joining the executor threads
        # of an abandoned hung worker can block indefinitely or spew
        # spurious tracebacks over the clean exit message.
        os._exit(130)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
