//! The benchmark gate: runs the registered cases, writes one
//! `BENCH_<case>.json` per case into the current directory and gates
//! every row against the pin table in [`rstorm_bench::harness::GATES`].
//!
//! ```text
//! cargo run --release -p rstorm-bench --bin bench [CASE...]
//! ```
//!
//! With no arguments every case runs; otherwise only the named ones
//! (`sched sim chaos adaptive replay sweep scale fuzz network control`).
//! A case whose rows miss a gate is re-measured once in-process; a
//! second miss fails the run (exit 1). Each case's in-case asserts
//! (engine parity, zero loss, determinism, the planted bug found) panic
//! on the spot: they are correctness properties, not noisy samples.

use rstorm_bench::harness::{run_gated, Case};
use rstorm_cluster::{Cluster, ClusterBuilder, ResourceCapacity};
use rstorm_topology::{ExecutionProfile, Topology, TopologyBuilder};
use rstorm_workloads::cases::{fig8_cases, yahoo_cases, WorkloadCase};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Every case, in run order.
const CASES: [Case; 10] = [
    Case {
        name: "sched",
        file: "BENCH_sched.json",
        title: "scheduling latency (median wall time per schedule)",
        unit: "ns",
        run: sched::rows,
    },
    Case {
        name: "sim",
        file: "BENCH_sim.json",
        title: "simulation wall time (median per full run)",
        unit: "ns",
        run: sim::rows,
    },
    Case {
        name: "chaos",
        file: "BENCH_chaos.json",
        title: "crash-then-recover chaos scenario (quick sim)",
        unit: "ns",
        run: chaos::rows,
    },
    Case {
        name: "adaptive",
        file: "BENCH_adaptive.json",
        title: "adaptive rebalance vs static placement (quick sim)",
        unit: "tuples",
        run: adaptive::rows,
    },
    Case {
        name: "replay",
        file: "BENCH_replay.json",
        title: "spout replay under crash-then-recover (quick sim)",
        unit: "ns",
        run: replay::rows,
    },
    Case {
        name: "sweep",
        file: "BENCH_sweep.json",
        title: "Monte-Carlo scenario sweep (quick grid)",
        unit: "ns",
        run: sweep::rows,
    },
    Case {
        name: "scale",
        file: "BENCH_scale.json",
        title: "scale plane wall time (median per full run)",
        unit: "ns",
        run: scale::rows,
    },
    Case {
        name: "fuzz",
        file: "BENCH_fuzz.json",
        title: "Invariant-directed chaos fuzzer",
        unit: "ns",
        run: fuzz::rows,
    },
    Case {
        name: "network",
        file: "BENCH_network.json",
        title: "fair-share network plane (trunk contention)",
        unit: "ns",
        run: network::rows,
    },
    Case {
        name: "control",
        file: "BENCH_control.json",
        title: "Control-plane fault domain",
        unit: "ns",
        run: control::rows,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected = Vec::new();
    for arg in &args {
        match CASES.iter().find(|c| c.name == arg) {
            Some(case) => selected.push(case),
            None => {
                let names: Vec<_> = CASES.iter().map(|c| c.name).collect();
                eprintln!("bench: unknown case {arg:?} (cases: {})", names.join(" "));
                return ExitCode::FAILURE;
            }
        }
    }
    if selected.is_empty() {
        selected = CASES.iter().collect();
    }

    let mut gated = 0;
    let mut errors = Vec::new();
    for case in selected {
        match run_gated(case, Path::new(".")) {
            Ok(n) => gated += n,
            Err(e) => errors.push(e),
        }
    }
    if errors.is_empty() {
        println!("bench: {gated} gated row(s) pass");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("bench: {e}");
        }
        ExitCode::FAILURE
    }
}

/// Workers on the parallel side of the sweep and fuzz pools: all cores,
/// capped at the 8 the sweep's acceptance target is quoted for.
fn parallel_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The fig8 or Yahoo workload case called `name`.
fn paper_case(name: &str) -> WorkloadCase {
    fig8_cases()
        .into_iter()
        .chain(yahoo_cases())
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("{name} case exists"))
}

/// The split workload of the fuzz and control cases: two racks of two
/// Emulab-profile nodes (enough topology for rack partitions and crash
/// bursts to differ, small enough to stay fast), and a topology named
/// `id` whose two components cannot colocate (1.4 GB each on 2 GB
/// nodes). The spout-to-sink path always crosses nodes, so node faults
/// genuinely disturb the data plane, and the spout stays alive when the
/// sink's node crashes.
fn split_workload(id: &str) -> (Arc<Cluster>, Topology) {
    let cluster = ClusterBuilder::new()
        .homogeneous_racks(2, 2, ResourceCapacity::emulab_node(), 4)
        .build()
        .expect("2x2 emulab cluster builds");
    let mut b = TopologyBuilder::new(id);
    b.set_spout("src", 1)
        .set_profile(ExecutionProfile::network_bound(100))
        .set_cpu_load(20.0)
        .set_memory_load(1_400.0);
    b.set_bolt("sink", 1)
        .shuffle_grouping("src")
        .set_profile(ExecutionProfile::network_bound(100).into_sink())
        .set_cpu_load(20.0)
        .set_memory_load(1_400.0);
    (Arc::new(cluster), b.build().expect("split topology builds"))
}

/// Scheduling latency (§3's "snappy" requirement): how much quicker the
/// indexed/undo-log `RStormScheduler` is than the scan/clone
/// `ReferenceRStormScheduler` it is bit-for-bit equivalent to, with the
/// even scheduler alongside, on chains of 40 to 10 000 tasks plus the
/// reschedule-after-node-failure path. Median wall time per schedule.
mod sched {
    use rstorm_bench::harness::{median_ns, Row};
    use rstorm_cluster::{Cluster, ClusterBuilder, ResourceCapacity};
    use rstorm_core::schedulers::EvenScheduler;
    use rstorm_core::{GlobalState, RStormScheduler, ReferenceRStormScheduler, Scheduler};
    use rstorm_topology::{Topology, TopologyBuilder};
    use std::time::Duration;

    /// A linear topology with `stages` components of `parallelism` tasks.
    fn chain(stages: u32, parallelism: u32) -> Topology {
        let mut b = TopologyBuilder::new(format!("chain-{stages}x{parallelism}"));
        b.set_spout("c0", parallelism)
            .set_cpu_load(10.0)
            .set_memory_load(64.0);
        for i in 1..stages {
            b.set_bolt(format!("c{i}"), parallelism)
                .shuffle_grouping(format!("c{}", i - 1))
                .set_cpu_load(10.0)
                .set_memory_load(64.0);
        }
        b.build().expect("valid")
    }

    fn cluster(racks: u32, nodes_per_rack: u32) -> Cluster {
        ClusterBuilder::new()
            .homogeneous_racks(
                racks,
                nodes_per_rack,
                ResourceCapacity::for_machine(16, 65536.0),
                4,
            )
            .build()
            .expect("valid")
    }

    fn row(
        name: &str,
        topology: &Topology,
        cl: &Cluster,
        rstorm_ns: u64,
        reference_ns: u64,
        even_ns: Option<u64>,
    ) -> Row {
        let mut row = Row::new(name)
            .with("tasks", topology.task_set().len())
            .with("nodes", cl.nodes().len())
            .with("rstorm_ns", rstorm_ns)
            .with("rstorm_reference_ns", reference_ns);
        if let Some(even_ns) = even_ns {
            row = row.with("even_ns", even_ns);
        }
        row.fixed(
            "speedup_vs_reference",
            reference_ns as f64 / rstorm_ns as f64,
            2,
        )
    }

    fn time_schedulers(name: &str, topology: &Topology, cl: &Cluster, budget: Duration) -> Row {
        let time = |scheduler: &dyn Scheduler| {
            median_ns(
                || GlobalState::new(cl),
                |mut state| {
                    scheduler
                        .schedule(topology, cl, &mut state)
                        .expect("feasible");
                },
                budget,
            )
        };
        let rstorm_ns = time(&RStormScheduler::new());
        let reference_ns = time(&ReferenceRStormScheduler::new());
        let even_ns = time(&EvenScheduler::new());
        row(name, topology, cl, rstorm_ns, reference_ns, Some(even_ns))
    }

    /// The operationally critical path: a node dies, its topology must be
    /// released and replaced on the survivors.
    fn time_reschedule(budget: Duration) -> Row {
        let topology = chain(5, 40);
        let base = cluster(2, 12);
        let reschedule = |scheduler: &dyn Scheduler| {
            let mut killed = base.clone();
            let mut state = GlobalState::new(&killed);
            scheduler
                .schedule(&topology, &killed, &mut state)
                .expect("feasible");
            killed.kill_node("rack-0-node-0");
            (killed, state)
        };
        let run = |scheduler: &dyn Scheduler, (cl, mut state): (Cluster, GlobalState)| {
            for t in state.handle_node_failure("rack-0-node-0") {
                state.release_topology(t.as_str());
            }
            scheduler
                .schedule(&topology, &cl, &mut state)
                .expect("survivors suffice");
        };
        let fast = RStormScheduler::new();
        let reference = ReferenceRStormScheduler::new();
        let rstorm_ns = median_ns(|| reschedule(&fast), |input| run(&fast, input), budget);
        let reference_ns = median_ns(
            || reschedule(&reference),
            |input| run(&reference, input),
            budget,
        );
        row(
            "reschedule_after_node_failure",
            &topology,
            &base,
            rstorm_ns,
            reference_ns,
            None,
        )
    }

    pub fn rows() -> Vec<Row> {
        // Per-scheduler-per-case sampling budget. 5 cases × up to 3
        // timers each keeps the whole run comfortably under 30 s even
        // when the reference scheduler needs ~1 s per 10k-task schedule.
        let budget = Duration::from_millis(800);
        let mut rows = Vec::new();
        for (stages, parallelism, racks, nodes) in [
            (4u32, 10u32, 2u32, 6u32),
            (5, 40, 2, 12),
            (10, 100, 4, 16),
            (20, 500, 8, 32),
        ] {
            let topology = chain(stages, parallelism);
            let cl = cluster(racks, nodes);
            let name = format!("schedule/{}t_{}n", stages * parallelism, racks * nodes);
            rows.push(time_schedulers(&name, &topology, &cl, budget));
        }
        rows.push(time_reschedule(budget));
        rows
    }
}

/// Simulator wall time: how much quicker the dense-id/slab/precomputed-
/// routing `Simulation` is than the string-keyed `ReferenceSimulation`
/// it is bit-for-bit equivalent to, on the fig8 micro benchmarks and the
/// Yahoo PageLoad layout at `SimConfig::quick()`, plus one long-horizon
/// case. Both engines must produce identical reports before timing.
mod sim {
    use rstorm_bench::harness::{median_ns, Row};
    use rstorm_bench::schedule_fresh;
    use rstorm_core::RStormScheduler;
    use rstorm_sim::{ReferenceSimulation, SimConfig, Simulation};
    use rstorm_workloads::cases::{fig8_cases, WorkloadCase};
    use std::sync::Arc;
    use std::time::Duration;

    fn run_case(case: &WorkloadCase, config: &SimConfig, budget: Duration, suffix: &str) -> Row {
        let name = format!("{}{suffix}", case.name);
        let topology = &case.topology;
        let cluster = Arc::new(case.cluster.clone());
        let assignment = schedule_fresh(&RStormScheduler::new(), topology, &cluster);
        let build_fast = || {
            let mut sim = Simulation::new(Arc::clone(&cluster), config.clone());
            sim.add_topology(topology, &assignment);
            sim
        };
        let build_reference = || {
            let mut sim = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
            sim.add_topology(topology, &assignment);
            sim
        };

        // Parity gate: a fast engine that diverges from the reference is
        // not worth timing.
        let fast_report = build_fast().run();
        let reference_report = build_reference().run();
        assert_eq!(
            fast_report, reference_report,
            "{name}: fast and reference engines disagree"
        );

        let fast_ns = median_ns(
            build_fast,
            |sim| {
                std::hint::black_box(sim.run());
            },
            budget,
        );
        let reference_ns = median_ns(
            build_reference,
            |sim| {
                std::hint::black_box(sim.run());
            },
            budget,
        );
        Row::new(name)
            .with("tasks", topology.task_set().len())
            .with("nodes", cluster.nodes().len())
            .fixed("sim_ms", config.sim_time_ms, 0)
            .with("events", fast_report.debug.events)
            .with("fast_ns", fast_ns)
            .with("reference_ns", reference_ns)
            .fixed(
                "fast_ns_per_sim_second",
                fast_ns as f64 / (config.sim_time_ms / 1000.0),
                0,
            )
            .fixed(
                "speedup_vs_reference",
                reference_ns as f64 / fast_ns as f64,
                2,
            )
    }

    pub fn rows() -> Vec<Row> {
        // Per-engine-per-case sampling budget; 6 cases × 2 engines keeps
        // the whole run under ~30 s in release.
        let budget = Duration::from_millis(900);
        let quick = SimConfig::quick();
        // One long-horizon case: steady state dominates, which is where
        // the pooled slab and precomputed routes pay off most.
        let long = SimConfig::quick().with_sim_time_ms(600_000.0);

        let mut rows = Vec::new();
        for case in fig8_cases() {
            rows.push(run_case(&case, &quick, budget, ""));
        }
        rows.push(run_case(
            &super::paper_case("page_load"),
            &quick,
            budget,
            "",
        ));
        rows.push(run_case(
            &super::paper_case("linear_net"),
            &long,
            budget,
            "_long",
        ));
        rows
    }
}

/// One crash-then-recover scenario (`rstorm_sim::run_scenario`) on
/// the fig8 Linear network-bound case and the Yahoo PageLoad layout.
/// Two gates run per case before anything is timed:
///
/// * **Parity** — a fast run with an *empty* [`FaultPlan`] must be
///   bit-identical to the fault-free `ReferenceSimulation` (the fault
///   hooks must cost nothing when unused, in bits as well as time).
/// * **Recovery** — the scenario must detect the crash and fully re-place
///   the topology, with a clean verified plan.
///
/// The timed comparison pits the fault-injected fast run against the
/// fault-free reference run: the reference engine models no faults, so
/// this measures what the outage scenario costs relative to the baseline
/// engine on the same workload.
///
/// [`FaultPlan`]: rstorm_sim::FaultPlan
mod chaos {
    use rstorm_bench::harness::{median_ns, Row};
    use rstorm_bench::schedule_fresh;
    use rstorm_core::{verify_plan, RStormScheduler, RecoveryConfig};
    use rstorm_sim::{
        run_scenario, ChaosConfig, FaultPlan, ReferenceSimulation, SimConfig, Simulation,
    };
    use rstorm_workloads::cases::WorkloadCase;
    use std::sync::Arc;
    use std::time::Duration;

    const CRASH_AT_MS: f64 = 20_000.0;
    const HEAL_AT_MS: f64 = 35_000.0;

    fn run_case(case: &WorkloadCase, budget: Duration) -> Row {
        let cluster = Arc::new(case.cluster.clone());
        let assignment = schedule_fresh(&RStormScheduler::new(), &case.topology, &cluster);
        let config = SimConfig::quick();

        // Parity gate: unused fault hooks must be bit-free.
        let mut faultless = Simulation::new(Arc::clone(&cluster), config.clone());
        faultless.add_topology(&case.topology, &assignment);
        faultless.set_fault_plan(FaultPlan::new());
        let mut reference = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
        reference.add_topology(&case.topology, &assignment);
        assert_eq!(
            faultless.run(),
            reference.run(),
            "{}: empty fault plan diverges from the reference engine",
            case.name
        );

        // The scenario: crash the node hosting tasks a third of the way
        // in, heal it 15 s later.
        let victim = assignment.iter().next().unwrap().1.node.as_str().to_owned();
        let mut cfg = ChaosConfig::new(&victim, CRASH_AT_MS, HEAL_AT_MS);
        cfg.sim = config.clone();
        cfg.recovery = RecoveryConfig::default();
        let out = run_scenario(&cluster, &case.topology, &cfg, &RStormScheduler::new())
            .expect("chaos case runs");

        // Recovery gate: detected, fully re-placed, clean plan.
        let obs = out.observations;
        assert!(
            obs.time_to_detect_ms > 0.0,
            "{}: crash undetected",
            case.name
        );
        assert!(
            obs.time_to_recover_ms >= obs.time_to_detect_ms,
            "{}: not fully recovered ({obs:?})",
            case.name
        );
        let violations = verify_plan(&out.plan, &[&case.topology], &cluster);
        assert!(violations.is_empty(), "{}: {violations:?}", case.name);

        let fast_ns = median_ns(
            || {
                let mut sim = Simulation::new(Arc::clone(&cluster), config.clone());
                sim.add_topology(&case.topology, &assignment);
                sim.set_fault_plan(sim_plan(&victim, obs.time_to_detect_ms));
                sim
            },
            |sim| {
                std::hint::black_box(sim.run());
            },
            budget,
        );
        let reference_ns = median_ns(
            || {
                let mut sim = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
                sim.add_topology(&case.topology, &assignment);
                sim
            },
            |sim| {
                std::hint::black_box(sim.run());
            },
            budget,
        );

        Row::new(case.name)
            .with("tasks", case.topology.task_set().len())
            .with("nodes", cluster.nodes().len())
            .fixed("sim_ms", config.sim_time_ms, 0)
            .fixed("crash_at_ms", obs.crash_at_ms, 0)
            .fixed("time_to_detect_ms", obs.time_to_detect_ms, 0)
            .fixed("time_to_recover_ms", obs.time_to_recover_ms, 0)
            .with("tuples_lost", obs.tuples_lost)
            .fixed("throughput_dip_depth", obs.throughput_dip_depth, 3)
            .with("reschedule_attempts", obs.reschedule_attempts)
            .with("fast_ns", fast_ns)
            .with("reference_ns", reference_ns)
            .fixed(
                "speedup_vs_reference",
                reference_ns as f64 / fast_ns as f64,
                2,
            )
    }

    /// The data-plane fault plan of the scenario, for re-timing: crash at
    /// the configured time, workers back once the control plane
    /// re-placed.
    fn sim_plan(victim: &str, time_to_detect_ms: f64) -> FaultPlan {
        let mut plan = FaultPlan::new().crash_node(CRASH_AT_MS, victim);
        let resched_at = CRASH_AT_MS + time_to_detect_ms;
        if resched_at > CRASH_AT_MS {
            plan = plan.recover_node(resched_at, victim);
        }
        plan
    }

    pub fn rows() -> Vec<Row> {
        let budget = Duration::from_millis(900);
        ["linear_net", "page_load"]
            .map(|name| run_case(&super::paper_case(name), budget))
            .into()
    }
}

/// The full profile → detect → migrate pipeline
/// (`rstorm_sim::run_adaptive_rebalance`) on the drifted-declaration
/// workloads. Gates per case:
///
/// * **Detection** — the under-declared hot component must be flagged and
///   at least one node must run saturated.
/// * **Minimality** — the delta scheduler's plan must not move more tasks
///   than a reschedule-from-scratch of the refined topology would.
/// * **Net win** — the adaptive run must complete strictly more tuples
///   than the static run over the same horizon, *net* of the per-task
///   pause/drain/restore cost the migration pays mid-run.
///
/// `speedup_vs_reference` is `adaptive_net / static_net`, so the shared
/// speedup gate enforces "adaptive at least as good as static on every
/// drifted case".
mod adaptive {
    use rstorm_bench::harness::Row;
    use rstorm_sim::{run_adaptive_rebalance, AdaptiveConfig};
    use rstorm_workloads::cases::{drifted_cases, WorkloadCase};
    use std::sync::Arc;

    fn run_case(case: &WorkloadCase) -> Row {
        let cluster = Arc::new(case.cluster.clone());
        let cfg = AdaptiveConfig::quick();
        let out = run_adaptive_rebalance(&cluster, &case.topology, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));

        // Detection gate: the drift these workloads embed must be seen.
        assert!(
            !out.drift.is_clean(),
            "{}: no drift detected on a drifted workload",
            case.name
        );
        assert!(
            !out.drift.saturated_nodes.is_empty(),
            "{}: no node saturated despite the packed hot component ({:?})",
            case.name,
            out.profile_report.node_utilization
        );

        // Minimality gate: the whole point of the delta scheduler.
        assert!(!out.plan.is_empty(), "{}: empty migration plan", case.name);
        assert!(
            out.plan.len() <= out.rescheduled_moves,
            "{}: delta plan moves {} tasks, full reschedule only {}",
            case.name,
            out.plan.len(),
            out.rescheduled_moves
        );

        // Net-win gate: migration must pay for itself inside the horizon.
        assert!(
            out.adaptive_net() > out.static_net(),
            "{}: adaptive {} <= static {} net tuples",
            case.name,
            out.adaptive_net(),
            out.static_net()
        );

        Row::new(case.name)
            .with("tasks", case.topology.task_set().len())
            .with("nodes", cluster.nodes().len())
            .fixed("sim_ms", cfg.sim.sim_time_ms, 0)
            .with("drifted_components", out.drift.drifted.len())
            .with("plan_moves", out.plan.len())
            .with("reschedule_moves", out.rescheduled_moves)
            .with("static_net", out.static_net())
            .with("adaptive_net", out.adaptive_net())
            .with("rescheduled_net", out.rescheduled_net())
            .fixed(
                "speedup_vs_reference",
                out.adaptive_net() as f64 / out.static_net() as f64,
                2,
            )
    }

    pub fn rows() -> Vec<Row> {
        drifted_cases().iter().map(run_case).collect()
    }
}

/// The chaos case's crash-then-recover scenario (crash a tasked node a
/// third of the way in, heal it 15 s later) with spout replay enabled
/// (`max_replays = 8`), on the fig8 Linear network-bound case and the
/// Yahoo PageLoad layout. Three gates run per case before anything is
/// timed:
///
/// * **Parity** — a replay-*disabled* run with an empty [`FaultPlan`]
///   must be bit-identical to the fault-free `ReferenceSimulation` (the
///   replay hooks must cost nothing when unused, in bits as well as
///   time).
/// * **Zero loss** — with replay enabled, the survivable outage must
///   quarantine nothing: every root that settled within the run acked,
///   i.e. `zero_loss_ratio == 1.0`.
/// * **Replay exercised** — the scenario must actually replay roots
///   (`roots_replayed > 0`), so the gate cannot pass vacuously.
///
/// The timed comparison pits the replay-enabled fault-injected fast run
/// against the fault-free reference run: the reference engine models
/// neither faults nor replay, so this measures what guaranteed
/// processing under an outage costs relative to the baseline engine on
/// the same workload.
///
/// [`FaultPlan`]: rstorm_sim::FaultPlan
mod replay {
    use rstorm_bench::harness::{median_ns, Row};
    use rstorm_bench::schedule_fresh;
    use rstorm_core::RStormScheduler;
    use rstorm_sim::{FaultPlan, ReferenceSimulation, SimConfig, Simulation};
    use rstorm_workloads::cases::WorkloadCase;
    use std::sync::Arc;
    use std::time::Duration;

    const MAX_REPLAYS: u32 = 8;
    const CRASH_AT_MS: f64 = 20_000.0;
    const RECOVER_AT_MS: f64 = 35_000.0;

    fn run_case(case: &WorkloadCase, budget: Duration) -> Row {
        let cluster = Arc::new(case.cluster.clone());
        let assignment = schedule_fresh(&RStormScheduler::new(), &case.topology, &cluster);
        let config = SimConfig::quick();

        // Parity gate: replay disabled + no faults must be bit-free.
        let mut faultless = Simulation::new(Arc::clone(&cluster), config.clone());
        faultless.add_topology(&case.topology, &assignment);
        faultless.set_fault_plan(FaultPlan::new());
        let mut reference = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
        reference.add_topology(&case.topology, &assignment);
        assert_eq!(
            faultless.run(),
            reference.run(),
            "{}: replay-disabled run diverges from the reference engine",
            case.name
        );

        // The survivable outage: crash the node hosting tasks a third of
        // the way in, heal it 15 s later — inside the 30 s tuple timeout,
        // so one replay per interrupted root suffices.
        let victim = assignment.iter().next().unwrap().1.node.as_str().to_owned();
        let plan = FaultPlan::new()
            .crash_node(CRASH_AT_MS, &victim)
            .recover_node(RECOVER_AT_MS, &victim);
        let replay_config = config.clone().with_max_replays(MAX_REPLAYS);

        let mut sim = Simulation::new(Arc::clone(&cluster), replay_config.clone());
        sim.add_topology(&case.topology, &assignment);
        sim.set_fault_plan(plan.clone());
        let report = sim.run();
        let totals = &report.totals;

        // Zero-loss gate: a survivable fault must quarantine nothing, and
        // every settled root must have acked.
        assert!(
            totals.roots_replayed > 0,
            "{}: the outage scenario exercised no replays",
            case.name
        );
        assert_eq!(
            report.tuples_quarantined(),
            0,
            "{}: survivable fault quarantined tuples",
            case.name
        );
        let zero_loss_ratio = report.zero_loss_ratio();
        assert!(
            zero_loss_ratio == 1.0,
            "{}: zero-loss ratio {zero_loss_ratio} != 1.0",
            case.name
        );

        let fast_ns = median_ns(
            || {
                let mut sim = Simulation::new(Arc::clone(&cluster), replay_config.clone());
                sim.add_topology(&case.topology, &assignment);
                sim.set_fault_plan(plan.clone());
                sim
            },
            |sim| {
                std::hint::black_box(sim.run());
            },
            budget,
        );
        let reference_ns = median_ns(
            || {
                let mut sim = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
                sim.add_topology(&case.topology, &assignment);
                sim
            },
            |sim| {
                std::hint::black_box(sim.run());
            },
            budget,
        );

        Row::new(case.name)
            .with("tasks", case.topology.task_set().len())
            .with("nodes", cluster.nodes().len())
            .fixed("sim_ms", config.sim_time_ms, 0)
            .with("max_replays", MAX_REPLAYS)
            .with("roots_emitted", totals.roots_emitted)
            .with("roots_replayed", totals.roots_replayed)
            .with("tuples_quarantined", totals.tuples_quarantined)
            .fixed("zero_loss_ratio", zero_loss_ratio, 3)
            .with("fast_ns", fast_ns)
            .with("reference_ns", reference_ns)
            .fixed(
                "speedup_vs_reference",
                reference_ns as f64 / fast_ns as f64,
                2,
            )
    }

    pub fn rows() -> Vec<Row> {
        let budget = Duration::from_millis(900);
        ["linear_net", "page_load"]
            .map(|name| run_case(&super::paper_case(name), budget))
            .into()
    }
}

/// The quick scenario grid (2 workloads × 2 schedulers × healthy/
/// crash-recover × 8 seeds, 60 s sims) run twice — once on a single
/// worker, once on `parallel_workers()` — reporting the aggregated
/// distributions plus the parallel speedup. Gates:
///
/// * **Determinism under parallelism** — the aggregated JSON payload of
///   the two runs must be byte-identical: worker count must never leak
///   into results.
/// * **Zero loss** — every group of the quick grid is survivable, so
///   every group must report `zero_loss_ratio == 1.0` across all seeds.
/// * **Detection** — every crash group must have measured real detect
///   and recover latencies (no sentinel leaking into a crash group).
///
/// The `sweep/parallel_speedup` row reports serial-vs-parallel wall
/// time. On a single-core machine the pool degenerates to one worker
/// both times, so the speedup is reported as exactly 1.0 (same
/// configuration twice — measuring it would only report scheduler
/// noise). On an 8-core runner the quick grid targets ≥ 6x.
mod sweep {
    use rstorm_bench::harness::{Row, Value};
    use rstorm_sim::sweep::{run_sweep, SweepGroup};
    use rstorm_sim::SeedRange;
    use rstorm_workloads::sweep::quick_grid;

    /// One group's row, key for key the line of
    /// [`SweepGroup::json_line`]: `zero_loss_ratio` appears only on
    /// survivable groups, where it is pinned.
    pub(super) fn group_row(g: &SweepGroup) -> Row {
        let row = Row::new(&g.name)
            .with("seeds", g.seeds)
            .with("survivable", g.survivable)
            .with("net_mean", g.net_mean)
            .with("net_stdev", g.net_stdev)
            .with("detect_p50_ms", g.detect_ms.p50)
            .with("detect_p90_ms", g.detect_ms.p90)
            .with("detect_p99_ms", g.detect_ms.p99)
            .with("recover_p50_ms", g.recover_ms.p50)
            .with("recover_p90_ms", g.recover_ms.p90)
            .with("recover_p99_ms", g.recover_ms.p99)
            .with("lost_hist", Value::Counts(g.lost_hist.to_vec()));
        if g.survivable {
            row.with("zero_loss_ratio", g.zero_loss_min)
        } else {
            row
        }
    }

    pub fn rows() -> Vec<Row> {
        let grid = quick_grid(SeedRange::new(0, 8).expect("0..8 is a valid range"));
        let serial = run_sweep(&grid, 1);
        let parallel = run_sweep(&grid, super::parallel_workers());

        // Determinism gate: worker count must never leak into the payload.
        assert_eq!(
            serial.summary.to_json(),
            parallel.summary.to_json(),
            "aggregated sweep payload differs between 1 and {} workers",
            parallel.workers
        );

        // Zero-loss and detection gates over every group of the quick grid.
        for g in &serial.summary.groups {
            assert!(g.survivable, "the quick grid must stay survivable");
            assert_eq!(
                g.zero_loss_min, 1.0,
                "{}: a survivable scenario lost settled roots",
                g.name
            );
            if g.name.ends_with("/crash_recover") {
                assert!(g.detect_ms.p99 > 0.0, "{}: crash undetected", g.name);
                assert!(
                    g.recover_ms.p99 >= g.detect_ms.p50,
                    "{}: not fully re-placed",
                    g.name
                );
            }
        }

        let serial_ns = serial.wall.as_nanos() as u64;
        let parallel_ns = parallel.wall.as_nanos() as u64;
        // One worker on both sides is the same configuration twice;
        // timing noise is not a speedup, so the degenerate case pins 1.0.
        let speedup = if parallel.workers == 1 {
            1.0
        } else {
            serial_ns as f64 / parallel_ns as f64
        };

        let mut rows = vec![Row::new("sweep/parallel_speedup")
            .with("jobs", serial.summary.jobs)
            .with("workers", parallel.workers)
            .with("serial_ns", serial_ns)
            .with("parallel_ns", parallel_ns)
            .fixed("speedup_vs_reference", speedup, 2)];
        rows.extend(serial.summary.groups.iter().map(group_row));
        rows
    }
}

/// The 10k-task / 1k-node scale plane, two rows:
///
/// * **`scale/base`** — the plain scale topology, fast engine vs the
///   string-keyed `ReferenceSimulation` (identical reports asserted
///   before timing).
/// * **`scale/churn`** — the migration-churn variant: ~100 composed
///   `DeltaScheduler` plans applied across the run. The fast engine runs
///   twice — the production engine, which patches routing, and the
///   full-rebuild oracle (`Simulation::full_rebuild_oracle`, a full
///   rebuild per migration) — with bit-identical reports asserted
///   (`routing_parity`) before timing. The full-vs-patched ratio is
///   reported under the `speedup_vs_reference` key so the shared
///   speedup gate (≥ 1.0) applies to it unchanged. A full rebuild only rewrites each
///   component's shared rows, so the ratio is small.
///
/// `SCALE_SMOKE_HORIZON_MS` trims the simulated horizon (default
/// 60 000 ms — one tenth of the workload's full 10-minute case — so the
/// reference engine stays affordable; CI trims further). The migration
/// count is horizon-independent, so the churn gate is unaffected. The
/// reference engine is skipped entirely for the churn row: the
/// patched-vs-full comparison is internal to the fast engine.
mod scale {
    use rstorm_bench::harness::{median_ns, Row};
    use rstorm_bench::schedule_fresh;
    use rstorm_core::RStormScheduler;
    use rstorm_sim::{ReferenceSimulation, SimConfig, Simulation};
    use rstorm_workloads::scale::{
        churn_plans, scale_cluster, scale_topology, schedule_churn, SCALE_CHURN_ROUNDS,
        SCALE_NODES, SCALE_TASKS,
    };
    use std::sync::Arc;
    use std::time::Duration;

    fn horizon_ms() -> f64 {
        std::env::var("SCALE_SMOKE_HORIZON_MS")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|h| h.is_finite() && *h > 0.0)
            .unwrap_or(60_000.0)
    }

    pub fn rows() -> Vec<Row> {
        let horizon = horizon_ms();
        let budget = Duration::from_millis(1500);
        let topology = scale_topology(SCALE_TASKS);
        let cluster = Arc::new(scale_cluster(SCALE_NODES));
        let config = SimConfig::default().with_sim_time_ms(horizon);

        // ---- scale/base: fast engine vs reference oracle ---------------
        let assignment = schedule_fresh(&RStormScheduler::new(), &topology, &cluster);
        let build_fast = || {
            let mut sim = Simulation::new(Arc::clone(&cluster), config.clone());
            sim.add_topology(&topology, &assignment);
            sim
        };
        let build_reference = || {
            let mut sim = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
            sim.add_topology(&topology, &assignment);
            sim
        };
        let fast_report = build_fast().run();
        let reference_report = build_reference().run();
        assert_eq!(
            fast_report, reference_report,
            "scale/base: fast and reference engines disagree"
        );
        let fast_ns = median_ns(
            build_fast,
            |sim| {
                std::hint::black_box(sim.run());
            },
            budget,
        );
        let reference_ns = median_ns(
            build_reference,
            |sim| {
                std::hint::black_box(sim.run());
            },
            budget,
        );
        let base = Row::new("scale/base")
            .with("tasks", SCALE_TASKS)
            .with("nodes", SCALE_NODES)
            .fixed("sim_ms", horizon, 0)
            .with("events", fast_report.debug.events)
            .with("fast_ns", fast_ns)
            .with("reference_ns", reference_ns)
            .fixed(
                "speedup_vs_reference",
                reference_ns as f64 / fast_ns as f64,
                2,
            );

        // ---- scale/churn: patched routing vs the full-rebuild oracle ----
        let (churn_assignment, plans) = churn_plans(&topology, &cluster, SCALE_CHURN_ROUNDS);
        let migrations: usize = plans.iter().map(|p| p.len()).sum();
        assert!(
            plans.len() >= SCALE_CHURN_ROUNDS as usize / 2,
            "churn generation collapsed: only {} of {SCALE_CHURN_ROUNDS} rounds moved tasks",
            plans.len()
        );
        let build_churn = |patched: bool| {
            let cluster = Arc::clone(&cluster);
            let topology = &topology;
            let assignment = &churn_assignment;
            let plans = &plans;
            move || {
                let config = SimConfig::default().with_sim_time_ms(horizon);
                let mut sim = if patched {
                    Simulation::new(Arc::clone(&cluster), config)
                } else {
                    Simulation::full_rebuild_oracle(Arc::clone(&cluster), config)
                };
                sim.add_topology(topology, assignment);
                schedule_churn(&mut sim, plans, horizon);
                sim
            }
        };
        let patched_report = build_churn(true)().run();
        let full_report = build_churn(false)().run();
        assert_eq!(
            patched_report, full_report,
            "scale/churn: patched and fully-rebuilt runs disagree"
        );
        assert_eq!(patched_report.debug.events, full_report.debug.events);
        // The assert above is the parity check; a divergence never
        // reaches the report.
        let routing_parity = 1.0;
        let patched_ns = median_ns(
            build_churn(true),
            |sim| {
                std::hint::black_box(sim.run());
            },
            budget,
        );
        let full_ns = median_ns(
            build_churn(false),
            |sim| {
                std::hint::black_box(sim.run());
            },
            budget,
        );
        let churn = Row::new("scale/churn")
            .with("tasks", SCALE_TASKS)
            .with("nodes", SCALE_NODES)
            .fixed("sim_ms", horizon, 0)
            .with("migrations", migrations)
            .with("patched_ns", patched_ns)
            .with("full_ns", full_ns)
            .fixed("routing_parity", routing_parity, 3)
            .fixed(
                "speedup_vs_reference",
                full_ns as f64 / patched_ns as f64,
                2,
            );
        vec![base, churn]
    }
}

/// Two fixed-seed chaos-fuzzer campaigns over the split workload:
///
/// * **Clean campaign** — the production engine, generous replay
///   budget. Gates: zero oracle violations, and a byte-identical
///   campaign log on 1 worker vs `parallel_workers()` (worker count must
///   never leak into fuzz results).
/// * **Planted campaign** — `planted_quarantine_bug` breaks the drain
///   invariant on the first quarantine, with a replay budget tight
///   enough that generated plans can reach it. Gates: the fuzzer finds
///   the planted violation within the budget, shrinks it to at most
///   `MAX_SHRUNK_EVENTS` events, and the shrunk plan still trips the
///   same oracle.
///
/// Both rows carry `fuzz_violations` — the count of *unexpected* oracle
/// violations (any violation on the clean campaign; any non-planted
/// oracle on the planted campaign).
mod fuzz {
    use rstorm_bench::harness::Row;
    use rstorm_core::{schedulers, RecoveryConfig};
    use rstorm_sim::{check_fault_plan, run_fuzz_campaign, FuzzConfig, OracleKind, SimConfig};
    use std::time::Instant;

    /// Iterations of the clean campaign.
    const CLEAN_ITERATIONS: u32 = 24;
    /// Iterations of the planted campaign — enough for the generator to
    /// hit a sink-node outage long enough to exhaust the tight replay
    /// budget.
    const PLANTED_ITERATIONS: u32 = 12;
    /// The planted reproducer must shrink to at most this many events.
    const MAX_SHRUNK_EVENTS: usize = 6;

    /// The clean campaign: 30 s horizon, replay budget far past what any
    /// generated outage can consume, all oracles armed.
    fn clean_cfg() -> FuzzConfig {
        FuzzConfig {
            iterations: CLEAN_ITERATIONS,
            seed: 42,
            max_atoms: 3,
            sim: SimConfig::quick()
                .with_sim_time_ms(30_000.0)
                .with_max_replays(8),
            recovery: RecoveryConfig::default(),
        }
    }

    /// The planted campaign: a tight replay budget and short tuple
    /// timeout make quarantine reachable, and the planted hook breaks the
    /// drain invariant on the first quarantine.
    fn planted_cfg() -> FuzzConfig {
        let mut sim = SimConfig::quick()
            .with_sim_time_ms(30_000.0)
            .with_max_replays(1)
            .with_planted_quarantine_bug(true);
        sim.tuple_timeout_ms = 3_000.0;
        FuzzConfig {
            iterations: PLANTED_ITERATIONS,
            seed: 42,
            max_atoms: 3,
            sim,
            recovery: RecoveryConfig::default(),
        }
    }

    pub fn rows() -> Vec<Row> {
        let (cluster, topology) = super::split_workload("fuzz-smoke");
        let scheduler = schedulers::by_name("rstorm").expect("rstorm scheduler exists");
        let workers = super::parallel_workers();

        // Clean campaign: no oracle may trip, and the campaign log must be
        // byte-identical whatever the worker count.
        let cfg = clean_cfg();
        let t0 = Instant::now();
        let clean = run_fuzz_campaign(&cluster, &topology, &*scheduler, &cfg, workers);
        let clean_ns = t0.elapsed().as_nanos() as u64;
        let serial = run_fuzz_campaign(&cluster, &topology, &*scheduler, &cfg, 1);
        assert_eq!(
            clean.campaign_log(),
            serial.campaign_log(),
            "fuzz campaign log differs between 1 and {workers} workers"
        );
        assert!(
            clean.is_clean(),
            "clean campaign tripped oracles:\n{}",
            clean.campaign_log()
        );

        // Planted campaign: the drain-invariant bug must be found and must
        // shrink to a small reproducer that still trips the same oracle.
        let planted_oracle = OracleKind::Invariant("drain_imbalance".to_owned());
        let cfg = planted_cfg();
        let t0 = Instant::now();
        let planted = run_fuzz_campaign(&cluster, &topology, &*scheduler, &cfg, workers);
        let planted_ns = t0.elapsed().as_nanos() as u64;
        let found: Vec<_> = planted
            .reproducers
            .iter()
            .filter(|r| r.oracle == planted_oracle)
            .collect();
        assert!(
            !found.is_empty(),
            "planted drain-invariant bug not found in {PLANTED_ITERATIONS} iterations:\n{}",
            planted.campaign_log()
        );
        let unexpected = planted
            .reproducers
            .iter()
            .filter(|r| r.oracle != planted_oracle)
            .count();
        let smallest = found
            .iter()
            .min_by_key(|r| r.plan.events().len())
            .expect("found is non-empty");
        assert!(
            smallest.plan.events().len() <= MAX_SHRUNK_EVENTS,
            "shrunk reproducer still has {} events (> {MAX_SHRUNK_EVENTS}):\n{}",
            smallest.plan.events().len(),
            smallest.to_text()
        );
        assert_eq!(
            check_fault_plan(&cluster, &topology, &*scheduler, &cfg, &smallest.plan).as_ref(),
            Some(&planted_oracle),
            "shrunk reproducer no longer trips the planted oracle"
        );

        vec![
            Row::new("fuzz/clean")
                .with("iterations", CLEAN_ITERATIONS)
                .with("seed", 42_u64)
                .with("workers", workers)
                .with("wall_ns", clean_ns)
                .with("fuzz_violations", clean.reproducers.len()),
            Row::new("fuzz/planted")
                .with("iterations", PLANTED_ITERATIONS)
                .with("seed", 42_u64)
                .with("workers", workers)
                .with("wall_ns", planted_ns)
                .with("planted_found", found.len())
                .with("original_events", smallest.original.events().len())
                .with("shrunk_events", smallest.plan.events().len())
                .with("fuzz_violations", unexpected),
        ]
    }
}

/// Trunk contention on the fair-share network plane: the network-bound
/// Linear micro-benchmark (24 tasks, fat tuples) on the two-rack Emulab
/// cluster with a 4:1 oversubscribed fabric (150 Mbps rack trunks) under
/// `NetworkModel::Fair`, placed once by R-Storm (proximity packing — the
/// chain fits one rack) and once by the even round-robin scheduler
/// (which spreads it across both racks and pushes every hop through the
/// rack uplinks). Gates, before anything is reported:
///
/// * **Trunk saturation** — the even placement must actually saturate a
///   rack uplink (saturated telemetry windows > 0); a workload that
///   never contends demonstrates nothing.
/// * **Packing wins** — R-Storm's steady-state throughput must be at
///   least the even scheduler's under trunk contention
///   (`rstorm_beats_even_on_trunk`).
/// * **Legacy bit-identity** — `network_model = Legacy` (the default)
///   must produce the exact report the default-configured engine does.
///
/// The second row times the legacy path against the string-keyed
/// `ReferenceSimulation` (median wall time) — the fair plane must not
/// have slowed the default engine down.
mod network {
    use rstorm_bench::harness::{median_ns, Row};
    use rstorm_bench::WARMUP_WINDOWS;
    use rstorm_cluster::Cluster;
    use rstorm_core::{schedulers, Assignment, GlobalState};
    use rstorm_sim::{NetworkModel, ReferenceSimulation, SimConfig, SimReport, Simulation};
    use rstorm_topology::Topology;
    use rstorm_workloads::{clusters, micro};
    use std::sync::Arc;
    use std::time::Duration;

    /// Simulation horizon: long enough for a stable steady state.
    const SIM_MS: f64 = 60_000.0;
    /// Wall-time budget per timed side of the legacy row.
    const BUDGET: Duration = Duration::from_secs(2);

    fn place(name: &str, topology: &Topology, cluster: &Arc<Cluster>) -> Assignment {
        let scheduler = schedulers::by_name(name).expect("known scheduler");
        scheduler
            .schedule(topology, cluster, &mut GlobalState::new(cluster))
            .unwrap_or_else(|e| panic!("{name} cannot place the congestion workload: {e}"))
    }

    fn run_with(
        cluster: &Arc<Cluster>,
        topology: &Topology,
        assignment: &Assignment,
        config: SimConfig,
    ) -> SimReport {
        let mut sim = Simulation::new(Arc::clone(cluster), config);
        sim.add_topology(topology, assignment);
        sim.run()
    }

    /// Uplink-trunk telemetry of a fair-plane report: total saturated
    /// windows, total MB carried and the worst mean utilization.
    fn trunk_stats(report: &SimReport) -> (u64, f64, f64) {
        let network = report
            .network
            .as_ref()
            .expect("fair-plane runs export link telemetry");
        let mut windows = 0;
        let mut mb = 0.0;
        let mut peak = 0.0f64;
        for link in &network.links {
            if link.link.ends_with(".uplink") {
                windows += link.saturated_windows;
                mb += link.mb_carried;
                peak = peak.max(link.mean_utilization);
            }
        }
        (windows, mb, peak)
    }

    pub fn rows() -> Vec<Row> {
        let cluster = Arc::new(clusters::emulab_oversubscribed());
        let topology = micro::linear_network_bound();
        let tname = topology.id().as_str().to_owned();
        let tasks = topology.task_set().len();
        let nodes = cluster.nodes().len();

        let rstorm_assignment = place("rstorm", &topology, &cluster);
        let even_assignment = place("even", &topology, &cluster);

        // -- Row 1: trunk contention under the fair plane. --
        let fair = SimConfig::quick()
            .with_sim_time_ms(SIM_MS)
            .with_network_model(NetworkModel::Fair);
        let rstorm_report = run_with(&cluster, &topology, &rstorm_assignment, fair.clone());
        let even_report = run_with(&cluster, &topology, &even_assignment, fair);
        let rstorm_net = rstorm_report.steady_throughput(&tname, WARMUP_WINDOWS);
        let even_net = even_report.steady_throughput(&tname, WARMUP_WINDOWS);
        let (even_windows, even_trunk_mb, even_peak) = trunk_stats(&even_report);
        let (_, rstorm_trunk_mb, _) = trunk_stats(&rstorm_report);

        assert!(
            even_windows > 0,
            "the spread placement must saturate a rack uplink (peak utilization {even_peak:.3})"
        );
        assert!(
            even_net > 0.0,
            "the even placement must still make progress under contention"
        );
        let ratio = rstorm_net / even_net;
        assert!(
            ratio >= 1.0,
            "proximity packing must beat spreading under trunk saturation: \
             rstorm {rstorm_net:.0} vs even {even_net:.0} tuples/window"
        );

        // -- Row 2: the legacy path — bit-identical and not slower. --
        let legacy = SimConfig::quick().with_sim_time_ms(SIM_MS);
        let default_report = run_with(&cluster, &topology, &rstorm_assignment, legacy.clone());
        let explicit_report = run_with(
            &cluster,
            &topology,
            &rstorm_assignment,
            legacy.clone().with_network_model(NetworkModel::Legacy),
        );
        assert_eq!(
            default_report, explicit_report,
            "explicit Legacy must be the default engine bit for bit"
        );
        assert!(
            default_report.network.is_none(),
            "the legacy path must not export fair-plane telemetry"
        );

        let build_fast = || {
            let mut sim = Simulation::new(Arc::clone(&cluster), legacy.clone());
            sim.add_topology(&topology, &rstorm_assignment);
            sim
        };
        let build_reference = || {
            let mut sim = ReferenceSimulation::new(Arc::clone(&cluster), legacy.clone());
            sim.add_topology(&topology, &rstorm_assignment);
            sim
        };
        let fast_ns = median_ns(
            build_fast,
            |sim| {
                std::hint::black_box(sim.run());
            },
            BUDGET,
        );
        let reference_ns = median_ns(
            build_reference,
            |sim| {
                std::hint::black_box(sim.run());
            },
            BUDGET,
        );

        vec![
            Row::new("network/trunk_contention")
                .with("tasks", tasks)
                .with("nodes", nodes)
                .fixed("sim_ms", SIM_MS, 0)
                .fixed("rstorm_net", rstorm_net, 1)
                .fixed("even_net", even_net, 1)
                .fixed("rstorm_trunk_mb", rstorm_trunk_mb, 1)
                .fixed("even_trunk_mb", even_trunk_mb, 1)
                .with("even_trunk_saturated_windows", even_windows)
                .fixed("even_trunk_peak_utilization", even_peak, 3)
                .fixed("rstorm_beats_even_on_trunk", ratio, 2),
            Row::new("network/legacy_engine")
                .with("tasks", tasks)
                .with("nodes", nodes)
                .fixed("sim_ms", SIM_MS, 0)
                .with("fast_ns", fast_ns)
                .with("reference_ns", reference_ns)
                .fixed(
                    "speedup_vs_reference",
                    reference_ns as f64 / fast_ns as f64,
                    2,
                ),
        ]
    }
}

/// Fixed Nimbus-outage scenarios through `rstorm_sim::run_scenario`, on
/// the split workload:
///
/// * **Failover row** — the victim crashes *while Nimbus is down*, so
///   no incumbent ever observes the silence. A journaled successor
///   seeds the roster's heartbeats on reassumption, detects the crash,
///   and reschedules inside the replay budget: `zero_loss_ratio` must
///   be exactly `1.0`. The journal-less twin of the same scenario is
///   structurally blind — it must actually lose roots, proving the
///   journal is load-bearing rather than vacuously pinned.
/// * **Replay row** — the crash is detected and rescheduled *before*
///   the outage; the successor must replay at least the dead
///   declaration and the reschedule from the journal, without declaring
///   the victim dead a second time.
///
/// Both composed scenarios are also run as bare fault plans (no victim
/// revival) so the reconciliation audit (`rstorm_sim::ReconcileAudit`)
/// checks convergence and placement integrity.
mod control {
    use rstorm_bench::harness::Row;
    use rstorm_cluster::Cluster;
    use rstorm_core::{schedulers, GlobalState};
    use rstorm_sim::{
        run_scenario, ChaosConfig, ChaosOutcome, FaultPlan, ReconcileAudit, SimConfig,
    };
    use rstorm_topology::{TaskSet, Topology};
    use std::time::Instant;

    /// Failover-row victim crash time (milliseconds) — inside the outage.
    const FAILOVER_CRASH_AT_MS: f64 = 15_000.0;
    /// Failover-row Nimbus window: `[13 s, 23 s)`, fully masking the crash.
    const FAILOVER_NIMBUS_AT_MS: f64 = 13_000.0;
    /// Length of the failover-row Nimbus outage (milliseconds).
    const FAILOVER_NIMBUS_DOWN_MS: f64 = 10_000.0;
    /// When the failover-row victim would heartbeat again — late enough
    /// that a blind control plane gets no second chance to see it crash.
    const FAILOVER_HEAL_AT_MS: f64 = 55_000.0;
    /// Replay-row crash/heal: detected, rescheduled, and readmitted well
    /// before Nimbus dies at 14 s.
    const REPLAY_CRASH_AT_MS: f64 = 5_000.0;
    /// Replay-row heal time (milliseconds).
    const REPLAY_HEAL_AT_MS: f64 = 12_000.0;
    /// Replay-row Nimbus window start (milliseconds).
    const REPLAY_NIMBUS_AT_MS: f64 = 14_000.0;
    /// Length of the replay-row Nimbus outage (milliseconds).
    const REPLAY_NIMBUS_DOWN_MS: f64 = 8_000.0;
    /// Root replay budget of the failover row: `(3 + 1) x 5 s = 20 s` of
    /// retries — wide enough to bridge the journaled successor's detect-
    /// and-reschedule latency (~10 s), narrow enough that the blind twin
    /// exhausts it with most of the 60 s horizon left.
    const FAILOVER_MAX_REPLAYS: u32 = 3;
    /// Tuple timeout pairing with [`FAILOVER_MAX_REPLAYS`].
    const FAILOVER_TUPLE_TIMEOUT_MS: f64 = 5_000.0;

    /// The node hosting the sink under the R-Storm scheduler — crashing
    /// it severs the tuple path while leaving the spout emitting.
    fn sink_node(cluster: &Cluster, topology: &Topology) -> String {
        let scheduler = schedulers::by_name("rstorm").expect("rstorm scheduler exists");
        let mut state = GlobalState::new(cluster);
        let a = scheduler
            .schedule(topology, cluster, &mut state)
            .expect("split topology places");
        let tasks = TaskSet::instantiate(topology);
        let sink_task = tasks
            .tasks()
            .iter()
            .find(|t| t.component.as_str() == "sink")
            .expect("the topology has a sink")
            .id;
        let host = a
            .iter()
            .find(|(task, _)| *task == sink_task)
            .expect("the sink is placed")
            .1
            .node
            .as_str()
            .to_owned();
        host
    }

    /// The failover scenario's simulation knobs (see the budget
    /// constants).
    fn failover_sim() -> SimConfig {
        let mut sim = SimConfig::quick().with_max_replays(FAILOVER_MAX_REPLAYS);
        sim.tuple_timeout_ms = FAILOVER_TUPLE_TIMEOUT_MS;
        sim
    }

    /// The failover audit of a control-fault scenario.
    fn audit_of(out: &ChaosOutcome) -> ReconcileAudit {
        out.reconciliation
            .expect("control-fault scenarios carry a reconciliation audit")
    }

    pub fn rows() -> Vec<Row> {
        let (cluster, topology) = super::split_workload("control-smoke");
        let victim = sink_node(&cluster, &topology);
        let scheduler = schedulers::by_name("rstorm").expect("rstorm scheduler exists");
        let run = |cfg: &ChaosConfig| run_scenario(&cluster, &topology, cfg, &*scheduler);

        // -- Failover row: crash masked by the outage. --
        let mut cfg = ChaosConfig::new(&victim, FAILOVER_CRASH_AT_MS, FAILOVER_HEAL_AT_MS)
            .with_nimbus_outage(FAILOVER_NIMBUS_AT_MS, FAILOVER_NIMBUS_DOWN_MS);
        cfg.sim = failover_sim();
        cfg.recovery.journal = true;
        let t0 = Instant::now();
        let journaled = run(&cfg).expect("failover case runs");
        let failover_ns = t0.elapsed().as_nanos() as u64;
        let failover_reassume_ms = audit_of(&journaled).time_to_reassume_ms;
        assert!(
            failover_reassume_ms >= FAILOVER_NIMBUS_DOWN_MS,
            "successor reassumed after {failover_reassume_ms} ms of a \
             {FAILOVER_NIMBUS_DOWN_MS} ms outage"
        );
        assert!(
            journaled.observations.time_to_detect_ms > 0.0,
            "the journaled successor must detect the masked crash"
        );
        let journaled_zero_loss = journaled.report.zero_loss_ratio();
        assert_eq!(
            journaled_zero_loss, 1.0,
            "journaled failover lost settled roots (ratio {journaled_zero_loss})"
        );

        // The journal-less twin must actually lose: a cold successor never
        // saw the victim heartbeat, so detection is structurally impossible
        // and the replay budget drains dry.
        let mut cold_cfg = cfg.clone();
        cold_cfg.recovery.journal = false;
        let cold = run(&cold_cfg).expect("cold twin runs");
        assert_eq!(
            cold.observations.time_to_detect_ms, -1.0,
            "a cold successor cannot detect a pre-failover silence"
        );
        let cold_zero_loss = cold.report.zero_loss_ratio();
        assert!(
            cold_zero_loss < 1.0,
            "the journal-less twin must lose roots, or the pin proves nothing \
             (ratio {cold_zero_loss})"
        );

        // -- Replay row: decisions journaled before the outage. --
        let mut cfg = ChaosConfig::new(&victim, REPLAY_CRASH_AT_MS, REPLAY_HEAL_AT_MS)
            .with_nimbus_outage(REPLAY_NIMBUS_AT_MS, REPLAY_NIMBUS_DOWN_MS);
        cfg.sim = SimConfig::quick().with_max_replays(8);
        cfg.recovery.journal = true;
        let t0 = Instant::now();
        let replayed = run(&cfg).expect("replay case runs");
        let replay_ns = t0.elapsed().as_nanos() as u64;
        let replay_audit = audit_of(&replayed);
        assert!(
            replay_audit.decisions_replayed >= 2,
            "expected the declare + reschedule records in the journal, replayed {}",
            replay_audit.decisions_replayed
        );
        assert_eq!(
            replayed.report.zero_loss_ratio(),
            1.0,
            "the pre-outage reschedule keeps the replay case lossless"
        );

        // -- Reconciliation audits over both composed scenarios. --
        let plans = [
            FaultPlan::new()
                .crash_node(FAILOVER_CRASH_AT_MS, &victim)
                .recover_node(40_000.0, &victim)
                .nimbus_crash(FAILOVER_NIMBUS_AT_MS, FAILOVER_NIMBUS_DOWN_MS),
            FaultPlan::new()
                .crash_node(REPLAY_CRASH_AT_MS, &victim)
                .recover_node(REPLAY_HEAL_AT_MS, &victim)
                .nimbus_crash(REPLAY_NIMBUS_AT_MS, REPLAY_NIMBUS_DOWN_MS),
        ];
        let mut audits = 0_u32;
        let mut audits_passed = 0_u32;
        for plan in plans {
            let mut cfg = ChaosConfig::from_plan(plan);
            cfg.sim = SimConfig::quick().with_max_replays(8);
            cfg.recovery.journal = true;
            let audit = audit_of(&run(&cfg).expect("audit plan runs"));
            audits += 1;
            let passed = audit.converged && !audit.double_placed_or_orphaned;
            assert!(
                passed,
                "reconciliation audit failed: converged={} double_placed_or_orphaned={}",
                audit.converged, audit.double_placed_or_orphaned
            );
            audits_passed += u32::from(passed);
        }
        let convergence = f64::from(audits_passed) / f64::from(audits);

        vec![
            Row::new("control/failover")
                .with("wall_ns", failover_ns)
                .with("time_to_reassume_ms", failover_reassume_ms)
                .with("journaled_zero_loss", journaled_zero_loss)
                .with("cold_zero_loss", cold_zero_loss)
                .with("failover_zero_loss", journaled_zero_loss),
            Row::new("control/replay")
                .with("wall_ns", replay_ns)
                .with("time_to_reassume_ms", replay_audit.time_to_reassume_ms)
                .with("decisions_replayed", replay_audit.decisions_replayed)
                .with("reconciliation_convergence", convergence),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_sim::sweep::{Percentiles, SweepGroup};
    use std::collections::HashSet;

    #[test]
    fn case_names_are_unique_and_name_their_files() {
        let mut names = HashSet::new();
        for case in &CASES {
            assert!(names.insert(case.name), "duplicate case {}", case.name);
            assert_eq!(case.file, format!("BENCH_{}.json", case.name));
        }
    }

    #[test]
    fn sweep_group_rows_match_the_sweep_payload_lines() {
        let mut g = SweepGroup {
            name: "linear_net/rstorm/crash_recover".to_owned(),
            survivable: true,
            seeds: 4,
            detect_ms: Percentiles {
                p50: 2_000.0,
                p90: 2_000.0,
                p99: 2_000.0,
            },
            recover_ms: Percentiles {
                p50: -1.0,
                p90: 0.1 + 0.2,
                p99: 2_000.0,
            },
            zero_loss_min: 1.0,
            zero_loss_mean: 1.0,
            net_mean: 1234.5,
            net_stdev: 6.7,
            lost_hist: [0, 4, 0, 0, 0, 0, 0, 0],
        };
        assert_eq!(sweep::group_row(&g).to_json(), g.json_line());
        g.survivable = false;
        assert_eq!(sweep::group_row(&g).to_json(), g.json_line());
    }
}
