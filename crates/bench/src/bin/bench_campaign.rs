//! Fault-campaign throughput measurement: accelerated hot path
//! (differential stepping + early exit on the wide kernel) vs the
//! reference oracle `fusa_faultsim::reference::stuck_at` (one thread,
//! per-gate full sweep, one 64-fault chunk per pass), per built-in
//! design.
//!
//! Emits `BENCH_campaign.json` (hand-rolled JSON — the workspace
//! carries no serde) with fault-cycles/sec for both paths plus the
//! measured speedup, and cross-checks along the way that both paths
//! return bit-identical outcomes and first-divergence cycles.
//!
//! A second section sweeps the wide `[u64; W]` structure-of-arrays
//! kernel against the same oracle on synthesized 10k/30k/100k-gate
//! designs (sampled faults — exhaustive lists at that scale would take
//! hours), again cross-checking bit-identity at every lane width.
//!
//! A third section measures the live `status.json` heartbeat's cost on
//! the campaign hot path: the same campaign with the status target off
//! vs armed, bit-identity cross-checked, overhead recorded (expected
//! well under 1% — snapshots ride the existing heartbeat cadence).
//!
//! Usage: `cargo run --release -p fusa-bench --bin bench_campaign
//!         [-- --smoke] [-- --out FILE]`

use fusa_faultsim::{reference, CampaignConfig, CampaignReport, FaultCampaign, FaultList};
use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
use fusa_netlist::{designs, GateId, Netlist};
use std::fmt::Write as _;
use std::time::Instant;

struct Measurement {
    seconds: f64,
    fault_cycles: u64,
    stepped_fault_cycles: u64,
    gate_evals: u64,
    gate_evals_full: u64,
    dense_handoffs: u64,
    report: CampaignReport,
}

impl Measurement {
    /// Times `run` and keeps its report and stats.
    fn of(run: impl FnOnce() -> CampaignReport) -> Measurement {
        let started = Instant::now();
        let report = run();
        let seconds = started.elapsed().as_secs_f64();
        let stats = report.stats().clone();
        Measurement {
            seconds,
            fault_cycles: stats.fault_cycles,
            stepped_fault_cycles: stats.stepped_fault_cycles,
            gate_evals: stats.gate_evals,
            gate_evals_full: stats.gate_evals_full,
            dense_handoffs: stats.dense_handoffs,
            report,
        }
    }

    fn fault_cycles_per_second(&self) -> f64 {
        self.fault_cycles as f64 / self.seconds.max(1e-12)
    }

    /// Gate evaluations per stepped fault-cycle: the work one fault
    /// machine costs per cycle, with a pass's evaluations shared by its
    /// `64 · lane_words` machines.
    fn evals_per_stepped_fault_cycle(&self) -> f64 {
        self.gate_evals as f64 / self.stepped_fault_cycles.max(1) as f64
    }
}

fn measure(
    netlist: &Netlist,
    faults: &FaultList,
    workloads: &WorkloadSuite,
    config: CampaignConfig,
) -> Measurement {
    let campaign = FaultCampaign::new(config);
    Measurement::of(|| {
        campaign
            .run(netlist, faults, workloads)
            .expect("campaign runs")
    })
}

/// The oracle on the same inputs, at the default thresholds.
fn measure_reference(
    netlist: &Netlist,
    faults: &FaultList,
    workloads: &WorkloadSuite,
) -> Measurement {
    let config = CampaignConfig::default();
    Measurement::of(|| reference::stuck_at(netlist, faults, workloads, &config))
}

/// Both paths must agree bit-for-bit — this is the same invariant the
/// differential tests enforce, re-checked on the real designs.
fn assert_identical(design: &str, a: &CampaignReport, b: &CampaignReport) {
    let (wa, wb) = (a.workload_reports(), b.workload_reports());
    assert_eq!(wa.len(), wb.len(), "{design}: workload count differs");
    for (x, y) in wa.iter().zip(wb) {
        assert_eq!(x.outcomes, y.outcomes, "{design}: outcomes differ");
        assert_eq!(
            x.first_divergence, y.first_divergence,
            "{design}: first_divergence differs"
        );
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_campaign.json")
        .to_string();

    let workload_config = if smoke {
        WorkloadConfig {
            num_workloads: 2,
            vectors_per_workload: 48,
            ..Default::default()
        }
    } else {
        WorkloadConfig {
            num_workloads: 4,
            vectors_per_workload: 128,
            ..Default::default()
        }
    };

    let accelerated_config = CampaignConfig {
        threads: 1,
        ..Default::default()
    };

    println!("Fault-campaign throughput: accelerated vs the reference oracle.\n");
    println!(
        "{:<14} {:>7} {:>14} {:>14} {:>9} {:>12}",
        "design", "faults", "ref fc/s", "accel fc/s", "speedup", "evals saved"
    );

    let mut entries = String::new();
    let mut first = true;
    for netlist in designs::all_designs() {
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = WorkloadSuite::generate(&netlist, &workload_config);

        let reference = measure_reference(&netlist, &faults, &workloads);
        let accelerated = measure(&netlist, &faults, &workloads, accelerated_config);
        assert_identical(netlist.name(), &reference.report, &accelerated.report);

        let speedup = accelerated.fault_cycles_per_second() / reference.fault_cycles_per_second();
        let evals_saved =
            1.0 - accelerated.gate_evals as f64 / accelerated.gate_evals_full.max(1) as f64;
        println!(
            "{:<14} {:>7} {:>14.0} {:>14.0} {:>8.2}x {:>11.1}%",
            netlist.name(),
            faults.len(),
            reference.fault_cycles_per_second(),
            accelerated.fault_cycles_per_second(),
            speedup,
            evals_saved * 100.0,
        );

        if !first {
            entries.push(',');
        }
        first = false;
        let _ = write!(
            entries,
            "\n    {{\n      \"design\": \"{}\",\n      \"gates\": {},\n      \"faults\": {},\n      \"fault_cycles\": {},\n      \"reference\": {{\n        \"seconds\": {:.4},\n        \"fault_cycles_per_second\": {:.0},\n        \"stepped_fault_cycles\": {},\n        \"gate_evals\": {}\n      }},\n      \"accelerated\": {{\n        \"seconds\": {:.4},\n        \"fault_cycles_per_second\": {:.0},\n        \"stepped_fault_cycles\": {},\n        \"gate_evals\": {},\n        \"gate_evals_full\": {},\n        \"gate_evals_saved_fraction\": {:.4},\n        \"lane_words\": {},\n        \"evals_per_stepped_fault_cycle\": {:.4},\n        \"dense_handoffs\": {}\n      }},\n      \"speedup\": {:.2}\n    }}",
            json_escape(netlist.name()),
            netlist.gate_count(),
            faults.len(),
            accelerated.fault_cycles,
            reference.seconds,
            reference.fault_cycles_per_second(),
            reference.stepped_fault_cycles,
            reference.gate_evals,
            accelerated.seconds,
            accelerated.fault_cycles_per_second(),
            accelerated.stepped_fault_cycles,
            accelerated.gate_evals,
            accelerated.gate_evals_full,
            evals_saved,
            accelerated_config.lane_words,
            accelerated.evals_per_stepped_fault_cycle(),
            accelerated.dense_handoffs,
            speedup,
        );
    }

    let design_sizes = measure_design_sizes(smoke);
    let status_emission = measure_status_emission(smoke);
    let io_retry = measure_io_retry(smoke);

    let json = format!(
        "{{\n  \"benchmark\": \"campaign_throughput\",\n  \"unit\": \"fault_cycles_per_second\",\n  \"threads\": 1,\n  \"workloads\": {{\n    \"num_workloads\": {},\n    \"vectors_per_workload\": {}\n  }},\n  \"bit_identical_checked\": true,\n  \"designs\": [{}\n  ],\n  \"design_sizes\": [{}\n  ],\n  \"status_emission\": {},\n  \"io_retry\": {}\n}}\n",
        workload_config.num_workloads,
        workload_config.vectors_per_workload,
        entries,
        design_sizes,
        status_emission,
        io_retry,
    );

    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\n[saved {out_path}]"),
        Err(e) => eprintln!("\nwarning: cannot write {out_path}: {e}"),
    }
    println!("(both paths verified bit-identical on every design above)");
}

/// Measures the live-status heartbeat's cost on the campaign hot path:
/// the identical single-thread campaign with the global status target
/// disarmed vs armed at a throwaway path, best-of-N wall time each.
/// Outcomes are cross-checked bit-identical per repetition — status
/// emission must observe, never perturb.
fn measure_status_emission(smoke: bool) -> String {
    use fusa_obs::{set_status_target, StatusTarget};

    // The campaign must run long enough to amortize the fixed first and
    // last snapshot writes, or the number reflects two fsync-free file
    // creations rather than the steady-state heartbeat cost.
    let netlist = if smoke {
        designs::synth_10k(1)
    } else {
        designs::synth_30k(1)
    };
    let workload_config = WorkloadConfig {
        num_workloads: if smoke { 2 } else { 8 },
        vectors_per_workload: if smoke { 32 } else { 64 },
        ..Default::default()
    };
    let faults = sampled_faults(&netlist, if smoke { 256 } else { 512 });
    let workloads = WorkloadSuite::generate(&netlist, &workload_config);
    let config = CampaignConfig {
        threads: 1,
        ..Default::default()
    };
    let reps = if smoke { 1 } else { 8 };

    let dir = std::env::temp_dir().join(format!("fusa_bench_status_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("status bench temp dir");
    let status_path = dir.join("status.json");

    let run = |armed: bool| {
        set_status_target(armed.then(|| StatusTarget {
            path: status_path.clone(),
            run_id: "bench-status".to_string(),
            design: netlist.name().to_string(),
            shard: None,
        }));
        let measurement = measure(&netlist, &faults, &workloads, config);
        set_status_target(None);
        measurement
    };

    // One unmeasured warmup, then N rounds of [off, on, off] with the
    // middle element alternating. Each round contributes a paired
    // on-vs-off delta (the on run against the mean of its bracketing
    // offs, centring out slow drift) and an off-vs-off *null* delta —
    // the measurement noise floor of the host. On a small shared box
    // back-to-back identical runs can differ by several percent, so the
    // wall delta only brackets the cost; the deterministic number is
    // the directly timed per-snapshot publication cost below.
    let _ = run(false);
    let mut off_seconds = f64::INFINITY;
    let mut on_seconds = f64::INFINITY;
    let mut wall_deltas = Vec::with_capacity(reps);
    let mut null_deltas = Vec::with_capacity(reps);
    let mut fault_cycles = 0;
    for _ in 0..reps {
        let off_a = run(false);
        let on = run(true);
        let off_b = run(false);
        assert_identical(netlist.name(), &off_a.report, &on.report);
        let off_mid = (off_a.seconds + off_b.seconds) / 2.0;
        wall_deltas.push((on.seconds / off_mid - 1.0) * 100.0);
        null_deltas.push(((off_b.seconds / off_a.seconds - 1.0) * 100.0).abs());
        off_seconds = off_seconds.min(off_a.seconds.min(off_b.seconds));
        on_seconds = on_seconds.min(on.seconds);
        fault_cycles = on.fault_cycles;
    }
    assert!(
        status_path.is_file(),
        "armed campaign published no status.json"
    );

    // The deterministic cost: time the snapshot publication itself (the
    // only work emission adds per heartbeat) and scale by the 500 ms
    // cadence. This is what an operator actually pays at steady state.
    let probe = fusa_obs::StatusSnapshot::read(&status_path).expect("probe snapshot");
    let writes = 256;
    let started = Instant::now();
    for _ in 0..writes {
        probe
            .write_atomic(&status_path)
            .expect("probe snapshot write");
    }
    let snapshot_write_seconds = started.elapsed().as_secs_f64() / writes as f64;
    let heartbeat_seconds = 0.5;
    let steady_state_pct = snapshot_write_seconds / heartbeat_seconds * 100.0;
    let _ = std::fs::remove_dir_all(&dir);

    let median = |mut values: Vec<f64>| -> f64 {
        values.sort_by(|a, b| a.total_cmp(b));
        let mid = values.len() / 2;
        if values.len() % 2 == 1 {
            values[mid]
        } else {
            (values[mid - 1] + values[mid]) / 2.0
        }
    };
    let wall_delta_pct = median(wall_deltas);
    let wall_noise_pct = median(null_deltas);
    println!(
        "\nStatus emission on {}: snapshot write {:.1} us => {:.3}% of a {}ms heartbeat;\n\
         paired wall delta {:+.2}% (off-vs-off noise floor ±{:.2}%, {} rounds).",
        netlist.name(),
        snapshot_write_seconds * 1e6,
        steady_state_pct,
        (heartbeat_seconds * 1000.0) as u64,
        wall_delta_pct,
        wall_noise_pct,
        reps,
    );
    format!(
        "{{\n    \"design\": \"{}\",\n    \"reps\": {},\n    \"fault_cycles\": {},\n    \"off_seconds\": {:.4},\n    \"on_seconds\": {:.4},\n    \"snapshot_write_seconds\": {:.6},\n    \"heartbeat_seconds\": {:.1},\n    \"steady_state_overhead_pct\": {:.3},\n    \"wall_delta_pct\": {:.2},\n    \"wall_noise_floor_pct\": {:.2},\n    \"bit_identical_checked\": true\n  }}",
        json_escape(netlist.name()),
        reps,
        fault_cycles,
        off_seconds,
        on_seconds,
        snapshot_write_seconds,
        heartbeat_seconds,
        steady_state_pct,
        wall_delta_pct,
        wall_noise_pct,
    )
}

/// Measures the storage-fault retry machinery's cost on the checkpoint
/// append path: the identical checkpointed campaign with the injection
/// layer disarmed vs armed with a transient fault every few writes
/// (each absorbed by one backoff retry). Outcomes are cross-checked
/// bit-identical per repetition — retries must recover, never perturb.
/// Like `status_emission`, the wall delta is paired ([off, on, off]
/// rounds) and reported against the host's off-vs-off noise floor.
fn measure_io_retry(smoke: bool) -> String {
    use fusa_faultsim::{DurabilityConfig, IoRetryPolicy};
    use fusa_obs::{set_io_fault_injection, IoFaultInjection, IoFaultKind};

    let netlist = if smoke {
        designs::synth_10k(1)
    } else {
        designs::synth_30k(1)
    };
    let workload_config = WorkloadConfig {
        num_workloads: if smoke { 2 } else { 8 },
        vectors_per_workload: if smoke { 32 } else { 64 },
        ..Default::default()
    };
    let faults = sampled_faults(&netlist, if smoke { 256 } else { 512 });
    let workloads = WorkloadSuite::generate(&netlist, &workload_config);
    let config = CampaignConfig {
        threads: 1,
        ..Default::default()
    };
    let policy = IoRetryPolicy::default();
    let fail_every = 3u64;
    let reps = if smoke { 1 } else { 8 };

    let dir = std::env::temp_dir().join(format!("fusa_bench_ioretry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("io-retry bench temp dir");
    let checkpoint = dir.join("checkpoint.jsonl");

    // Both arms checkpoint, so the delta isolates the injection hook +
    // retry/backoff machinery, not checkpointing itself. The armed arm
    // fails every `fail_every`-th checkpoint write once; the retry
    // (with its 1 ms base backoff) absorbs each fault.
    let run = |armed: bool, io_retry: IoRetryPolicy| {
        set_io_fault_injection(armed.then(|| IoFaultInjection {
            fail_nth: Vec::new(),
            fail_every: Some(fail_every),
            kind: IoFaultKind::Enospc,
            targets: vec!["checkpoint".to_string()],
        }));
        let campaign = FaultCampaign::new(config).with_durability(DurabilityConfig {
            checkpoint: Some(checkpoint.clone()),
            io_retry,
            ..DurabilityConfig::default()
        });
        let started = Instant::now();
        let report = campaign
            .run(&netlist, &faults, &workloads)
            .expect("campaign runs");
        let seconds = started.elapsed().as_secs_f64();
        set_io_fault_injection(None);
        (seconds, report)
    };

    // Steady-state cost of the retry wrapper on the *unfaulted* path:
    // both arms run fault-free, toggling only the policy (full budget
    // vs single-attempt). One unfaulted append does identical work
    // under either, so any delta beyond the noise floor would expose
    // bookkeeping overhead in the wrapper itself.
    let _ = run(false, policy);
    let mut unfaulted_deltas = Vec::with_capacity(reps);
    let mut unfaulted_nulls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (none_a_seconds, none_a) = run(false, IoRetryPolicy::none());
        let (full_seconds, full) = run(false, policy);
        let (none_b_seconds, none_b) = run(false, IoRetryPolicy::none());
        assert_identical(netlist.name(), &none_a, &full);
        assert_identical(netlist.name(), &none_a, &none_b);
        let none_mid = (none_a_seconds + none_b_seconds) / 2.0;
        unfaulted_deltas.push((full_seconds / none_mid - 1.0) * 100.0);
        unfaulted_nulls.push(((none_b_seconds / none_a_seconds - 1.0) * 100.0).abs());
    }

    let run = |armed: bool| run(armed, policy);
    let mut wall_deltas = Vec::with_capacity(reps);
    let mut null_deltas = Vec::with_capacity(reps);
    let mut retries = 0u64;
    for _ in 0..reps {
        let (off_a_seconds, off_a) = run(false);
        let (on_seconds, on) = run(true);
        let (off_b_seconds, off_b) = run(false);
        assert_identical(netlist.name(), &off_a, &on);
        assert_identical(netlist.name(), &off_a, &off_b);
        assert!(
            !on.stats().durability_degraded,
            "transient faults must stay inside the retry budget"
        );
        retries = on.stats().checkpoint_write_retries;
        assert!(retries >= 1, "the armed arm injected no faults");
        let off_mid = (off_a_seconds + off_b_seconds) / 2.0;
        wall_deltas.push((on_seconds / off_mid - 1.0) * 100.0);
        null_deltas.push(((off_b_seconds / off_a_seconds - 1.0) * 100.0).abs());
    }
    let _ = std::fs::remove_dir_all(&dir);

    let median = |mut values: Vec<f64>| -> f64 {
        values.sort_by(|a, b| a.total_cmp(b));
        let mid = values.len() / 2;
        if values.len() % 2 == 1 {
            values[mid]
        } else {
            (values[mid - 1] + values[mid]) / 2.0
        }
    };
    let wall_delta_pct = median(wall_deltas);
    let wall_noise_pct = median(null_deltas);
    let unfaulted_delta_pct = median(unfaulted_deltas);
    let unfaulted_noise_pct = median(unfaulted_nulls);
    // The deterministic part of the faulted cost: the backoff sleeps
    // themselves (one first-retry delay per absorbed fault).
    let backoff_seconds = retries as f64 * policy.delay_after(1).as_secs_f64();
    println!(
        "\nI/O retry on {}: unfaulted steady state {:+.2}% (noise floor ±{:.2}%);\n\
         under faults: {} absorbed/run ({:.1} ms deterministic backoff),\n\
         paired wall delta {:+.2}% (off-vs-off noise floor ±{:.2}%, {} rounds).",
        netlist.name(),
        unfaulted_delta_pct,
        unfaulted_noise_pct,
        retries,
        backoff_seconds * 1e3,
        wall_delta_pct,
        wall_noise_pct,
        reps,
    );
    format!(
        "{{\n    \"design\": \"{}\",\n    \"reps\": {},\n    \"unfaulted_wall_delta_pct\": {:.2},\n    \"unfaulted_wall_noise_floor_pct\": {:.2},\n    \"fail_every\": {},\n    \"retries_per_run\": {},\n    \"backoff_seconds_per_run\": {:.4},\n    \"faulted_wall_delta_pct\": {:.2},\n    \"faulted_wall_noise_floor_pct\": {:.2},\n    \"bit_identical_checked\": true\n  }}",
        json_escape(netlist.name()),
        reps,
        unfaulted_delta_pct,
        unfaulted_noise_pct,
        fail_every,
        retries,
        backoff_seconds,
        wall_delta_pct,
        wall_noise_pct,
    )
}

/// A deterministic fault sample built from contiguous gate blocks
/// spread across the design. Contiguity matters: consecutive 64-fault
/// chunks then share fanout logic, as they do in a full-list campaign,
/// so one pass's fault effects overlap across its words. Strided
/// single-gate sampling would spread every pass over the whole netlist
/// and hide the wide kernel's sharing.
fn sampled_faults(netlist: &Netlist, count: usize) -> FaultList {
    const BLOCK: usize = 256;
    let total = netlist.gate_count();
    let count = count.min(total);
    let blocks = count.div_ceil(BLOCK).max(1);
    let mut gates: Vec<GateId> = Vec::with_capacity(count);
    for b in 0..blocks {
        let start = (total / (2 * blocks) + b * total / blocks).min(total.saturating_sub(BLOCK));
        for i in start..(start + BLOCK).min(total) {
            if gates.len() < count {
                gates.push(GateId(i as u32));
            }
        }
    }
    FaultList::for_gates(netlist, &gates)
}

/// Oracle-vs-wide sweep over the synthesized scaling designs, one JSON
/// entry per design size. The oracle runs no acceleration at all, so
/// `speedup_vs_reference` is everything the kernel adds: lane width,
/// differential stepping and early exit.
fn measure_design_sizes(smoke: bool) -> String {
    let seed = 1;
    let designs: Vec<Netlist> = vec![
        designs::synth_10k(seed),
        designs::synth_30k(seed),
        designs::synth_100k(seed),
    ];
    let (sampled_gates, workload_config) = if smoke {
        (
            256,
            WorkloadConfig {
                num_workloads: 2,
                vectors_per_workload: 32,
                ..Default::default()
            },
        )
    } else {
        (
            512,
            WorkloadConfig {
                num_workloads: 8,
                vectors_per_workload: 64,
                ..Default::default()
            },
        )
    };

    println!(
        "\nWide-lane SoA kernel vs the reference oracle on synthesized designs (sampled faults).\n"
    );
    println!(
        "{:<12} {:>7} {:>7} {:>13} {:>13} {:>13} {:>13} {:>9}",
        "design", "gates", "faults", "ref fc/s", "64-lane", "256-lane", "512-lane", "best"
    );

    let mut entries = String::new();
    let mut first = true;
    for netlist in &designs {
        let faults = sampled_faults(netlist, sampled_gates);
        let workloads = WorkloadSuite::generate(netlist, &workload_config);
        let reference = measure_reference(netlist, &faults, &workloads);
        let mut wide_entries = String::new();
        let mut wide_rates = Vec::new();
        for (i, lane_words) in [1usize, 4, 8].into_iter().enumerate() {
            let wide = measure(
                netlist,
                &faults,
                &workloads,
                CampaignConfig {
                    threads: 1,
                    lane_words,
                    ..Default::default()
                },
            );
            assert_identical(netlist.name(), &reference.report, &wide.report);
            if i > 0 {
                wide_entries.push(',');
            }
            let _ = write!(
                wide_entries,
                "\n        {{\n          \"lane_words\": {},\n          \"lanes\": {},\n          \"seconds\": {:.4},\n          \"fault_cycles_per_second\": {:.0},\n          \"gate_evals\": {},\n          \"evals_per_stepped_fault_cycle\": {:.4},\n          \"dense_handoffs\": {},\n          \"speedup_vs_reference\": {:.2}\n        }}",
                lane_words,
                64 * lane_words,
                wide.seconds,
                wide.fault_cycles_per_second(),
                wide.gate_evals,
                wide.evals_per_stepped_fault_cycle(),
                wide.dense_handoffs,
                wide.fault_cycles_per_second() / reference.fault_cycles_per_second(),
            );
            wide_rates.push(wide.fault_cycles_per_second());
        }
        let best = wide_rates.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{:<12} {:>7} {:>7} {:>13.0} {:>13.0} {:>13.0} {:>13.0} {:>8.2}x",
            netlist.name(),
            netlist.gate_count(),
            faults.len(),
            reference.fault_cycles_per_second(),
            wide_rates[0],
            wide_rates[1],
            wide_rates[2],
            best / reference.fault_cycles_per_second(),
        );

        if !first {
            entries.push(',');
        }
        first = false;
        let _ = write!(
            entries,
            "\n    {{\n      \"design\": \"{}\",\n      \"gates\": {},\n      \"flops\": {},\n      \"faults\": {},\n      \"fault_cycles\": {},\n      \"bit_identical_checked\": true,\n      \"reference\": {{\n        \"seconds\": {:.4},\n        \"fault_cycles_per_second\": {:.0},\n        \"gate_evals\": {}\n      }},\n      \"wide\": [{}\n      ],\n      \"best_speedup_vs_reference\": {:.2}\n    }}",
            json_escape(netlist.name()),
            netlist.gate_count(),
            netlist.sequential_gates().len(),
            faults.len(),
            reference.fault_cycles,
            reference.seconds,
            reference.fault_cycles_per_second(),
            reference.gate_evals,
            wide_entries,
            best / reference.fault_cycles_per_second(),
        );
    }
    entries
}
