//! Criterion bench for the fault-injection campaign hot path.
//!
//! Measures the accelerated campaign (differential stepping + early
//! exit, the default) against the reference oracle
//! (`fusa_faultsim::reference::stuck_at`: one thread, per-gate full
//! sweep) on the built-in designs. Both paths are bit-identical (see
//! `crates/faultsim/tests/cone_equivalence.rs`), so the delta here is
//! pure throughput. `bench_campaign` (the companion `--bin`) turns the
//! same measurement into `BENCH_campaign.json`.
//!
//! The `accelerated_*` variants double as the progress-overhead guard:
//! they run with no trace sink and `--progress` off, the default in
//! which `fusa_obs::Progress::start` returns a disabled handle (no
//! heartbeat thread, every hot-loop hook a branch on `None`). The
//! `traced_*` variants attach a null sink so the heartbeat thread and
//! per-event serialization are included; comparing the two bounds the
//! telemetry cost when tracing is enabled. Cross-run rot on the
//! default path is caught by `fusa compare --append-bench` trajectories
//! and the `./ci` compare gate.

use criterion::{criterion_group, criterion_main, Criterion};
use fusa_faultsim::{reference, CampaignConfig, FaultCampaign, FaultList};
use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
use fusa_netlist::designs::{or1200_icfsm, synth_10k, uart_ctrl};
use fusa_netlist::{GateId, Netlist};
use std::hint::black_box;

fn workloads_for(netlist: &Netlist) -> WorkloadSuite {
    WorkloadSuite::generate(
        netlist,
        &WorkloadConfig {
            num_workloads: 2,
            vectors_per_workload: 64,
            ..Default::default()
        },
    )
}

fn accelerated() -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        ..Default::default()
    }
}

/// Differential stepping + early exit at a given lane width, everything
/// else held at the accelerated default.
fn at_width(lane_words: usize) -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        lane_words,
        ..Default::default()
    }
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

/// Lane-width sweep of the structure-of-arrays kernel on one builtin
/// and one ~10k-gate synthesized design (sampled faults). Bit-identity
/// across these configurations is enforced by
/// `crates/faultsim/tests/lane_equivalence.rs`.
fn bench_lane_widths(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_widths");
    group.sample_size(10);
    let builtin = or1200_icfsm();
    let synthetic = synth_10k(1);
    let cases = [
        (FaultList::all_gate_outputs(&builtin), &builtin),
        (sampled_faults(&synthetic, 128), &synthetic),
    ];
    for (faults, netlist) in &cases {
        let workloads = workloads_for(netlist);
        for (label, lane_words) in [("w1", 1usize), ("w4", 4), ("w8", 8)] {
            group.bench_function(&format!("{label}_{}", netlist.name()), |b| {
                let campaign = FaultCampaign::new(at_width(lane_words));
                b.iter(|| black_box(campaign.run(netlist, faults, &workloads)))
            });
        }
    }
    group.finish();
}

fn bench_campaign_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);
    for netlist in [or1200_icfsm(), uart_ctrl()] {
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = workloads_for(&netlist);
        group.bench_function(&format!("accelerated_{}", netlist.name()), |b| {
            let campaign = FaultCampaign::new(accelerated());
            b.iter(|| black_box(campaign.run(&netlist, &faults, &workloads)))
        });
        group.bench_function(&format!("full_netlist_{}", netlist.name()), |b| {
            let config = CampaignConfig::default();
            b.iter(|| black_box(reference::stuck_at(&netlist, &faults, &workloads, &config)))
        });
        group.bench_function(&format!("traced_{}", netlist.name()), |b| {
            let campaign = FaultCampaign::new(accelerated());
            fusa_obs::global().attach_sink(Box::new(std::io::sink()));
            b.iter(|| black_box(campaign.run(&netlist, &faults, &workloads)));
            fusa_obs::global().detach_sink();
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_campaign_throughput, bench_lane_widths
}
criterion_main!(benches);
