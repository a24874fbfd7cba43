//! Criterion bench for the fault-injection campaign hot path.
//!
//! Measures the accelerated campaign (differential stepping + early
//! exit, the default) against the reference oracle
//! (`fusa_faultsim::reference::stuck_at`: one thread, per-gate full
//! sweep) on the built-in designs. Both paths are bit-identical (see
//! `crates/faultsim/tests/cone_equivalence.rs`), so the delta here is
//! pure throughput.
//!
//! The `accelerated_*` variants double as the progress-overhead guard:
//! they run with no trace sink and `--progress` off, the default in
//! which `fusa_obs::Progress::start` returns a disabled handle (no
//! heartbeat thread, every hot-loop hook a branch on `None`). The
//! `traced_*` variants attach a null sink so the heartbeat thread and
//! per-event serialization are included; comparing the two bounds the
//! telemetry cost when tracing is enabled. Cross-run rot on the
//! default path is caught by the `./ci` compare gate and by
//! `bench_pipeline`, which times whole commands.

use criterion::{criterion_group, criterion_main, Criterion};
use fusa_faultsim::{reference, CampaignConfig, FaultCampaign, FaultList};
use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
use fusa_netlist::designs::{or1200_icfsm, uart_ctrl};
use fusa_netlist::Netlist;
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
    targets = bench_campaign_throughput
}
criterion_main!(benches);
