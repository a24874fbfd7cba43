//! Differential tests: a campaign split into N shards, merged with
//! [`merge_checkpoints`], must be bit-identical to the oracle
//! (`fusa_faultsim::reference::stuck_at`) — across shard counts and
//! per-shard thread counts, with one shard interrupted mid-run and
//! resumed.
//!
//! This is the property the whole sharding feature rests on: shard
//! assignment depends only on the unit id (never on threads or resume
//! state), so the union of the shard checkpoints carries exactly the
//! information of one full campaign.

use fusa_faultsim::{
    merge_checkpoints, reference, CampaignConfig, CampaignReport, DurabilityConfig, FaultCampaign,
    FaultInjection, FaultList, ShardSpec,
};
use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
use fusa_netlist::designs::{random_netlist, RandomNetlistConfig};
use fusa_netlist::Netlist;
use proptest::prelude::*;
use std::path::PathBuf;

fn workloads_for(netlist: &Netlist, seed: u64) -> WorkloadSuite {
    WorkloadSuite::generate(
        netlist,
        &WorkloadConfig {
            num_workloads: 2,
            vectors_per_workload: 24,
            reset_cycles: 0,
            seed,
        },
    )
}

/// A collision-free scratch path per proptest case (cases from parallel
/// test binaries and shrink iterations must not share files).
fn scratch_path(tag: &str, seed: u64, index: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fusa_shard_merge_{}_{tag}_{seed:x}_{index}.jsonl",
        std::process::id()
    ))
}

fn assert_reports_identical(context: &str, reference: &CampaignReport, candidate: &CampaignReport) {
    let (a, b) = (reference.workload_reports(), candidate.workload_reports());
    assert_eq!(a.len(), b.len(), "{context}: workload count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.workload_name, y.workload_name,
            "{context}: workload order"
        );
        assert_eq!(
            x.outcomes, y.outcomes,
            "{context}: outcomes differ in workload {}",
            x.workload_name
        );
        assert_eq!(
            x.first_divergence, y.first_divergence,
            "{context}: first_divergence differs in workload {}",
            x.workload_name
        );
    }
    // The digested summary must agree too: shard bookkeeping leaks into
    // the stable text only through outcomes, never through scheduling.
    assert_eq!(
        reference.summary_opts(false),
        candidate.summary_opts(false),
        "{context}: stable summary"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Run every shard of an N-way partition (each with its own thread
    /// count, one interrupted mid-run and resumed), merge
    /// the shard checkpoints, and resume a campaign from the merged
    /// checkpoint: the result is bit-identical to the oracle's single
    /// uninterrupted run, down to the digested summary.
    #[test]
    fn merged_shards_equal_single_uninterrupted_run(
        seed in 0u64..1u64 << 48,
        num_gates in 40usize..100,
        sequential_fraction in 0.05f64..0.4,
        total_selector in 0usize..3,
        interrupted_selector in 0usize..5,
        interrupt_fraction in 0.2f64..0.8,
        schedule_seed in any::<u64>(),
    ) {
        let total = [2usize, 3, 5][total_selector];
        let netlist = random_netlist(&RandomNetlistConfig {
            num_inputs: 6,
            num_gates,
            sequential_fraction,
            num_outputs: 5,
            seed,
            ..Default::default()
        });
        let faults = FaultList::all_sites(&netlist);
        let workloads = workloads_for(&netlist, seed ^ 0x5AAD);
        let base = CampaignConfig {
            classify_latent: true,
            min_divergence_fraction: 0.0,
            ..CampaignConfig::default()
        };
        let unit_count = workloads.workloads().len() * faults.len().div_ceil(64);
        let interrupted_shard = interrupted_selector % total + 1;

        let reference = reference::stuck_at(&netlist, &faults, &workloads, &base);

        let mut paths = Vec::new();
        for index in 1..=total {
            let shard = ShardSpec { index, total };
            // Every shard gets its own thread count: assignment and
            // outcomes must not depend on it.
            let config = CampaignConfig {
                threads: (schedule_seed >> index) as usize % 3 + 1,
                shard: Some(shard),
                ..base
            };
            let path = scratch_path("shard", seed ^ (total as u64), index);
            let _ = std::fs::remove_file(&path);
            let owned = (0..unit_count).filter(|&unit| shard.owns(unit)).count();

            if index == interrupted_shard && owned >= 2 {
                // Interrupt this shard partway through its owned units,
                // leaving a partial checkpoint for the resume below.
                let after = ((owned as f64 * interrupt_fraction) as usize).clamp(1, owned - 1);
                let partial = FaultCampaign::new(config)
                    .with_durability(DurabilityConfig {
                        checkpoint: Some(path.clone()),
                        ..Default::default()
                    })
                    .with_injection(FaultInjection {
                        interrupt_after_units: Some(after),
                        ..Default::default()
                    })
                    .run(&netlist, &faults, &workloads)
                    .expect("interrupted shard still returns a report");
                prop_assert!(partial.interrupted(), "after={after}/{owned}");
            }

            let report = FaultCampaign::new(config)
                .with_durability(DurabilityConfig {
                    checkpoint: Some(path.clone()),
                    resume: index == interrupted_shard,
                    ..Default::default()
                })
                .run(&netlist, &faults, &workloads)
                .expect("shard campaign runs");
            prop_assert!(!report.interrupted());
            prop_assert_eq!(report.shard(), Some(shard));
            prop_assert_eq!(report.stats().units_in_shard, owned);
            paths.push(path);
        }

        let merged_path = scratch_path("merged", seed ^ (total as u64), 0);
        let _ = std::fs::remove_file(&merged_path);
        let outcome = merge_checkpoints(&paths, &merged_path).expect("shards merge cleanly");
        prop_assert_eq!(outcome.unit_count, unit_count);
        prop_assert!(outcome.header.shard.is_none(), "merged header is shard-free");
        prop_assert_eq!(outcome.sources.len(), total);

        // Resuming from the merged checkpoint finds every unit complete:
        // zero simulation, and the report equals the oracle's.
        let merged = FaultCampaign::new(CampaignConfig { threads: 1, ..base })
            .with_durability(DurabilityConfig {
                checkpoint: Some(merged_path.clone()),
                resume: true,
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .expect("merged campaign runs");
        prop_assert_eq!(merged.stats().units_from_checkpoint, unit_count);
        prop_assert!(merged.shard().is_none());
        assert_reports_identical(
            &format!(
                "seed={seed:x} total={total} interrupted_shard={interrupted_shard} \
                 schedule={schedule_seed:x}"
            ),
            &reference,
            &merged,
        );

        for path in paths {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_file(&merged_path);
    }
}
