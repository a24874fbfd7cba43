//! Differential tests: a campaign that is interrupted mid-run,
//! checkpointed, and resumed must be bit-identical to one that ran
//! uninterrupted — across thread counts and cone restriction, on random
//! netlists.
//!
//! Interruption is injected deterministically with
//! [`FaultInjection::interrupt_after_units`] (no process-global signal
//! state), so shrinking stays meaningful when a case fails.

use fusa_faultsim::{
    CampaignConfig, CampaignReport, DurabilityConfig, FaultCampaign, FaultInjection, FaultList,
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

/// A collision-free checkpoint path per proptest case (cases from
/// different test binaries and shrink iterations must not share files).
fn checkpoint_path(tag: &str, seed: u64, threads: usize, cone: bool) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fusa_durability_eq_{}_{tag}_{seed:x}_{threads}_{cone}.jsonl",
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
    // The digested summary must agree too: resume state leaks into the
    // stable text only through outcomes, never through bookkeeping.
    assert_eq!(
        reference.summary_opts(false),
        candidate.summary_opts(false),
        "{context}: stable summary"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Interrupt after K units, then resume from the checkpoint: the
    /// stitched-together report is bit-identical to an uninterrupted
    /// run with the same acceleration configuration.
    #[test]
    fn interrupted_then_resumed_campaign_is_bit_identical(
        seed in 0u64..1u64 << 48,
        num_gates in 40usize..100,
        sequential_fraction in 0.05f64..0.4,
        interrupt_fraction in 0.1f64..0.9,
        threads in 1usize..4,
        restrict_to_cone in any::<bool>(),
    ) {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_inputs: 6,
            num_gates,
            sequential_fraction,
            num_outputs: 5,
            seed,
            ..Default::default()
        });
        let faults = FaultList::all_sites(&netlist);
        let workloads = workloads_for(&netlist, seed ^ 0xD0_4A8);
        let config = CampaignConfig {
            threads,
            classify_latent: true,
            min_divergence_fraction: 0.0,
            restrict_to_cone,
            ..CampaignConfig::default()
        };

        let reference = FaultCampaign::new(config)
            .run(&netlist, &faults, &workloads)
            .expect("reference campaign runs");
        let unit_count = workloads.workloads().len() * faults.len().div_ceil(64);
        let after = ((unit_count as f64 * interrupt_fraction) as usize).clamp(1, unit_count - 1);

        let path = checkpoint_path("resume", seed, threads, restrict_to_cone);
        let _ = std::fs::remove_file(&path);

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
            .expect("interrupted campaign still returns a report");
        prop_assert!(partial.interrupted(), "after={after}/{unit_count}");
        prop_assert!(partial.stats().units_skipped > 0 || threads > 1);

        let resumed = FaultCampaign::new(config)
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.clone()),
                resume: true,
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .expect("resumed campaign runs");
        prop_assert!(!resumed.interrupted());
        prop_assert!(resumed.stats().units_from_checkpoint >= after.min(unit_count));

        assert_reports_identical(
            &format!(
                "seed={seed:x} after={after}/{unit_count} threads={threads} \
                 cone={restrict_to_cone}"
            ),
            &reference,
            &resumed,
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Quarantining a unit never corrupts the rest of the campaign: all
    /// other units match the reference bit for bit, and a subsequent
    /// resume from the same checkpoint re-simulates only the quarantined
    /// unit — converging on the full clean report.
    #[test]
    fn quarantine_is_isolated_and_resume_heals_it(
        seed in 0u64..1u64 << 48,
        num_gates in 40usize..100,
        threads in 1usize..4,
    ) {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_inputs: 6,
            num_gates,
            sequential_fraction: 0.2,
            num_outputs: 5,
            seed,
            ..Default::default()
        });
        let faults = FaultList::all_sites(&netlist);
        let workloads = workloads_for(&netlist, seed ^ 0x9_B1D);
        let config = CampaignConfig {
            threads,
            classify_latent: false,
            min_divergence_fraction: 0.0,
            restrict_to_cone: true,
            ..CampaignConfig::default()
        };
        let unit_count = workloads.workloads().len() * faults.len().div_ceil(64);
        let bad_unit = (seed as usize) % unit_count;

        let reference = FaultCampaign::new(config)
            .run(&netlist, &faults, &workloads)
            .expect("reference campaign runs");

        let path = checkpoint_path("heal", seed, threads, true);
        let _ = std::fs::remove_file(&path);
        let degraded = FaultCampaign::new(config)
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.clone()),
                max_unit_retries: 1,
                ..Default::default()
            })
            .with_injection(FaultInjection {
                panic_units: vec![bad_unit],
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .expect("degraded campaign completes");
        prop_assert!(!degraded.interrupted());
        prop_assert_eq!(degraded.quarantined().len(), 1);
        prop_assert_eq!(degraded.quarantined()[0].unit, bad_unit);
        prop_assert_eq!(degraded.quarantined()[0].attempts, 2u32);

        // Every non-quarantined unit's outcomes match the reference: the
        // panicking unit contaminated nothing.
        let chunk_count = faults.len().div_ceil(64);
        for (w, (x, y)) in reference
            .workload_reports()
            .iter()
            .zip(degraded.workload_reports())
            .enumerate()
        {
            for (i, (a, b)) in x.outcomes.iter().zip(&y.outcomes).enumerate() {
                let unit = w * chunk_count + i / 64;
                if unit != bad_unit {
                    prop_assert_eq!(a, b, "workload {} fault {}", w, i);
                }
            }
        }

        // Resume (injection disarmed): only the quarantined unit is
        // missing from the checkpoint, so the healed run equals the
        // clean reference exactly.
        let healed = FaultCampaign::new(config)
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.clone()),
                resume: true,
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .expect("healed campaign runs");
        prop_assert_eq!(healed.quarantined().len(), 0);
        prop_assert_eq!(healed.stats().units_from_checkpoint, unit_count - 1);
        assert_reports_identical(
            &format!("seed={seed:x} bad_unit={bad_unit} threads={threads}"),
            &reference,
            &healed,
        );
        let _ = std::fs::remove_file(&path);
    }
}
