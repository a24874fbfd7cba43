//! Differential tests: the accelerated campaign hot path (differential
//! stepping, early exit, multi-threaded unit scheduling) must be
//! bit-identical to the oracle, `fusa_faultsim::reference::stuck_at`.
//!
//! The proptest generates random sequential netlists, injects every
//! stuck-at site (gate outputs *and* input pins), and compares every
//! `FaultOutcome` and every `first_divergence` cycle across the
//! acceleration configurations at the default lane width. Any divergence
//! is a correctness bug in the differential/hand-off/early-exit
//! machinery, not a tuning regression. Lane widths are covered by
//! `tests/lane_equivalence.rs`.

use fusa_faultsim::{reference, CampaignConfig, CampaignReport, FaultCampaign, FaultList};
use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
use fusa_netlist::designs::{random_netlist, RandomNetlistConfig};
use fusa_netlist::Netlist;
use proptest::prelude::*;

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

fn run_with(
    netlist: &Netlist,
    faults: &FaultList,
    workloads: &WorkloadSuite,
    threads: usize,
    restrict_to_cone: bool,
    classify_latent: bool,
) -> CampaignReport {
    FaultCampaign::new(CampaignConfig {
        threads,
        classify_latent,
        restrict_to_cone,
        ..CampaignConfig::default()
    })
    .run(netlist, faults, workloads)
    .expect("campaign runs")
}

fn oracle(
    netlist: &Netlist,
    faults: &FaultList,
    workloads: &WorkloadSuite,
    classify_latent: bool,
) -> CampaignReport {
    let config = CampaignConfig {
        classify_latent,
        ..CampaignConfig::default()
    };
    reference::stuck_at(netlist, faults, workloads, &config)
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
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Differential stepping, early exit, and the threaded unit queue
    /// are all bit-identical to the oracle — on random netlists, over
    /// every stuck-at site including input pins, with latent
    /// classification on or off.
    #[test]
    fn accelerated_campaign_is_bit_identical_on_random_netlists(
        seed in 0u64..1u64 << 48,
        num_gates in 40usize..120,
        sequential_fraction in 0.05f64..0.4,
        classify_latent in any::<bool>(),
    ) {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_inputs: 6,
            num_gates,
            sequential_fraction,
            num_outputs: 5,
            seed,
            ..Default::default()
        });
        // Input-pin faults included: a pin force seeds differential
        // stepping at its gate alone, not at the driving net.
        let faults = FaultList::all_sites(&netlist);
        let workloads = workloads_for(&netlist, seed ^ 0x570C4);

        let reference = oracle(&netlist, &faults, &workloads, classify_latent);
        for threads in [1usize, 4] {
            for restrict_to_cone in [false, true] {
                let candidate = run_with(
                    &netlist, &faults, &workloads,
                    threads, restrict_to_cone, classify_latent,
                );
                assert_reports_identical(
                    &format!("threads={threads} cone={restrict_to_cone} latent={classify_latent}"),
                    &reference,
                    &candidate,
                );
            }
        }
    }
}

/// The four built-in designs, checked once each (cheap config): the
/// proptest covers the space, this pins the real designs CI actually
/// ships.
#[test]
fn builtin_designs_cone_on_off_agree() {
    for netlist in fusa_netlist::designs::all_designs() {
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = workloads_for(&netlist, 7);
        let reference = oracle(&netlist, &faults, &workloads, true);
        let accelerated = run_with(&netlist, &faults, &workloads, 4, true, true);
        assert_reports_identical(netlist.name(), &reference, &accelerated);
    }
}
