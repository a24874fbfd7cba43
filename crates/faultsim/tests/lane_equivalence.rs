//! Differential tests: the wide structure-of-arrays kernel (256 fault
//! lanes a pass) must be bit-identical to the oracle,
//! `fusa_faultsim::reference::stuck_at` (one thread, per-gate `BitSim`
//! full sweep, a golden run of its own).
//!
//! The proptest generates random sequential netlists with every register
//! kind (plain, reset, enable, and both, on shared enable and reset
//! nets), injects every stuck-at site (gate outputs *and* input pins,
//! register enables and resets among them), and compares every
//! `FaultOutcome` and every `first_divergence` cycle between the oracle
//! and the campaign, across thread counts, differential stepping versus
//! the full sweep, both Dangerous thresholds (`0.0` and the pipeline's
//! `0.2`) and latent classification on and off, and with every 64-fault
//! chunk campaigned alone. A second property checks durability: a
//! checkpoint written by a differential run on one thread resumes
//! bit-identically on two threads and the full sweep, because the
//! checkpoint unit is always the 64-fault chunk regardless of how many
//! chunks a pass packs. The design tests pin both sides of the dense
//! hand-off: a built-in design whose passes switch to the full sweep,
//! and a synthetic one whose passes mostly stay differential.

use fusa_faultsim::{
    reference, CampaignConfig, CampaignReport, DurabilityConfig, FaultCampaign, FaultInjection,
    FaultList, FaultSite,
};
use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
use fusa_netlist::designs::{random_netlist, RandomNetlistConfig};
use fusa_netlist::{GateKind, Netlist, NetlistBuilder};
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

/// Latent classification on, classic detection threshold.
fn config(threads: usize, restrict_to_cone: bool) -> CampaignConfig {
    CampaignConfig {
        threads,
        classify_latent: true,
        min_divergence_fraction: 0.0,
        restrict_to_cone,
        shard: None,
    }
}

fn run_with(
    netlist: &Netlist,
    faults: &FaultList,
    workloads: &WorkloadSuite,
    config: CampaignConfig,
) -> CampaignReport {
    FaultCampaign::new(config)
        .run(netlist, faults, workloads)
        .expect("campaign runs")
}

/// Chunk groups one campaign simulates: four 64-fault chunks a pass.
fn group_count(faults: &FaultList, workloads: &WorkloadSuite) -> u64 {
    (workloads.workloads().len() * faults.len().div_ceil(64).div_ceil(4)) as u64
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
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// The campaign, under both stepping modes and thread counts, and
    /// one chunk at a time, reproduces the oracle bit for bit — on
    /// random netlists with every register kind, over every stuck-at
    /// site including input pins, at both Dangerous thresholds and with
    /// latent classification on and off.
    #[test]
    fn wide_kernel_is_bit_identical_to_the_oracle(
        seed in 0u64..1u64 << 48,
        num_gates in 40usize..120,
        sequential_fraction in 0.05f64..0.4,
        min_divergence_fraction in (0usize..2).prop_map(|i| [0.0, 0.2][i]),
        classify_latent: bool,
    ) {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_inputs: 6,
            num_gates,
            sequential_fraction,
            num_outputs: 5,
            seed,
            mixed_registers: true,
        });
        let faults = FaultList::all_sites(&netlist);
        let workloads = workloads_for(&netlist, seed ^ 0x1A9E5);
        let with_thresholds = |config: CampaignConfig| CampaignConfig {
            classify_latent,
            min_divergence_fraction,
            ..config
        };

        let reference = reference::stuck_at(
            &netlist, &faults, &workloads,
            &with_thresholds(CampaignConfig::default()),
        );
        for threads in [1usize, 4] {
            for restrict_to_cone in [false, true] {
                let candidate = run_with(
                    &netlist, &faults, &workloads,
                    with_thresholds(config(threads, restrict_to_cone)),
                );
                assert_reports_identical(
                    &format!(
                        "threads={threads} cone={restrict_to_cone} \
                         fraction={min_divergence_fraction} latent={classify_latent}"
                    ),
                    &reference,
                    &candidate,
                );
            }
        }
        // Each 64-fault chunk campaigned alone, a pass of one chunk: the
        // quietest passes, which stay differential the longest.
        for (c, chunk) in faults.faults().chunks(64).enumerate() {
            let alone: FaultList = chunk.iter().copied().collect();
            let candidate = run_with(
                &netlist, &alone, &workloads,
                with_thresholds(config(1, true)),
            );
            let range = c * 64..c * 64 + chunk.len();
            for (x, y) in reference.workload_reports().iter().zip(candidate.workload_reports()) {
                prop_assert_eq!(&x.outcomes[range.clone()], &y.outcomes[..], "chunk {}", c);
                prop_assert_eq!(
                    &x.first_divergence[range.clone()], &y.first_divergence[..], "chunk {}", c
                );
            }
        }
    }

    /// A resume on two threads and the full sweep of a checkpoint
    /// written by a differential run on one thread is bit-identical to
    /// the oracle, wherever the interruption lands.
    #[test]
    fn resume_across_schedules_is_bit_identical(
        seed in 0u64..1u64 << 48,
        num_gates in 40usize..100,
        interrupt_after in 1usize..6,
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
        let workloads = workloads_for(&netlist, seed ^ 0xCAFE);
        let reference =
            reference::stuck_at(&netlist, &faults, &workloads, &CampaignConfig::default());

        let path = std::env::temp_dir().join(format!(
            "fusa_lane_equivalence_{}_{seed:x}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let partial = FaultCampaign::new(config(1, true))
        .with_durability(DurabilityConfig {
            checkpoint: Some(path.clone()),
            ..DurabilityConfig::default()
        })
        .with_injection(FaultInjection {
            interrupt_after_units: Some(interrupt_after),
            ..FaultInjection::default()
        })
        .run(&netlist, &faults, &workloads)
        .expect("partial campaign runs");
        prop_assert!(partial.interrupted());

        let resumed = FaultCampaign::new(config(2, false))
        .with_durability(DurabilityConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            ..DurabilityConfig::default()
        })
        .run(&netlist, &faults, &workloads)
        .expect("resumed campaign runs");
        std::fs::remove_file(&path).ok();

        prop_assert!(!resumed.interrupted());
        prop_assert!(resumed.stats().units_from_checkpoint >= interrupt_after);
        assert_reports_identical("differential -> full sweep resume", &reference, &resumed);
        prop_assert_eq!(reference.summary_opts(false), resumed.summary_opts(false));
    }
}

/// The built-in designs (cheap config): the proptest covers the space,
/// this pins the real designs CI ships. Their fault effects fill most of
/// the logic, so some passes must hand off to the full sweep.
#[test]
fn builtin_designs_agree() {
    let mut handoffs = 0;
    for netlist in fusa_netlist::designs::all_designs() {
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = workloads_for(&netlist, 7);
        let reference =
            reference::stuck_at(&netlist, &faults, &workloads, &CampaignConfig::default());
        let wide = run_with(&netlist, &faults, &workloads, config(4, true));
        assert_reports_identical(netlist.name(), &reference, &wide);
        handoffs += wide.stats().dense_handoffs;
    }
    assert!(
        handoffs > 0,
        "no built-in pass handed off to the full sweep"
    );
}

/// The synthetic scaling designs run the wide kernel too: a 10k-gate
/// generator output matches the oracle.
#[test]
fn synthetic_design_agrees() {
    let netlist =
        fusa_netlist::designs::synthetic_design(&fusa_netlist::designs::SyntheticConfig {
            name: "lane_probe".to_string(),
            datapath_width: 16,
            pipeline_stages: 10,
            banks: 2,
            bank_counter_bits: 4,
            seed: 3,
        });
    let faults = FaultList::all_gate_outputs(&netlist);
    let workloads = workloads_for(&netlist, 11);
    let reference = reference::stuck_at(&netlist, &faults, &workloads, &CampaignConfig::default());
    let wide = run_with(&netlist, &faults, &workloads, config(2, true));
    assert_reports_identical("synthetic", &reference, &wide);
    // Sparse fault effects: most passes finish differentially.
    assert!(
        wide.stats().dense_handoffs < group_count(&faults, &workloads),
        "synthetic: every pass handed off"
    );
}

/// A reset edge that reaches a steady register holding a difference
/// must clear it, and a register with a forced pin must follow golden
/// D and Q every cycle, at campaign level. A stuck-at-1 on the `Tie0`
/// that feeds a DFFR or a DFFRE gives that register a difference equal
/// to its D difference (steady) until the reset `r` rises; the
/// register is observed only through `q & obs`, with `obs` the reset
/// delayed a cycle, so the fault is never Dangerous unless a kernel
/// keeps the difference past the edge. A stuck-at on the reset pin of
/// a DFFR that samples `d` is seen directly on its output. Each group
/// of faults runs alone, so no other lane of its pass clocks the
/// register (a pin force on it, or a difference on `r`, would clock it
/// every cycle) and stays differential; then every site runs
/// together.
#[test]
fn reset_edges_and_forced_registers_match_the_oracle() {
    let mut b = NetlistBuilder::new("reset_edges");
    let d = b.primary_input("d");
    let e = b.primary_input("e");
    let r = b.primary_input("r");
    let obs = b.gate_named("OBS", GateKind::Dff, &[r]);
    let zero = b.gate_named("TIE_R", GateKind::Tie0, &[]);
    let held = b.gate_named("HELD_R", GateKind::Dffr, &[zero, r]);
    let z = b.gate(GateKind::And2, &[held, obs]);
    b.primary_output("z", z);
    let zero = b.gate_named("TIE_RE", GateKind::Tie0, &[]);
    let held = b.gate_named("HELD_RE", GateKind::Dffre, &[zero, e, r]);
    let z = b.gate(GateKind::And2, &[held, obs]);
    b.primary_output("ze", z);
    let q = b.gate_named("SAMPLE", GateKind::Dffr, &[d, r]);
    b.primary_output("q", q);
    // A fault-free inverter chain keeps the passes under the hand-off
    // share, so they stay differential.
    let mut chain = d;
    for _ in 0..40 {
        chain = b.gate(GateKind::Inv, &[chain]);
    }
    b.primary_output("chain", chain);
    let netlist = b.finish().unwrap();
    let gate = |name: &str| netlist.find_gate(name).unwrap();

    let ties = FaultList::for_gates(&netlist, &[gate("TIE_R"), gate("TIE_RE")]);
    let mut reset_pin = FaultList::all_sites(&netlist);
    reset_pin.retain(|fault| fault.gate == gate("SAMPLE") && fault.site == FaultSite::InputPin(1));
    let every_site = FaultList::all_sites(&netlist);
    let workloads = WorkloadSuite::generate(
        &netlist,
        &WorkloadConfig {
            num_workloads: 12,
            vectors_per_workload: 32,
            reset_cycles: 0,
            seed: 0x5E7,
        },
    );
    for (label, faults) in [
        ("ties", &ties),
        ("reset pin", &reset_pin),
        ("all", &every_site),
    ] {
        for min_divergence_fraction in [0.0, 0.2] {
            let with_fraction = |config: CampaignConfig| CampaignConfig {
                min_divergence_fraction,
                ..config
            };
            let reference = reference::stuck_at(
                &netlist,
                faults,
                &workloads,
                &with_fraction(CampaignConfig::default()),
            );
            let candidate = run_with(&netlist, faults, &workloads, with_fraction(config(1, true)));
            let context = format!("{label} fraction={min_divergence_fraction}");
            assert_reports_identical(&context, &reference, &candidate);
            if label != "all" {
                assert_eq!(candidate.stats().dense_handoffs, 0, "{context}: hand-off");
            }
        }
    }
}
