//! The reference oracle of the differential suites.
//!
//! [`stuck_at`] and [`seu`] compute the same outcomes as
//! [`FaultCampaign`](crate::FaultCampaign) and
//! [`SeuCampaign`](crate::SeuCampaign) in the plainest way there is: one
//! thread, the per-gate [`BitSim`] swept over the whole netlist every
//! cycle, one 64-fault (or 64-flop) chunk per pass, and a golden run of
//! their own. They share no code with the production kernel — no golden
//! trace, flat tables, scheduler, differential stepping, early exit or
//! checkpoint — so a bug there cannot hide in its own reference.
//!
//! Both are far too slow for real campaigns; they exist to be compared
//! against.

use crate::campaign::CampaignConfig;
use crate::fault::{FaultList, FaultSite};
use crate::report::{CampaignReport, CampaignStats, FaultOutcome, WorkloadReport};
use crate::seu::{SeuReport, INJECTION_POINTS};
use fusa_logicsim::{BitSim, Workload, WorkloadSuite};
use fusa_netlist::Netlist;
use std::time::Instant;

/// Lanes of one [`BitSim`] word.
const LANES: usize = 64;

/// Golden (fault-free) run of one workload: the primary outputs of every
/// cycle, cycle-major, and the flip-flop state at its end. Broadcast
/// lanes are all-zeros or all-ones, so they compare against any lane.
fn golden_run(netlist: &Netlist, workload: &Workload) -> (Vec<u64>, Vec<u64>) {
    let output_count = netlist.primary_outputs().len();
    let mut golden = BitSim::new(netlist);
    let mut outputs = vec![0u64; workload.len() * output_count];
    for (cycle, vector) in workload.vectors.iter().enumerate() {
        golden.step_broadcast_into(vector, &mut outputs[cycle * output_count..][..output_count]);
    }
    let state = golden
        .sequential_gates()
        .iter()
        .map(|&g| golden.flop_lanes(g))
        .collect();
    (outputs, state)
}

/// Lanes in which any primary output of `outputs` differs from `golden`.
fn mismatch(outputs: &[u64], golden: &[u64]) -> u64 {
    outputs.iter().zip(golden).fold(0, |m, (a, b)| m | (a ^ b))
}

/// Lanes in which any flip-flop of `sim` differs from `golden_state`.
fn state_mismatch(sim: &BitSim, golden_state: &[u64]) -> u64 {
    sim.sequential_gates()
        .iter()
        .zip(golden_state)
        .fold(0, |m, (&g, &golden)| m | (sim.flop_lanes(g) ^ golden))
}

/// Runs every fault of `faults` against every workload of `workloads`
/// and classifies each pair exactly as [`FaultCampaign`] defines it.
///
/// Of `config` it reads only `classify_latent` and
/// `min_divergence_fraction`; the other fields tune the production
/// kernel and cannot change an outcome. The report's stable summary
/// ([`CampaignReport::summary_opts`] with `false`) therefore equals a
/// clean full campaign's. Its stats count every fault-cycle as stepped
/// and every gate of every cycle as evaluated, on one thread.
///
/// [`FaultCampaign`]: crate::FaultCampaign
pub fn stuck_at(
    netlist: &Netlist,
    faults: &FaultList,
    workloads: &WorkloadSuite,
    config: &CampaignConfig,
) -> CampaignReport {
    let start = Instant::now();
    let workload_reports = workloads
        .workloads()
        .iter()
        .map(|workload| classify(netlist, faults, workload, config))
        .collect();
    let chunks = faults.len().div_ceil(LANES);
    let cycles: usize = workloads.workloads().iter().map(Workload::len).sum();
    let fault_cycles = (faults.len() * cycles) as u64;
    let gate_evals = (netlist.gate_count() * chunks * cycles) as u64;
    let wall_seconds = start.elapsed().as_secs_f64();
    CampaignReport {
        faults: faults.clone(),
        gate_count: netlist.gate_count(),
        workload_reports,
        stats: CampaignStats {
            wall_seconds,
            threads: 1,
            units: workloads.len() * chunks,
            units_in_shard: workloads.len() * chunks,
            fault_cycles,
            stepped_fault_cycles: fault_cycles,
            gate_evals,
            gate_evals_full: gate_evals,
            worker_busy_seconds: vec![wall_seconds],
            ..CampaignStats::default()
        },
        interrupted: false,
        quarantined: Vec::new(),
        shard: None,
    }
}

/// Classifies every fault of `faults` under one workload.
fn classify(
    netlist: &Netlist,
    faults: &FaultList,
    workload: &Workload,
    config: &CampaignConfig,
) -> WorkloadReport {
    let output_count = netlist.primary_outputs().len();
    let (golden_outputs, golden_state) = golden_run(netlist, workload);
    let min_divergent_cycles =
        ((config.min_divergence_fraction * workload.len() as f64).ceil() as usize).max(1);
    let mut sim = BitSim::new(netlist);
    let mut outputs = vec![0u64; output_count];
    let mut outcomes = Vec::with_capacity(faults.len());
    let mut first_divergence = Vec::with_capacity(faults.len());
    for chunk in faults.faults().chunks(LANES) {
        sim.reset();
        sim.clear_forces();
        for (lane, fault) in chunk.iter().enumerate() {
            let value = fault.stuck_at.value();
            match fault.site {
                FaultSite::Output => sim.force_lanes(fault.net, value, 1 << lane),
                FaultSite::InputPin(pin) => sim.force_pin_lanes(fault.gate, pin, value, 1 << lane),
            }
        }
        let mut divergent_cycles = [0usize; LANES];
        let mut first = [None; LANES];
        for (cycle, vector) in workload.vectors.iter().enumerate() {
            sim.step_broadcast_into(vector, &mut outputs);
            let differs = mismatch(&outputs, &golden_outputs[cycle * output_count..]);
            for lane in (0..chunk.len()).filter(|&lane| differs >> lane & 1 == 1) {
                divergent_cycles[lane] += 1;
                first[lane].get_or_insert(cycle as u32);
            }
        }
        let state_differs = state_mismatch(&sim, &golden_state);
        for lane in 0..chunk.len() {
            outcomes.push(if divergent_cycles[lane] >= min_divergent_cycles {
                FaultOutcome::Dangerous
            } else if first[lane].is_some()
                || (config.classify_latent && state_differs >> lane & 1 == 1)
            {
                FaultOutcome::Latent
            } else {
                FaultOutcome::Benign
            });
            first_divergence.push(first[lane]);
        }
    }
    WorkloadReport {
        workload_name: workload.name.clone(),
        outcomes,
        first_divergence,
    }
}

/// Flips every flip-flop once at each injection point of every workload
/// and scores the flips exactly as [`SeuCampaign`](crate::SeuCampaign)
/// does.
pub fn seu(netlist: &Netlist, workloads: &WorkloadSuite) -> SeuReport {
    let flops = netlist.sequential_gates();
    let output_count = netlist.primary_outputs().len();
    let mut sim = BitSim::new(netlist);
    let mut outputs = vec![0u64; output_count];
    let mut corrupted = vec![0usize; flops.len()];
    let mut latent = vec![0usize; flops.len()];
    let mut experiments = 0usize;
    for workload in workloads.workloads() {
        let (golden_outputs, golden_state) = golden_run(netlist, workload);
        for fraction in INJECTION_POINTS {
            let inject_cycle =
                ((workload.len() as f64 * fraction) as usize).min(workload.len().saturating_sub(1));
            experiments += 1;
            for (chunk_index, chunk) in flops.chunks(LANES).enumerate() {
                sim.reset();
                let mut diverged = 0u64;
                for (cycle, vector) in workload.vectors.iter().enumerate() {
                    if cycle == inject_cycle {
                        for (lane, &flop) in chunk.iter().enumerate() {
                            sim.schedule_state_flip(flop, 1 << lane);
                        }
                    }
                    sim.step_broadcast_into(vector, &mut outputs);
                    if cycle > inject_cycle {
                        diverged |= mismatch(&outputs, &golden_outputs[cycle * output_count..]);
                    }
                }
                let state_differs = state_mismatch(&sim, &golden_state);
                for lane in 0..chunk.len() {
                    let index = chunk_index * LANES + lane;
                    if diverged >> lane & 1 == 1 {
                        corrupted[index] += 1;
                    } else if state_differs >> lane & 1 == 1 {
                        latent[index] += 1;
                    }
                }
            }
        }
    }
    let denom = experiments.max(1) as f64;
    SeuReport {
        flops,
        corruption_rate: corrupted.iter().map(|&c| c as f64 / denom).collect(),
        latent_rate: latent.iter().map(|&l| l as f64 / denom).collect(),
        experiments,
        interrupted: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, StuckAt};
    use fusa_logicsim::{WorkloadConfig, WorkloadKind};
    use fusa_netlist::{GateKind, NetlistBuilder};

    /// `z = a & b`, one register `q <= a` that no output reads.
    fn and_with_hidden_register() -> Netlist {
        let mut b = NetlistBuilder::new("and_reg");
        let a = b.primary_input("a");
        let c = b.primary_input("b");
        let z = b.gate_named("AND", GateKind::And2, &[a, c]);
        let _q = b.gate_named("REG", GateKind::Dff, &[a]);
        b.primary_output("z", z);
        b.finish().unwrap()
    }

    #[test]
    fn outcomes_match_hand_worked_cases() {
        let netlist = and_with_hidden_register();
        let and = netlist.find_gate("AND").unwrap();
        let reg = netlist.find_gate("REG").unwrap();
        let faults: FaultList = [
            Fault::at_output(&netlist, and, StuckAt::Zero),
            Fault::at_output(&netlist, and, StuckAt::One),
            Fault::at_pin(&netlist, reg, 0, StuckAt::One),
            Fault::at_pin(&netlist, and, 1, StuckAt::One),
        ]
        .into_iter()
        .collect();
        // z = 1 at cycle 2 only; b = 0 with a = 1 at cycle 1 only.
        let workload = Workload {
            name: "hand".into(),
            kind: WorkloadKind::UniformRandom,
            vectors: vec![
                vec![false, false],
                vec![true, false],
                vec![true, true],
                vec![false, true],
            ],
        };
        let run = |classify_latent, min_divergence_fraction| {
            let config = CampaignConfig {
                classify_latent,
                min_divergence_fraction,
                ..CampaignConfig::default()
            };
            classify(&netlist, &faults, &workload, &config)
        };

        use FaultOutcome::*;
        // SA0 on z diverges at cycle 2, SA1 at 0, 1 and 3; the stuck
        // register input never reaches z but leaves the register at 1
        // where the golden run ends at 0; the pin fault on b shows at
        // cycle 1 alone.
        let report = run(true, 0.0);
        assert_eq!(report.outcomes, [Dangerous, Dangerous, Latent, Dangerous]);
        assert_eq!(report.first_divergence, [Some(2), Some(0), None, Some(1)]);
        // A 50% threshold keeps only the three-cycle divergence
        // Dangerous; one-cycle divergences become Latent.
        assert_eq!(run(true, 0.5).outcomes, [Latent, Dangerous, Latent, Latent]);
        // Without latent classification the hidden register is Benign.
        assert_eq!(run(false, 0.0).outcomes[2], Benign);
    }

    #[test]
    fn stats_count_a_full_sweep_of_every_chunk() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = WorkloadSuite::generate(
            &netlist,
            &WorkloadConfig {
                num_workloads: 2,
                vectors_per_workload: 8,
                reset_cycles: 0,
                seed: 4,
            },
        );
        let report = stuck_at(&netlist, &faults, &workloads, &CampaignConfig::default());
        let stats = report.stats();
        let chunks = faults.len().div_ceil(64);
        assert_eq!(stats.units, 2 * chunks);
        assert_eq!(stats.fault_cycles, (faults.len() * 16) as u64);
        assert_eq!(stats.gate_evals, stats.gate_evals_full);
        assert_eq!(
            stats.gate_evals,
            (netlist.gate_count() * chunks * 16) as u64
        );
        assert!(!report.summary_opts(false).contains("interrupted"));
    }

    #[test]
    fn seu_scores_hand_worked_cases() {
        // `q <= q` drives the output: a flip persists and is seen. `h <=
        // a` is reloaded every cycle and read by nothing.
        let mut b = NetlistBuilder::new("seu");
        let a = b.primary_input("a");
        let q = b.net("q");
        b.gate_driving("HOLD", GateKind::Dff, &[q], q);
        let _h = b.gate_named("FLUSH", GateKind::Dff, &[a]);
        b.primary_output("q", q);
        let netlist = b.finish().unwrap();
        let workloads = WorkloadSuite::generate(
            &netlist,
            &WorkloadConfig {
                num_workloads: 2,
                vectors_per_workload: 8,
                reset_cycles: 0,
                seed: 3,
            },
        );
        let report = seu(&netlist, &workloads);
        assert_eq!(report.experiments, 2 * 3);
        let hold = report
            .flops
            .iter()
            .position(|&g| netlist.gate(g).name == "HOLD");
        let hold = hold.unwrap();
        assert_eq!(report.corruption_rate[hold], 1.0);
        assert_eq!(report.corruption_rate[1 - hold], 0.0);
        assert_eq!(report.latent_rate[1 - hold], 0.0);
    }
}
