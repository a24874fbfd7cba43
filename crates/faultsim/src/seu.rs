//! Single-event-upset (transient bit-flip) campaigns.
//!
//! Stuck-at faults model permanent defects; E/E functional safety (and
//! the paper's motivating scenarios — §1's runaway-acceleration example)
//! equally cares about *transient* upsets: a particle strike flips one
//! register bit once, and the question is whether the error is flushed,
//! stays latent in state, or corrupts the outputs. This module injects
//! one flip per flip-flop per injection cycle, 256 flops per pass, and
//! aggregates per-flop SEU vulnerability scores analogous to Algorithm
//! 1's criticality scores. [`crate::reference::seu`] is the independent
//! oracle the kernel is tested against.

use crate::campaign::{CampaignConfig, GoldenTrace, LANE_WORDS};
use fusa_logicsim::{SoaNetlist, WideSim, Workload, WorkloadSuite};
use fusa_netlist::{GateId, Netlist};

/// Cycles, as fractions of the workload length, at which flips are
/// injected; each fraction is one injection experiment.
pub(crate) const INJECTION_POINTS: [f64; 3] = [0.25, 0.5, 0.75];

/// Outcome of one (flop, workload, injection point) experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeuOutcome {
    /// The flipped bit reached a primary output.
    Corrupted,
    /// The flip never reached an output but state still differs at the
    /// end of the workload.
    Latent,
    /// The flip was overwritten/flushed: state and outputs both match.
    Masked,
}

/// Aggregated SEU vulnerability per flip-flop.
#[derive(Debug, Clone)]
pub struct SeuReport {
    /// The flip-flops that were targeted, in campaign order.
    pub flops: Vec<GateId>,
    /// Fraction of experiments per flop whose flip corrupted an output.
    pub corruption_rate: Vec<f64>,
    /// Fraction of experiments per flop that ended latent.
    pub latent_rate: Vec<f64>,
    /// Total experiments per flop.
    pub experiments: usize,
    /// `true` when the campaign drained early on an interruption
    /// request; rates then aggregate only the completed experiments.
    pub interrupted: bool,
}

impl SeuReport {
    /// The flops sorted most-vulnerable first as `(gate, rate)`.
    pub fn ranking(&self) -> Vec<(GateId, f64)> {
        let mut ranked: Vec<(GateId, f64)> = self
            .flops
            .iter()
            .copied()
            .zip(self.corruption_rate.iter().copied())
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN rates"));
        ranked
    }

    /// Architectural-vulnerability-style mean over all flops.
    pub fn mean_corruption_rate(&self) -> f64 {
        if self.corruption_rate.is_empty() {
            return 0.0;
        }
        self.corruption_rate.iter().sum::<f64>() / self.corruption_rate.len() as f64
    }
}

/// Runs transient bit-flip campaigns over every flip-flop of a design.
#[derive(Debug, Clone, Default)]
pub struct SeuCampaign {
    interrupt: Option<&'static std::sync::atomic::AtomicBool>,
}

impl SeuCampaign {
    /// Creates a campaign runner.
    pub fn new() -> SeuCampaign {
        SeuCampaign::default()
    }

    /// Installs a cooperative interruption flag (typically the process
    /// signal flag): once set, the campaign finishes the experiment in
    /// flight and returns the partial report with `interrupted` set.
    pub fn with_interrupt(mut self, flag: &'static std::sync::atomic::AtomicBool) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// Injects one flip per flop at each injection point (a quarter,
    /// half and three quarters through) of each workload and aggregates
    /// vulnerability rates.
    pub fn run(&self, netlist: &Netlist, workloads: &WorkloadSuite) -> SeuReport {
        let obs = fusa_obs::global();
        let _span = obs.span("seu");
        let flops = netlist.sequential_gates();
        let soa = (!flops.is_empty()).then(|| SoaNetlist::new(netlist));
        // One golden pass per 64 workloads, outputs and end state only.
        let golden_config = CampaignConfig {
            restrict_to_cone: false,
            classify_latent: true,
            ..CampaignConfig::default()
        };
        let golden = soa.as_ref().map(|soa| {
            let workloads: Vec<&Workload> = workloads.workloads().iter().collect();
            GoldenTrace::compute_all(soa, &workloads, &golden_config)
        });
        let mut corrupted = vec![0usize; flops.len()];
        let mut latent = vec![0usize; flops.len()];
        let mut experiments = 0usize;
        let mut interrupted = false;
        let stop_requested = || {
            self.interrupt
                .is_some_and(|flag| flag.load(std::sync::atomic::Ordering::Acquire))
        };

        'campaign: for (w, workload) in workloads.workloads().iter().enumerate() {
            for fraction in INJECTION_POINTS {
                if stop_requested() {
                    interrupted = true;
                    break 'campaign;
                }
                let inject_cycle = ((workload.len() as f64 * fraction) as usize)
                    .min(workload.len().saturating_sub(1));
                experiments += 1;
                if let (Some(soa), Some(golden)) = (&soa, &golden) {
                    run_chunks_wide(
                        soa,
                        workload,
                        &golden[w],
                        &flops,
                        inject_cycle,
                        &mut corrupted,
                        &mut latent,
                    );
                }
            }
        }

        obs.add("seu.experiments", experiments as u64);
        obs.add("seu.flips", (experiments * flops.len()) as u64);

        let denom = experiments.max(1) as f64;
        SeuReport {
            flops,
            corruption_rate: corrupted.iter().map(|&c| c as f64 / denom).collect(),
            latent_rate: latent.iter().map(|&l| l as f64 / denom).collect(),
            experiments,
            interrupted,
        }
    }
}

/// One injection experiment: 256 flops flipped per pass at
/// `inject_cycle` (flop `i` of a group in word `i / 64`, lane `i % 64`),
/// scored against the workload's golden trace (its broadcast
/// `0`/`u64::MAX` lanes compare against any word).
fn run_chunks_wide(
    soa: &SoaNetlist,
    workload: &Workload,
    golden: &GoldenTrace,
    flops: &[GateId],
    inject_cycle: usize,
    corrupted: &mut [usize],
    latent: &mut [usize],
) {
    let mut sim = WideSim::<LANE_WORDS>::new(soa);
    for (group_index, group) in flops.chunks(64 * LANE_WORDS).enumerate() {
        sim.reset();
        sim.clear_forces();
        let members = group.len().div_ceil(64);
        let mut diverged = [0u64; LANE_WORDS];
        for (cycle, vector) in workload.vectors.iter().enumerate() {
            if cycle == inject_cycle {
                for (i, &flop) in group.iter().enumerate() {
                    sim.schedule_state_flip(flop, i / 64, 1u64 << (i % 64));
                }
            }
            sim.set_vector_broadcast(vector);
            sim.settle();
            if cycle > inject_cycle {
                for o in 0..soa.output_count() {
                    let golden = golden.output_lanes(cycle, o);
                    for (co, word) in diverged.iter_mut().enumerate().take(members) {
                        *word |= sim.output_word(o, co) ^ golden;
                    }
                }
            }
            sim.clock();
        }
        // `flops` are the sequential gates in order, as the golden
        // final state holds them.
        let state_differs = sim.state_mismatch(Some(golden.final_state()));
        for (i, _) in group.iter().enumerate() {
            let index = group_index * 64 * LANE_WORDS + i;
            let mask = 1u64 << (i % 64);
            if diverged[i / 64] & mask != 0 {
                corrupted[index] += 1;
            } else if state_differs[i / 64] & mask != 0 {
                latent[index] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusa_logicsim::WorkloadConfig;
    use fusa_netlist::{GateKind, NetlistBuilder};

    fn suite(netlist: &Netlist) -> WorkloadSuite {
        WorkloadSuite::generate(
            netlist,
            &WorkloadConfig {
                num_workloads: 3,
                vectors_per_workload: 32,
                reset_cycles: 0,
                seed: 5,
            },
        )
    }

    #[test]
    fn observable_flop_flip_corrupts_output() {
        // A register that directly drives an output and feeds itself
        // (hold): a flip persists and must be seen.
        let mut b = NetlistBuilder::new("hold");
        let q = b.net("q");
        b.gate_driving("R", GateKind::Dff, &[q], q);
        b.primary_output("q", q);
        let netlist = b.finish().unwrap();
        let report = SeuCampaign::default().run(&netlist, &suite(&netlist));
        assert_eq!(report.flops.len(), 1);
        assert_eq!(report.corruption_rate[0], 1.0);
    }

    #[test]
    fn overwritten_flop_flip_is_masked() {
        // A register reloaded from a primary input every cycle, feeding
        // nothing else: the flip lives one cycle and never escapes...
        // except through the output, so route it nowhere: make a second
        // hidden register chain.
        let mut b = NetlistBuilder::new("flush");
        let a = b.primary_input("a");
        let hidden = b.gate_named("HID", GateKind::Dff, &[a]);
        let _hidden2 = b.gate_named("HID2", GateKind::Dff, &[hidden]);
        let z = b.gate(GateKind::Buf, &[a]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();
        let report = SeuCampaign::default().run(&netlist, &suite(&netlist));
        // Flips in HID are overwritten next cycle; flips in HID2
        // likewise. Neither can corrupt the output.
        assert!(report.corruption_rate.iter().all(|&r| r == 0.0));
        // And since both reload every cycle, the end state matches.
        assert!(report.latent_rate.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn ranking_orders_by_corruption() {
        // One observable hold register, one flushed register.
        let mut b = NetlistBuilder::new("mix");
        let a = b.primary_input("a");
        let q = b.net("q");
        b.gate_driving("HOLD", GateKind::Dff, &[q], q);
        let _flushed = b.gate_named("FLUSH", GateKind::Dff, &[a]);
        b.primary_output("q", q);
        let netlist = b.finish().unwrap();
        let report = SeuCampaign::default().run(&netlist, &suite(&netlist));
        let ranking = report.ranking();
        assert_eq!(
            netlist.gate(ranking[0].0).name,
            "HOLD",
            "hold register is most vulnerable"
        );
        assert!(ranking[0].1 > ranking[1].1);
        assert!(report.mean_corruption_rate() > 0.0);
    }

    #[test]
    fn experiments_count_workloads_times_points() {
        let mut b = NetlistBuilder::new("one");
        let a = b.primary_input("a");
        let q = b.gate(GateKind::Dff, &[a]);
        b.primary_output("q", q);
        let netlist = b.finish().unwrap();
        let report = SeuCampaign::default().run(&netlist, &suite(&netlist));
        assert_eq!(report.experiments, 3 * 3);
        assert!(!report.interrupted);
    }

    #[test]
    fn two_groups_agree_with_the_oracle() {
        // Differential: the campaign scores the exact same rates as the
        // oracle on a random sequential netlist with more flops than one
        // 256-lane pass holds, so its second group is partial.
        use fusa_netlist::designs::{random_netlist, RandomNetlistConfig};
        let netlist = random_netlist(&RandomNetlistConfig {
            num_inputs: 6,
            num_gates: 700,
            sequential_fraction: 0.5,
            num_outputs: 5,
            seed: 11,
            ..Default::default()
        });
        let workloads = suite(&netlist);
        let reference = crate::reference::seu(&netlist, &workloads);
        let flops = reference.flops.len();
        assert!(
            flops > 64 * LANE_WORDS && !flops.is_multiple_of(64 * LANE_WORDS),
            "want a full and a partial group, got {flops} flops"
        );
        let wide = SeuCampaign::new().run(&netlist, &workloads);
        assert_eq!(reference.flops, wide.flops);
        assert_eq!(reference.corruption_rate, wide.corruption_rate);
        assert_eq!(reference.latent_rate, wide.latent_rate);
        assert_eq!(reference.experiments, wide.experiments);
    }

    #[test]
    fn pre_set_interrupt_flag_yields_empty_partial_report() {
        use std::sync::atomic::AtomicBool;
        let mut b = NetlistBuilder::new("one");
        let a = b.primary_input("a");
        let q = b.gate(GateKind::Dff, &[a]);
        b.primary_output("q", q);
        let netlist = b.finish().unwrap();
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(true)));
        let report = SeuCampaign::default()
            .with_interrupt(flag)
            .run(&netlist, &suite(&netlist));
        assert!(report.interrupted);
        assert_eq!(report.experiments, 0);
    }
}
