//! Signal and transition probability estimation.
//!
//! These estimates become the GCN node features of §3.1:
//!
//! * **intrinsic state probability** — the probability that a gate's
//!   output is `1` (resp. `0`) under random stimulus (§3.1.2);
//! * **intrinsic transition probability** — the probability that the
//!   output changes between consecutive cycles (§3.1.3).
//!
//! Estimation is Monte-Carlo over the [`crate::BitSim`] pattern-parallel
//! engine: each simulated cycle evaluates 64 random input lanes at once,
//! every input bit a fair coin, so `cycles = 512` samples 32,768
//! patterns per net.

use crate::bitsim::BitSim;
use fusa_netlist::{GateId, Netlist};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Parameters for [`SignalStats::estimate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalStatsConfig {
    /// Simulated cycles; each contributes 64 pattern lanes.
    pub cycles: usize,
    /// Cycles discarded before counting (flushes reset bias).
    pub warmup: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SignalStatsConfig {
    fn default() -> Self {
        SignalStatsConfig {
            cycles: 512,
            warmup: 16,
            seed: 0x51671A15,
        }
    }
}

/// Estimated per-gate signal statistics.
///
/// # Example
///
/// ```
/// use fusa_logicsim::{SignalStats, SignalStatsConfig};
/// use fusa_netlist::designs::or1200_icfsm;
///
/// let netlist = or1200_icfsm();
/// let stats = SignalStats::estimate(&netlist, &SignalStatsConfig::default());
/// let gate = netlist.combinational_gates()[0];
/// let p1 = stats.probability_one(gate);
/// assert!((0.0..=1.0).contains(&p1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SignalStats {
    p_one: Vec<f64>,
    transition: Vec<f64>,
}

impl SignalStats {
    /// Monte-Carlo estimates the signal statistics of every gate output.
    ///
    /// # Panics
    ///
    /// Panics if `config.cycles <= config.warmup`.
    pub fn estimate(netlist: &Netlist, config: &SignalStatsConfig) -> SignalStats {
        let _span = fusa_obs::global().span("signal-stats");
        assert!(
            config.cycles > config.warmup,
            "need more cycles than warmup"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut sim = BitSim::new(netlist);
        let pi_count = netlist.primary_inputs().len();
        let gate_count = netlist.gate_count();

        let mut ones = vec![0u64; gate_count];
        let mut toggles = vec![0u64; gate_count];
        let mut previous = vec![0u64; gate_count];
        let mut counted_cycles = 0u64;

        // Flat per-gate output-net indices so the per-cycle counting loop
        // avoids a struct walk per gate.
        let output_net: Vec<usize> = netlist.gates().iter().map(|g| g.output.index()).collect();

        for cycle in 0..config.cycles {
            for i in 0..pi_count {
                sim.set_input_lanes(i, rng.gen::<u64>());
            }
            sim.settle();
            if cycle >= config.warmup {
                let values = sim.net_values();
                for g in 0..gate_count {
                    let lanes = values[output_net[g]];
                    ones[g] += lanes.count_ones() as u64;
                    if counted_cycles > 0 {
                        toggles[g] += (lanes ^ previous[g]).count_ones() as u64;
                    }
                    previous[g] = lanes;
                }
                counted_cycles += 1;
            }
            sim.clock();
        }

        let sample_bits = (counted_cycles * 64).max(1) as f64;
        let toggle_bits = ((counted_cycles.saturating_sub(1)) * 64).max(1) as f64;
        SignalStats {
            p_one: ones.iter().map(|&c| c as f64 / sample_bits).collect(),
            transition: toggles.iter().map(|&c| c as f64 / toggle_bits).collect(),
        }
    }

    /// Probability that the gate's output is `1`.
    pub fn probability_one(&self, gate: GateId) -> f64 {
        self.p_one[gate.index()]
    }

    /// Probability that the gate's output is `0`.
    pub fn probability_zero(&self, gate: GateId) -> f64 {
        1.0 - self.p_one[gate.index()]
    }

    /// Probability that the gate's output changes between consecutive
    /// cycles.
    pub fn transition_probability(&self, gate: GateId) -> f64 {
        self.transition[gate.index()]
    }

    /// All `P(1)` values, indexed by gate id.
    pub fn p_one_slice(&self) -> &[f64] {
        &self.p_one
    }

    /// All transition probabilities, indexed by gate id.
    pub fn transition_slice(&self) -> &[f64] {
        &self.transition
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusa_netlist::{GateKind, NetlistBuilder};

    fn stats_for(netlist: &Netlist) -> SignalStats {
        SignalStats::estimate(
            netlist,
            &SignalStatsConfig {
                cycles: 300,
                warmup: 8,
                ..Default::default()
            },
        )
    }

    #[test]
    fn and_gate_probability_near_quarter() {
        let mut b = NetlistBuilder::new("and");
        let a = b.primary_input("a");
        let c = b.primary_input("b");
        let z = b.gate(GateKind::And2, &[a, c]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();
        let stats = stats_for(&netlist);
        let g = GateId(0);
        assert!(
            (stats.probability_one(g) - 0.25).abs() < 0.02,
            "got {}",
            stats.probability_one(g)
        );
        assert!((stats.probability_zero(g) - 0.75).abs() < 0.02);
    }

    #[test]
    fn xor_gate_probability_near_half() {
        let mut b = NetlistBuilder::new("xor");
        let a = b.primary_input("a");
        let c = b.primary_input("b");
        let z = b.gate(GateKind::Xor2, &[a, c]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();
        let stats = stats_for(&netlist);
        assert!((stats.probability_one(GateId(0)) - 0.5).abs() < 0.02);
        // Uniform fresh inputs: output toggles with probability 1/2.
        assert!((stats.transition_probability(GateId(0)) - 0.5).abs() < 0.03);
    }

    #[test]
    fn tie_cells_have_extreme_probabilities() {
        let mut b = NetlistBuilder::new("ties");
        let one = b.gate(GateKind::Tie1, &[]);
        let zero = b.gate(GateKind::Tie0, &[]);
        let z = b.gate(GateKind::And2, &[one, zero]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();
        let stats = stats_for(&netlist);
        assert_eq!(stats.probability_one(GateId(0)), 1.0);
        assert_eq!(stats.probability_one(GateId(1)), 0.0);
        assert_eq!(stats.transition_probability(GateId(0)), 0.0);
    }

    #[test]
    fn estimates_are_deterministic() {
        let mut b = NetlistBuilder::new("n");
        let a = b.primary_input("a");
        let c = b.primary_input("b");
        let z = b.gate(GateKind::Nand2, &[a, c]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();
        assert_eq!(stats_for(&netlist), stats_for(&netlist));
    }

    #[test]
    #[should_panic(expected = "more cycles than warmup")]
    fn warmup_must_be_smaller() {
        let mut b = NetlistBuilder::new("n");
        let a = b.primary_input("a");
        let z = b.gate(GateKind::Inv, &[a]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();
        SignalStats::estimate(
            &netlist,
            &SignalStatsConfig {
                cycles: 4,
                warmup: 8,
                ..Default::default()
            },
        );
    }
}
