//! Seeded random netlist generation for property-based testing and
//! scaling benchmarks.

use crate::builder::NetlistBuilder;
use crate::gate::GateKind;
use crate::netlist::{NetId, Netlist};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Parameters for [`random_netlist`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomNetlistConfig {
    /// Number of primary inputs (≥ 1).
    pub num_inputs: usize,
    /// Number of gates to create (≥ 1).
    pub num_gates: usize,
    /// Probability that a created gate is a flip-flop, in `[0, 1)`.
    pub sequential_fraction: f64,
    /// Number of primary outputs to tap (≥ 1, clamped to `num_gates`).
    pub num_outputs: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Draw every register kind (`Dff`, `Dffr`, `Dffe`, `Dffre`) on a
    /// few shared enable and reset nets, instead of plain `Dff`s only.
    /// Off by default, so a seed keeps the netlist it always had.
    pub mixed_registers: bool,
}

impl Default for RandomNetlistConfig {
    fn default() -> Self {
        RandomNetlistConfig {
            num_inputs: 8,
            num_gates: 200,
            sequential_fraction: 0.15,
            num_outputs: 8,
            seed: 0xFA57,
            mixed_registers: false,
        }
    }
}

/// Generates a random, valid, acyclic netlist.
///
/// Gates only read nets created earlier (primary inputs or previous gate
/// outputs), so the combinational subgraph is a DAG by construction.
/// Flip-flops may additionally read any net, including later ones, giving
/// realistic sequential feedback. With `mixed_registers`, the registers
/// share two enable and two reset nets drawn from the existing ones, as
/// the registers of one bank do. The last `num_outputs` gate outputs
/// become primary outputs, so late gates are always observable.
///
/// # Panics
///
/// Panics if `num_inputs` or `num_gates` is zero.
///
/// # Example
///
/// ```
/// use fusa_netlist::designs::{random_netlist, RandomNetlistConfig};
///
/// let netlist = random_netlist(&RandomNetlistConfig::default());
/// assert_eq!(netlist.gate_count(), 200);
/// ```
pub fn random_netlist(config: &RandomNetlistConfig) -> Netlist {
    assert!(config.num_inputs > 0, "need at least one primary input");
    assert!(config.num_gates > 0, "need at least one gate");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut b = NetlistBuilder::new(format!("random_{}", config.seed));

    let mut available: Vec<NetId> = (0..config.num_inputs)
        .map(|i| b.primary_input(format!("in{i}")))
        .collect();

    // Pre-declare flip-flop output nets so combinational gates can read
    // them before their drivers exist (legal sequential feedback).
    let num_flops = ((config.num_gates as f64) * config.sequential_fraction) as usize;
    let flop_outputs: Vec<NetId> = (0..num_flops)
        .map(|i| {
            let q = b.net(format!("ffq{i}"));
            q
        })
        .collect();
    available.extend(&flop_outputs);

    const COMB_KINDS: [GateKind; 16] = [
        GateKind::Inv,
        GateKind::Buf,
        GateKind::And2,
        GateKind::Or2,
        GateKind::Nand2,
        GateKind::Nand3,
        GateKind::Nand4,
        GateKind::Nor2,
        GateKind::Nor3,
        GateKind::Xor2,
        GateKind::Xnor2,
        GateKind::Mux2,
        GateKind::Ao21,
        GateKind::Ao22,
        GateKind::Aoi21,
        GateKind::Oai21,
    ];

    let num_comb = config.num_gates - num_flops;
    let mut comb_outputs: Vec<NetId> = Vec::with_capacity(num_comb);
    for i in 0..num_comb {
        let kind = COMB_KINDS[rng.gen_range(0..COMB_KINDS.len())];
        let inputs: Vec<NetId> = (0..kind.num_inputs())
            .map(|_| available[rng.gen_range(0..available.len())])
            .collect();
        let out = b.gate_named(format!("C{i}"), kind, &inputs);
        available.push(out);
        comb_outputs.push(out);
    }

    // Mixed registers share two enable nets and two reset nets.
    let shared: Vec<NetId> = if config.mixed_registers {
        (0..4)
            .map(|_| available[rng.gen_range(0..available.len())])
            .collect()
    } else {
        Vec::new()
    };
    let (enables, resets) = shared.split_at(shared.len() / 2);

    // Connect flip-flops: D from any available net.
    for (i, &q) in flop_outputs.iter().enumerate() {
        let d = available[rng.gen_range(0..available.len())];
        let (kind, pins) = if config.mixed_registers {
            let enable = enables[rng.gen_range(0..enables.len())];
            let reset = resets[rng.gen_range(0..resets.len())];
            match rng.gen_range(0..4) {
                0 => (GateKind::Dff, vec![d]),
                1 => (GateKind::Dffr, vec![d, reset]),
                2 => (GateKind::Dffe, vec![d, enable]),
                _ => (GateKind::Dffre, vec![d, enable, reset]),
            }
        } else {
            (GateKind::Dff, vec![d])
        };
        b.gate_driving(format!("R{i}"), kind, &pins, q);
    }

    // Tap outputs from the most recently created nets so deep logic is
    // observable.
    let num_outputs = config.num_outputs.max(1).min(available.len());
    let tail: Vec<NetId> = available.iter().rev().take(num_outputs).copied().collect();
    for (i, net) in tail.into_iter().enumerate() {
        b.primary_output(format!("out{i}"), net);
    }

    b.finish().expect("random netlist is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_builds() {
        let n = random_netlist(&RandomNetlistConfig::default());
        assert_eq!(n.gate_count(), 200);
        assert!(!n.primary_outputs().is_empty());
    }

    #[test]
    fn same_seed_same_netlist() {
        let cfg = RandomNetlistConfig::default();
        let a = random_netlist(&cfg);
        let b = random_netlist(&cfg);
        assert_eq!(a.kind_histogram(), b.kind_histogram());
        assert_eq!(a.net_count(), b.net_count());
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_netlist(&RandomNetlistConfig {
            seed: 1,
            ..Default::default()
        });
        let b = random_netlist(&RandomNetlistConfig {
            seed: 2,
            ..Default::default()
        });
        // Structure almost surely differs.
        assert!(a.kind_histogram() != b.kind_histogram() || a.net_count() != b.net_count());
    }

    #[test]
    fn pure_combinational_generation() {
        let n = random_netlist(&RandomNetlistConfig {
            sequential_fraction: 0.0,
            num_gates: 50,
            ..Default::default()
        });
        assert!(n.sequential_gates().is_empty());
    }

    #[test]
    fn mixed_registers_draw_every_kind_on_shared_controls() {
        let config = RandomNetlistConfig {
            num_gates: 200,
            sequential_fraction: 0.3,
            ..Default::default()
        };
        let plain = random_netlist(&config);
        let mixed = random_netlist(&RandomNetlistConfig {
            mixed_registers: true,
            ..config
        });
        let histogram = mixed.kind_histogram();
        for kind in [
            GateKind::Dff,
            GateKind::Dffr,
            GateKind::Dffe,
            GateKind::Dffre,
        ] {
            assert!(
                histogram.get(kind.cell_name()).is_some_and(|&n| n > 0),
                "{kind:?}"
            );
        }
        let controls: std::collections::BTreeSet<NetId> = mixed
            .sequential_gates()
            .iter()
            .flat_map(|&g| mixed.gate(g).inputs[1..].to_vec())
            .collect();
        assert!(controls.len() <= 4, "{controls:?}");
        // The option draws after the combinational gates: those match.
        let comb = |n: &Netlist| -> Vec<_> {
            n.combinational_gates()
                .iter()
                .map(|&g| n.gate(g).clone())
                .collect()
        };
        assert_eq!(comb(&plain), comb(&mixed));
    }

    #[test]
    fn heavy_sequential_generation() {
        let n = random_netlist(&RandomNetlistConfig {
            sequential_fraction: 0.5,
            num_gates: 100,
            ..Default::default()
        });
        assert!(n.sequential_gates().len() >= 40);
    }
}
