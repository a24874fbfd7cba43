//! Cross-crate consistency checks: netlist ↔ simulator ↔ fault injector
//! ↔ graph features agree with one another on the benchmark designs.

use fusa::faultsim::{CampaignConfig, FaultCampaign, FaultList, FaultOutcome};
use fusa::graph::{normalized_adjacency, CircuitGraph, FeatureMatrix};
use fusa::logicsim::{
    BitSim, Logic, SignalStats, SignalStatsConfig, Simulator, WorkloadConfig, WorkloadSuite,
};
use fusa::netlist::designs::{or1200_icfsm, paper_designs, random_netlist, RandomNetlistConfig};
use fusa::netlist::{in_output_cone, parser::parse_verilog, writer::write_verilog, GateId};

#[test]
fn all_designs_round_trip_through_verilog() {
    for design in paper_designs() {
        let text = write_verilog(&design);
        let reparsed = parse_verilog(&text)
            .unwrap_or_else(|e| panic!("{} failed to reparse: {e}", design.name()));
        assert_eq!(
            design.gate_count(),
            reparsed.gate_count(),
            "{}",
            design.name()
        );
        assert_eq!(
            design.primary_inputs().len(),
            reparsed.primary_inputs().len()
        );
        assert_eq!(
            design.primary_outputs().len(),
            reparsed.primary_outputs().len()
        );
        assert_eq!(design.kind_histogram(), reparsed.kind_histogram());
    }
}

#[test]
fn reparsed_design_simulates_identically() {
    let original = or1200_icfsm();
    let reparsed = parse_verilog(&write_verilog(&original)).expect("reparses");
    let mut sim_a = BitSim::new(&original);
    let mut sim_b = BitSim::new(&reparsed);
    let pi = original.primary_inputs().len();
    for cycle in 0..50u64 {
        let vector: Vec<bool> = (0..pi).map(|i| (cycle >> (i % 8)) & 1 == 1).collect();
        let out_a = sim_a.step_broadcast(&vector);
        let out_b = sim_b.step_broadcast(&vector);
        assert_eq!(out_a, out_b, "cycle {cycle}");
    }
}

#[test]
fn scalar_and_bitparallel_agree_on_every_design() {
    for design in paper_designs() {
        let mut scalar = Simulator::new(&design);
        let mut parallel = BitSim::new(&design);
        let pi = design.primary_inputs().len();
        for cycle in 0..16u64 {
            let vector: Vec<bool> = (0..pi)
                .map(|i| (cycle * 2654435761 + i as u64).is_multiple_of(3))
                .collect();
            let logic: Vec<Logic> = vector.iter().map(|&b| Logic::from_bool(b)).collect();
            let scalar_out = scalar.step(&logic);
            let parallel_out = parallel.step_broadcast(&vector);
            for (s, p) in scalar_out.iter().zip(&parallel_out) {
                assert_eq!(
                    s.to_bool(),
                    Some(p & 1 != 0),
                    "{} cycle {cycle}",
                    design.name()
                );
            }
        }
    }
}

#[test]
fn faults_outside_output_cone_are_never_dangerous() {
    let design = random_netlist(&RandomNetlistConfig {
        num_gates: 120,
        num_inputs: 8,
        num_outputs: 4,
        sequential_fraction: 0.1,
        seed: 99,
        ..Default::default()
    });
    let faults = FaultList::all_gate_outputs(&design);
    let workloads = WorkloadSuite::generate(
        &design,
        &WorkloadConfig {
            num_workloads: 4,
            vectors_per_workload: 48,
            ..Default::default()
        },
    );
    let report = FaultCampaign::new(CampaignConfig {
        threads: 1,
        ..Default::default()
    })
    .run(&design, &faults, &workloads)
    .expect("campaign runs");
    for workload in report.workload_reports() {
        for (fault, outcome) in report.faults().iter().zip(&workload.outcomes) {
            if *outcome == FaultOutcome::Dangerous {
                assert!(
                    in_output_cone(&design, fault.gate),
                    "dangerous fault at {} is outside every output cone",
                    design.gate(fault.gate).name
                );
            }
        }
    }
}

#[test]
fn feature_matrix_is_finite_and_aligned() {
    for design in paper_designs() {
        let stats = SignalStats::estimate(
            &design,
            &SignalStatsConfig {
                cycles: 96,
                warmup: 8,
                ..Default::default()
            },
        );
        let features = FeatureMatrix::extract(&design, &stats);
        assert_eq!(features.matrix().rows(), design.gate_count());
        assert!(!features.matrix().has_non_finite(), "{}", design.name());
        // Connection counts in the feature matrix match the netlist.
        for i in 0..design.gate_count() {
            let id = GateId(i as u32);
            assert_eq!(
                features.row(id)[0],
                design.connection_count(id) as f64,
                "{} gate {i}",
                design.name()
            );
        }
    }
}

#[test]
fn graph_degrees_bound_connection_counts() {
    // Graph degree counts distinct neighbouring gates; connection count
    // counts pins — degree can never exceed it.
    for design in paper_designs() {
        let graph = CircuitGraph::from_netlist(&design);
        for i in 0..design.gate_count() {
            assert!(
                graph.degree(i) <= design.connection_count(GateId(i as u32)),
                "{} node {i}",
                design.name()
            );
        }
    }
}

#[test]
fn adjacency_matches_graph_structure() {
    let design = or1200_icfsm();
    let graph = CircuitGraph::from_netlist(&design);
    let adj = normalized_adjacency(&graph);
    assert_eq!(adj.rows(), graph.node_count());
    assert_eq!(adj.nnz(), graph.node_count() + 2 * graph.edge_count());
    for &(a, b) in graph.edges() {
        assert!(adj.get(a, b) > 0.0);
        assert!((adj.get(a, b) - adj.get(b, a)).abs() < 1e-15);
    }
}

#[test]
fn criticality_scores_are_workload_fractions() {
    let design = or1200_icfsm();
    let faults = FaultList::all_gate_outputs(&design);
    let workloads = WorkloadSuite::generate(
        &design,
        &WorkloadConfig {
            num_workloads: 5,
            vectors_per_workload: 32,
            ..Default::default()
        },
    );
    let report = FaultCampaign::new(CampaignConfig {
        threads: 1,
        ..Default::default()
    })
    .run(&design, &faults, &workloads)
    .expect("campaign runs");
    let dataset = report.into_dataset(0.5);
    for &score in dataset.scores() {
        // With 5 workloads, scores are multiples of 1/5.
        let scaled = score * 5.0;
        assert!((scaled - scaled.round()).abs() < 1e-9, "score {score}");
    }
}

mod hardening {
    use fusa::faultsim::{CampaignConfig, FaultCampaign, FaultList};
    use fusa::logicsim::{BitSim, WorkloadConfig, WorkloadSuite};
    use fusa::netlist::designs::or1200_icfsm;
    use fusa::netlist::harden::{is_tmr_infrastructure, tmr_protect};
    use fusa::netlist::GateId;

    #[test]
    fn hardened_design_is_functionally_identical() {
        let original = or1200_icfsm();
        let protect: Vec<GateId> = (0..20).map(|i| GateId(i as u32)).collect();
        let hardened = tmr_protect(&original, &protect).expect("hardening succeeds");

        let mut sim_a = BitSim::new(&original);
        let mut sim_b = BitSim::new(&hardened);
        let pi = original.primary_inputs().len();
        assert_eq!(pi, hardened.primary_inputs().len());
        for cycle in 0..80u64 {
            let vector: Vec<bool> = (0..pi)
                .map(|i| (cycle.wrapping_mul(0x9E3779B97F4A7C15) >> (i % 60)) & 1 == 1)
                .collect();
            assert_eq!(
                sim_a.step_broadcast(&vector),
                sim_b.step_broadcast(&vector),
                "cycle {cycle}"
            );
        }
    }

    #[test]
    fn single_faults_inside_tmr_triplets_are_masked() {
        let original = or1200_icfsm();
        // Protect the state register bits.
        let protect: Vec<GateId> = original
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, g)| g.name.starts_with("state_reg"))
            .map(|(i, _)| GateId(i as u32))
            .collect();
        assert!(!protect.is_empty());
        let hardened = tmr_protect(&original, &protect).unwrap();

        // Faults on the TMR *copies* (not the voters) must be benign or
        // latent — the majority masks them.
        let copy_gates: Vec<GateId> = hardened
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, g)| g.name.contains("_tmr_") && g.name.starts_with("state_reg"))
            .map(|(i, _)| GateId(i as u32))
            .collect();
        assert_eq!(copy_gates.len(), protect.len() * 3);
        let faults = FaultList::for_gates(&hardened, &copy_gates);
        let workloads = WorkloadSuite::generate(
            &hardened,
            &WorkloadConfig {
                num_workloads: 3,
                vectors_per_workload: 48,
                ..Default::default()
            },
        );
        let report = FaultCampaign::new(CampaignConfig {
            threads: 1,
            ..Default::default()
        })
        .run(&hardened, &faults, &workloads)
        .expect("campaign runs");
        for workload in report.workload_reports() {
            assert_eq!(
                workload.dangerous_count(),
                0,
                "TMR copy faults must be masked in {}",
                workload.workload_name
            );
        }
        // Sanity: infrastructure classifier sees the copies.
        for &g in &copy_gates {
            assert!(is_tmr_infrastructure(&hardened, g));
        }
    }
}

mod uart_behaviour {
    use fusa::logicsim::BitSim;
    use fusa::netlist::designs::uart_ctrl;

    /// Returns the current value of the 4-bit baud counter.
    fn baud_value(sim: &BitSim<'_>, netlist: &fusa::netlist::Netlist) -> u64 {
        let mut value = 0;
        for bit in 0..4 {
            let reg = netlist
                .find_gate(&format!("baud_reg_{bit}"))
                .expect("baud register exists");
            if sim.flop_lanes(reg) & 1 != 0 {
                value |= 1 << bit;
            }
        }
        value
    }

    fn output_bit(netlist: &fusa::netlist::Netlist, outputs: &[u64], port: &str) -> bool {
        let index = netlist
            .primary_outputs()
            .iter()
            .position(|(p, _)| p == port)
            .expect("port exists");
        outputs[index] & 1 != 0
    }

    #[test]
    fn transmit_frames_a_byte_on_the_line() {
        let netlist = uart_ctrl();
        let mut sim = BitSim::new(&netlist);
        let pi: Vec<String> = netlist
            .primary_inputs()
            .iter()
            .map(|&n| netlist.net(n).name.clone())
            .collect();
        let set = |vector: &mut Vec<bool>, name: &str, value: bool| {
            let i = pi.iter().position(|p| p == name).expect("input exists");
            vector[i] = value;
        };
        let set_byte = |vector: &mut Vec<bool>, byte: u8| {
            for bit in 0..8 {
                let i = pi
                    .iter()
                    .position(|p| p == &format!("tx_data[{bit}]"))
                    .unwrap();
                vector[i] = byte & (1 << bit) != 0;
            }
        };

        let mut base = vec![false; pi.len()];
        set(&mut base, "rx", true); // keep receive line idle

        // Reset.
        let mut v = base.clone();
        set(&mut v, "rst", true);
        for _ in 0..2 {
            sim.step_broadcast(&v);
        }

        // Request a transmission of 0xA5.
        let mut v = base.clone();
        set(&mut v, "tx_start", true);
        set_byte(&mut v, 0xA5);
        let outputs = sim.step_broadcast(&v);
        assert!(
            !output_bit(&netlist, &outputs, "tx_busy"),
            "idle before load"
        );

        // Busy must assert and stay through the frame; sample the line
        // once per baud tick (value 15 -> sample next cycle).
        let v = base.clone();
        let mut sampled = Vec::new();
        let mut busy_seen = false;
        for _cycle in 0..400 {
            let at_tick = baud_value(&sim, &netlist) == 15;
            let outputs = sim.step_broadcast(&v);
            let busy = output_bit(&netlist, &outputs, "tx_busy");
            busy_seen |= busy;
            if at_tick && busy {
                sampled.push(output_bit(&netlist, &outputs, "tx"));
            }
            if busy_seen && !busy {
                break;
            }
        }
        assert!(busy_seen, "transmission started");
        // Frame: start(0), data LSB-first (0xA5 = 1010_0101), stop(1).
        assert!(sampled.len() >= 10, "sampled {} line bits", sampled.len());
        assert!(!sampled[0], "start bit low");
        let byte: u8 = (0..8).fold(0, |acc, i| acc | (u8::from(sampled[1 + i]) << i));
        assert_eq!(byte, 0xA5, "data bits {:?}", &sampled[1..9]);
    }

    #[test]
    fn receiver_recovers_a_framed_byte() {
        let netlist = uart_ctrl();
        let mut sim = BitSim::new(&netlist);
        let pi: Vec<String> = netlist
            .primary_inputs()
            .iter()
            .map(|&n| netlist.net(n).name.clone())
            .collect();
        let rx_index = pi.iter().position(|p| p == "rx").unwrap();
        let rst_index = pi.iter().position(|p| p == "rst").unwrap();

        let mut idle = vec![false; pi.len()];
        idle[rx_index] = true;

        let mut v = idle.clone();
        v[rst_index] = true;
        for _ in 0..2 {
            sim.step_broadcast(&v);
        }
        // Settle the synchronizer on the idle line.
        for _ in 0..8 {
            sim.step_broadcast(&idle);
        }

        // Wait for a baud tick so the frame is phase-aligned, then drive
        // start + data (0x3C LSB-first) + stop, 16 cycles per bit.
        loop {
            let at_tick = baud_value(&sim, &netlist) == 15;
            sim.step_broadcast(&idle);
            if at_tick {
                break;
            }
        }
        let byte = 0x3Cu8;
        let mut frame: Vec<bool> = vec![false]; // start
        frame.extend((0..8).map(|i| byte & (1 << i) != 0));
        frame.push(true); // stop
        let mut saw_valid = false;
        let mut recovered = 0u8;
        for &bit in &frame {
            let mut v = idle.clone();
            v[rx_index] = bit;
            for _ in 0..16 {
                let outputs = sim.step_broadcast(&v);
                if output_bit(&netlist, &outputs, "rx_valid") {
                    saw_valid = true;
                    let data_base = netlist
                        .primary_outputs()
                        .iter()
                        .position(|(p, _)| p == "rx_data[0]")
                        .unwrap();
                    for d in 0..8 {
                        if outputs[data_base + d] & 1 != 0 {
                            recovered |= 1 << d;
                        }
                    }
                }
            }
        }
        // Trailing idle lets the last sample and valid flag land.
        for _ in 0..40 {
            let outputs = sim.step_broadcast(&idle);
            if output_bit(&netlist, &outputs, "rx_valid") {
                saw_valid = true;
                let data_base = netlist
                    .primary_outputs()
                    .iter()
                    .position(|(p, _)| p == "rx_data[0]")
                    .unwrap();
                recovered = 0;
                for d in 0..8 {
                    if outputs[data_base + d] & 1 != 0 {
                        recovered |= 1 << d;
                    }
                }
            }
        }
        assert!(saw_valid, "rx_valid pulsed");
        assert_eq!(recovered, byte, "recovered byte");
    }
}
