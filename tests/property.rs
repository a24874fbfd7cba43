//! Property-based tests over the core data structures and invariants.

use fusa::faultsim::{CampaignConfig, FaultCampaign, FaultList};
use fusa::logicsim::{BitSim, Logic, Simulator, WorkloadConfig, WorkloadSuite};
use fusa::netlist::designs::{random_netlist, RandomNetlistConfig};
use fusa::netlist::{parser::parse_verilog, writer::write_verilog, Levelizer};
use fusa::neuro::metrics::{auc, pearson, spearman, RocCurve};
use fusa::neuro::{CsrMatrix, Matrix};
use proptest::prelude::*;

fn netlist_config() -> impl Strategy<Value = RandomNetlistConfig> {
    (
        2usize..10,
        10usize..120,
        0.0f64..0.4,
        1usize..8,
        any::<u64>(),
    )
        .prop_map(
            |(num_inputs, num_gates, sequential_fraction, num_outputs, seed)| RandomNetlistConfig {
                num_inputs,
                num_gates,
                sequential_fraction,
                num_outputs,
                seed,
                ..Default::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random netlist survives a Verilog write→parse round trip with
    /// identical structure.
    #[test]
    fn verilog_round_trip_preserves_structure(config in netlist_config()) {
        let netlist = random_netlist(&config);
        let text = write_verilog(&netlist);
        let reparsed = parse_verilog(&text).expect("round trip parses");
        prop_assert_eq!(netlist.gate_count(), reparsed.gate_count());
        prop_assert_eq!(netlist.kind_histogram(), reparsed.kind_histogram());
        prop_assert_eq!(
            netlist.primary_inputs().len(),
            reparsed.primary_inputs().len()
        );
    }

    /// The scalar and the bit-parallel simulators compute identical
    /// output traces on random designs and random stimulus.
    #[test]
    fn simulators_agree(config in netlist_config(), seed in any::<u64>()) {
        let netlist = random_netlist(&config);
        let mut scalar = Simulator::new(&netlist);
        let mut parallel = BitSim::new(&netlist);
        let pi = netlist.primary_inputs().len();
        let mut state = seed | 1;
        for _ in 0..12 {
            let vector: Vec<bool> = (0..pi)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    state >> 63 == 1
                })
                .collect();
            let logic: Vec<Logic> = vector.iter().map(|&b| Logic::from_bool(b)).collect();
            let scalar_out = scalar.step(&logic);
            let parallel_out = parallel.step_broadcast(&vector);
            for (s, p) in scalar_out.iter().zip(&parallel_out) {
                prop_assert_eq!(s.to_bool(), Some(p & 1 != 0));
            }
        }
    }

    /// Levelization is a valid topological order: every combinational
    /// gate appears after all its combinational fanin.
    #[test]
    fn levelization_is_topological(config in netlist_config()) {
        let netlist = random_netlist(&config);
        let levelized = Levelizer::levelize(&netlist);
        let mut position = vec![usize::MAX; netlist.gate_count()];
        for (i, gate) in levelized.order().iter().enumerate() {
            position[gate.index()] = i;
        }
        for &gate in levelized.order() {
            for pred in netlist.fanin_of_gate(gate) {
                if !netlist.gate(pred).kind.is_sequential() {
                    prop_assert!(position[pred.index()] < position[gate.index()]);
                }
            }
        }
    }

    /// Sparse×dense multiplication matches the dense reference for any
    /// sparsity pattern.
    #[test]
    fn spmm_matches_dense(
        entries in proptest::collection::vec((0usize..12, 0usize..12, -5.0f64..5.0), 0..40),
        cols in 1usize..6,
    ) {
        let sparse = CsrMatrix::from_triplets(12, 12, &entries);
        let dense_data: Vec<f64> = (0..12 * cols).map(|i| (i as f64 * 0.37).sin()).collect();
        let dense = Matrix::from_vec(12, cols, dense_data);
        let via_sparse = sparse.matmul(&dense);
        let via_dense = sparse.to_dense().matmul(&dense);
        for (a, b) in via_sparse.as_slice().iter().zip(via_dense.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// AUC is invariant under any strictly monotone transform of the
    /// scores.
    #[test]
    fn auc_is_rank_invariant(
        scores in proptest::collection::vec(-10.0f64..10.0, 4..40),
        flips in any::<u64>(),
    ) {
        let labels: Vec<bool> = (0..scores.len()).map(|i| (flips >> (i % 64)) & 1 == 1).collect();
        if labels.iter().all(|&l| l) || labels.iter().all(|&l| !l) {
            return Ok(()); // AUC undefined for single-class data
        }
        let original = auc(&scores, &labels);
        let transformed: Vec<f64> = scores.iter().map(|&s| (s / 3.0).exp()).collect();
        prop_assert!((original - auc(&transformed, &labels)).abs() < 1e-9);
    }

    /// ROC curves are monotone non-decreasing in both coordinates.
    #[test]
    fn roc_is_monotone(
        scores in proptest::collection::vec(0.0f64..1.0, 4..40),
        flips in any::<u64>(),
    ) {
        let labels: Vec<bool> = (0..scores.len()).map(|i| (flips >> (i % 64)) & 1 == 1).collect();
        let roc = RocCurve::compute(&scores, &labels);
        for pair in roc.points.windows(2) {
            prop_assert!(pair[1].false_positive_rate >= pair[0].false_positive_rate - 1e-12);
            prop_assert!(pair[1].true_positive_rate >= pair[0].true_positive_rate - 1e-12);
        }
    }

    /// Pearson and Spearman are symmetric and bounded in [-1, 1].
    #[test]
    fn correlations_are_bounded_and_symmetric(
        x in proptest::collection::vec(-100.0f64..100.0, 3..30),
        shift in -10.0f64..10.0,
    ) {
        let y: Vec<f64> = x.iter().map(|&v| (v * 0.5 + shift).cos()).collect();
        for r in [pearson(&x, &y), spearman(&x, &y)] {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
        prop_assert!((pearson(&x, &y) - pearson(&y, &x)).abs() < 1e-9);
        prop_assert!((spearman(&x, &y) - spearman(&y, &x)).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Raising the Algorithm-1 threshold can only shrink the critical
    /// set (label monotonicity).
    #[test]
    fn criticality_labels_monotone_in_threshold(seed in any::<u64>()) {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 60,
            num_inputs: 6,
            num_outputs: 4,
            sequential_fraction: 0.15,
            seed,
            ..Default::default()
        });
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = WorkloadSuite::generate(
            &netlist,
            &WorkloadConfig {
                num_workloads: 4,
                vectors_per_workload: 24,
                ..Default::default()
            },
        );
        let report = FaultCampaign::new(CampaignConfig {
            threads: 1,
            ..Default::default()
        })
        .run(&netlist, &faults, &workloads)
        .expect("campaign runs");
        let relaxed = report.clone().into_dataset(0.25);
        let strict = report.into_dataset(0.75);
        for (r, s) in relaxed.labels().iter().zip(strict.labels()) {
            prop_assert!(*r || !*s, "strict critical must imply relaxed critical");
        }
        prop_assert!(strict.critical_count() <= relaxed.critical_count());
    }

    /// Workload generation is a pure function of its configuration.
    #[test]
    fn workloads_deterministic(seed in any::<u64>(), n in 1usize..6) {
        let netlist = random_netlist(&RandomNetlistConfig::default());
        let config = WorkloadConfig {
            num_workloads: n,
            vectors_per_workload: 16,
            reset_cycles: 1,
            seed,
        };
        let a = WorkloadSuite::generate(&netlist, &config);
        let b = WorkloadSuite::generate(&netlist, &config);
        for (wa, wb) in a.workloads().iter().zip(b.workloads()) {
            prop_assert_eq!(wa, wb);
        }
    }
}

mod lint_properties {
    use super::*;
    use fusa::faultsim::FaultSite;
    use fusa::lint::{lint_netlist, untestable_stuck_at_sites, LintSeverity};
    use fusa::netlist::{GateKind, NetlistBuilder};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Builder validation already rejects loops and undriven nets,
        /// so lint must never escalate a validated random netlist to
        /// the Error level — errors are reserved for defects the
        /// builder would have refused.
        #[test]
        fn validated_random_netlists_are_error_free(config in netlist_config()) {
            let netlist = random_netlist(&config);
            let report = lint_netlist(&netlist);
            for finding in &report.findings {
                prop_assert!(
                    finding.severity < LintSeverity::Error,
                    "unexpected lint error on validated netlist: {}",
                    finding
                );
            }
            prop_assert!(report.findings_for_pass("comb-loop").is_empty());
        }

        /// A gate whose only transitive drivers are tie cells can never
        /// toggle under any workload; the dead-gate pass must flag every
        /// gate of such an island no matter its shape.
        #[test]
        fn injected_dead_gate_is_always_flagged(
            chain in 1usize..5,
            use_tie1 in any::<bool>(),
            use_buf in any::<bool>(),
        ) {
            let mut b = NetlistBuilder::new("dead_inject");
            let a = b.primary_input("a");
            let c = b.primary_input("b");
            let live = b.gate(GateKind::Xor2, &[a, c]);
            b.primary_output("y", live);
            // Dead island: tie cell feeding a chain of one-input gates.
            let tie = if use_tie1 { GateKind::Tie1 } else { GateKind::Tie0 };
            let kind = if use_buf { GateKind::Buf } else { GateKind::Inv };
            let mut net = b.gate(tie, &[]);
            let mut last = String::new();
            for i in 0..chain {
                last = format!("DEAD{i}");
                net = b.gate_named(&last, kind, &[net]);
            }
            let netlist = b.finish().expect("dead logic still validates");
            let report = lint_netlist(&netlist);
            let dead = report.findings_for_pass("dead-gate");
            prop_assert!(
                dead.iter().any(|f| f.gate.as_deref() == Some(last.as_str())),
                "dead gate {} not flagged:\n{}",
                last,
                report.render_text()
            );
        }

        /// Fault-list sanitization drops exactly the listed output
        /// sites: every excluded site disappears, every other output
        /// fault survives, and order is preserved.
        #[test]
        fn untestable_exclusion_is_exact(config in netlist_config()) {
            let netlist = random_netlist(&config);
            let sites = untestable_stuck_at_sites(&netlist);
            for &(gate, _) in &sites {
                prop_assert!(gate.index() < netlist.gate_count());
            }
            let full = FaultList::all_gate_outputs(&netlist);
            let kept = full.clone().exclude_untestable(&sites);
            let site_set: std::collections::HashSet<_> = sites.iter().copied().collect();
            let mut expected = full.clone();
            expected.retain(|f| {
                !(f.site == FaultSite::Output
                    && site_set.contains(&(f.gate, f.stuck_at.value())))
            });
            prop_assert_eq!(kept.faults(), expected.faults());
            prop_assert_eq!(kept.len(), full.len() - site_set.len());
        }
    }
}

mod fault_equivalence {
    use super::*;
    use fusa::faultsim::{Fault, FaultSite, StuckAt};
    use fusa::netlist::GateKind;

    /// Structural fault collapsing is only sound if the dropped pin
    /// faults really behave identically to the output faults they are
    /// equivalent to. Verify on random netlists by running both and
    /// comparing outcome vectors.
    #[test]
    fn collapsed_pin_faults_match_their_output_equivalents() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 60,
            num_inputs: 6,
            num_outputs: 5,
            sequential_fraction: 0.1,
            seed: 4242,
            ..Default::default()
        });
        let workloads = WorkloadSuite::generate(
            &netlist,
            &WorkloadConfig {
                num_workloads: 3,
                vectors_per_workload: 40,
                ..Default::default()
            },
        );
        // Build (pin fault, equivalent output fault) pairs per the
        // collapsing rules.
        let mut pairs: Vec<(Fault, Fault)> = Vec::new();
        for (i, gate) in netlist.gates().iter().enumerate() {
            let g = fusa::netlist::GateId(i as u32);
            for pin in 0..gate.inputs.len() as u8 {
                let equivalent = match gate.kind {
                    GateKind::And2 | GateKind::And3 | GateKind::And4 => {
                        Some((StuckAt::Zero, StuckAt::Zero))
                    }
                    GateKind::Nand2 | GateKind::Nand3 | GateKind::Nand4 => {
                        Some((StuckAt::Zero, StuckAt::One))
                    }
                    GateKind::Or2 | GateKind::Or3 | GateKind::Or4 => {
                        Some((StuckAt::One, StuckAt::One))
                    }
                    GateKind::Nor2 | GateKind::Nor3 | GateKind::Nor4 => {
                        Some((StuckAt::One, StuckAt::Zero))
                    }
                    GateKind::Buf => Some((StuckAt::Zero, StuckAt::Zero)),
                    GateKind::Inv => Some((StuckAt::Zero, StuckAt::One)),
                    _ => None,
                };
                if let Some((pin_polarity, output_polarity)) = equivalent {
                    pairs.push((
                        Fault::at_pin(&netlist, g, pin, pin_polarity),
                        Fault::at_output(&netlist, g, output_polarity),
                    ));
                }
            }
        }
        assert!(!pairs.is_empty(), "random netlist has collapsible gates");

        let faults: FaultList = pairs.iter().flat_map(|(a, b)| [*a, *b]).collect();
        let report = FaultCampaign::new(CampaignConfig {
            threads: 1,
            ..Default::default()
        })
        .run(&netlist, &faults, &workloads)
        .expect("campaign runs");
        for workload in report.workload_reports() {
            for (k, (pin_fault, _)) in pairs.iter().enumerate() {
                let pin_outcome = workload.outcomes[2 * k];
                let output_outcome = workload.outcomes[2 * k + 1];
                assert_eq!(
                    pin_outcome, output_outcome,
                    "{pin_fault} should be equivalent in {}",
                    workload.workload_name
                );
            }
        }
        // Keep the import used even if the pair list logic changes.
        let _ = FaultSite::Output;
    }
}

mod synth_semantics {
    use super::*;
    use fusa::netlist::{Synth, Word};

    /// Simulates a pure-combinational synthesized design for one input
    /// assignment and returns the output word value.
    fn eval_outputs(
        netlist: &fusa::netlist::Netlist,
        inputs: &[(usize, u64, usize)], // (pi offset, value, width)
        out_width: usize,
    ) -> u64 {
        let mut sim = BitSim::new(netlist);
        for &(offset, value, width) in inputs {
            for bit in 0..width {
                sim.set_input_broadcast(offset + bit, value & (1 << bit) != 0);
            }
        }
        sim.settle();
        let outputs = sim.output_lanes();
        let mut result = 0u64;
        for (bit, lanes) in outputs.iter().take(out_width).enumerate() {
            if lanes & 1 != 0 {
                result |= 1 << bit;
            }
        }
        result
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The synthesized ripple-carry adder computes real addition.
        #[test]
        fn synthesized_adder_adds(a in 0u64..256, b in 0u64..256) {
            let width = 8;
            let mut s = Synth::new("add_check");
            let wa = s.input_word("a", width);
            let wb = s.input_word("b", width);
            let zero = s.zero();
            let (sum, carry) = s.add(&wa, &wb, zero);
            s.output_word("s", &sum);
            s.output_bit("carry", carry);
            let netlist = s.finish().expect("valid");
            let got = eval_outputs(&netlist, &[(0, a, width), (width, b, width)], width + 1);
            prop_assert_eq!(got, a + b, "{} + {}", a, b);
        }

        /// The synthesized incrementer matches `+1` with wraparound
        /// overflow bit.
        #[test]
        fn synthesized_incrementer_increments(a in 0u64..64) {
            let width = 6;
            let mut s = Synth::new("inc_check");
            let wa = s.input_word("a", width);
            let (next, overflow) = s.inc(&wa);
            s.output_word("n", &next);
            s.output_bit("ov", overflow);
            let netlist = s.finish().expect("valid");
            let got = eval_outputs(&netlist, &[(0, a, width)], width + 1);
            prop_assert_eq!(got, a + 1, "{} + 1", a);
        }

        /// Word equality comparator agrees with `==`.
        #[test]
        fn synthesized_comparator_compares(a in 0u64..128, b in 0u64..128) {
            let width = 7;
            let mut s = Synth::new("eq_check");
            let wa = s.input_word("a", width);
            let wb = s.input_word("b", width);
            let eq = s.eq_word(&wa, &wb);
            s.output_bit("eq", eq);
            let netlist = s.finish().expect("valid");
            let got = eval_outputs(&netlist, &[(0, a, width), (width, b, width)], 1);
            prop_assert_eq!(got == 1, a == b);
        }

        /// Word mux selects the right side.
        #[test]
        fn synthesized_mux_selects(a in 0u64..32, b in 0u64..32, sel: bool) {
            let width = 5;
            let mut s = Synth::new("mux_check");
            let ws = s.input_bit("s");
            let wa = s.input_word("a", width);
            let wb = s.input_word("b", width);
            let out = s.mux_word(ws, &wa, &wb);
            s.output_word("o", &out);
            let netlist = s.finish().expect("valid");
            let got = eval_outputs(
                &netlist,
                &[(0, u64::from(sel), 1), (1, a, width), (1 + width, b, width)],
                width,
            );
            prop_assert_eq!(got, if sel { b } else { a });
        }

        /// One-hot decode produces exactly the selected line.
        #[test]
        fn synthesized_decoder_is_one_hot(a in 0u64..16) {
            let width = 4;
            let mut s = Synth::new("dec_check");
            let wa = s.input_word("a", width);
            let lines = s.decode(&wa);
            let word = Word(lines);
            s.output_word("y", &word);
            let netlist = s.finish().expect("valid");
            let got = eval_outputs(&netlist, &[(0, a, width)], 16);
            prop_assert_eq!(got, 1u64 << a);
        }

        /// XOR-reduce computes parity.
        #[test]
        fn synthesized_parity_is_parity(a in 0u64..512) {
            let width = 9;
            let mut s = Synth::new("par_check");
            let wa = s.input_word("a", width);
            let parity = s.reduce_xor(wa.bits());
            s.output_bit("p", parity);
            let netlist = s.finish().expect("valid");
            let got = eval_outputs(&netlist, &[(0, a, width)], 1);
            prop_assert_eq!(got == 1, a.count_ones() % 2 == 1);
        }
    }
}
