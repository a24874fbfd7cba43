//! The linter reads only the near-linear half of the structural
//! analysis; these tests check that it sees the same values as a caller
//! of the full analysis.
//!
//! * `LintContext::structural()` equals the matching fields of
//!   `StructuralProfile::analyze`.
//! * `untestable_stuck_at_sites`, which computes only constants and
//!   observability, equals its definition over a full `LintContext`:
//!   an unobservable gate contributes both polarities, a constant-`v`
//!   gate contributes `(gate, v)`.

use fusa_lint::{untestable_stuck_at_sites, LintContext};
use fusa_netlist::designs::{all_designs, random_netlist, RandomNetlistConfig};
use fusa_netlist::{GateId, Netlist, StructuralProfile, TestabilityProfile};
use proptest::prelude::*;

fn check_split(netlist: &Netlist) -> Result<(), TestCaseError> {
    let ctx = LintContext::new(netlist);
    let full = StructuralProfile::analyze(netlist);
    let expected = TestabilityProfile {
        cc0: full.cc0,
        cc1: full.cc1,
        co: full.co,
        articulation: full.articulation,
        dominated: full.dominated,
    };
    prop_assert_eq!(ctx.structural(), &expected, "{}", netlist.name());

    let mut sites = Vec::new();
    for i in 0..netlist.gate_count() {
        let gate = GateId(i as u32);
        if !ctx.is_observable(gate) {
            sites.push((gate, false));
            sites.push((gate, true));
        } else if let Some(v) = ctx.gate_const_value(gate) {
            sites.push((gate, v));
        }
    }
    prop_assert_eq!(
        untestable_stuck_at_sites(netlist),
        sites,
        "{}",
        netlist.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn split_matches_the_full_profile_on_random_netlists(
        seed in 0u64..1u64 << 48,
        num_gates in 10usize..120,
        sequential_fraction in 0.0f64..0.4,
        num_outputs in 1usize..6,
    ) {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_inputs: 5,
            num_gates,
            sequential_fraction,
            num_outputs,
            seed,
        });
        check_split(&netlist)?;
    }
}

#[test]
fn split_matches_the_full_profile_on_builtins() {
    for netlist in all_designs() {
        check_split(&netlist).unwrap();
    }
}
