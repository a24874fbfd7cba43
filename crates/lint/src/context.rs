//! Shared structural analyses computed once and consumed by many passes.

use fusa_netlist::netlist::Driver;
use fusa_netlist::{GateId, Levelizer, NetId, Netlist, TestabilityProfile};

/// A validated netlist plus the dataflow facts the passes share.
///
/// All analyses are computed eagerly in [`LintContext::new`], each under
/// its own span:
///
/// * `lint.constants` — ternary constant propagation, one levelized
///   sweep;
/// * `lint.observability` / `lint.reachability` — backward and forward
///   graph searches, linear in gates plus pins;
/// * `lint.testability` — the [`TestabilityProfile`]: SCOAP fixpoints
///   (linear on acyclic logic, iterated inside flop-coupled loops;
///   child span `structural.scoap`), then articulation points (linear)
///   and post-dominance (iterative dominators, near-linear on netlists
///   in practice), which share the child span `structural.graph` with
///   the SCC condensation.
///
/// The graph centralities are not computed here: no pass reads them, and
/// exact betweenness alone is O(V·E).
pub struct LintContext<'a> {
    /// The design under analysis.
    pub netlist: &'a Netlist,
    /// Ternary constant value of every net: `Some(v)` if the net is
    /// statically `v` under every input assignment, `None` if unknown.
    const_value: Vec<Option<bool>>,
    /// Whether each gate can reach a primary output through any path
    /// (combinational or through flip-flops). Faults on unobservable
    /// gates can never corrupt an output.
    observable: Vec<bool>,
    /// Whether each gate is reachable forward from a primary input or a
    /// flip-flop output. Constant cells are sources of their own and are
    /// deliberately *not* counted here.
    reachable: Vec<bool>,
    /// SCOAP testability, articulation and post-dominance, shared by the
    /// structural criticality passes.
    structural: TestabilityProfile,
}

impl<'a> LintContext<'a> {
    /// Computes all shared analyses for `netlist`.
    pub fn new(netlist: &'a Netlist) -> LintContext<'a> {
        let obs = fusa_obs::global();
        LintContext {
            netlist,
            const_value: obs.time("lint.constants", || propagate_constants(netlist)),
            observable: obs.time("lint.observability", || observable_gates(netlist)),
            reachable: obs.time("lint.reachability", || reachable_gates(netlist)),
            structural: obs.time("lint.testability", || TestabilityProfile::analyze(netlist)),
        }
    }

    /// Static value of `net`, if the net is provably constant.
    pub fn const_value(&self, net: NetId) -> Option<bool> {
        self.const_value[net.index()]
    }

    /// Static value of the output net of `gate`, if provably constant.
    pub fn gate_const_value(&self, gate: GateId) -> Option<bool> {
        self.const_value(self.netlist.gate(gate).output)
    }

    /// `true` if a fault at `gate` could in principle reach a primary
    /// output (possibly after any number of clock cycles).
    pub fn is_observable(&self, gate: GateId) -> bool {
        self.observable[gate.index()]
    }

    /// `true` if `gate` is driven (transitively) by at least one primary
    /// input or flip-flop output.
    pub fn is_reachable(&self, gate: GateId) -> bool {
        self.reachable[gate.index()]
    }

    /// SCOAP testability, articulation and post-dominance of the design.
    pub fn structural(&self) -> &TestabilityProfile {
        &self.structural
    }
}

/// Ternary forward dataflow over the combinational subgraph.
///
/// Primary inputs and flip-flop outputs are unknown (`None`); `TIE0` /
/// `TIE1` cells seed constants. Each combinational gate is evaluated
/// over every assignment of its unknown inputs (≤ 2⁴ evaluations, the
/// largest cell arity being 4); if every assignment agrees, the output
/// is constant. This is exact per-gate propagation, not just
/// kind-specific shortcuts, so e.g. `XOR(a, a)`-style reconvergence is
/// *not* folded (correct: per-gate enumeration treats the two pins
/// independently) while `AND(x, 0)` and `OAI21(1, x, y)` are.
pub(crate) fn propagate_constants(netlist: &Netlist) -> Vec<Option<bool>> {
    let mut value: Vec<Option<bool>> = vec![None; netlist.net_count()];
    let order = Levelizer::levelize(netlist);
    for &gate_id in order.order() {
        let gate = netlist.gate(gate_id);
        let inputs: Vec<Option<bool>> = gate.inputs.iter().map(|&n| value[n.index()]).collect();
        let unknown: Vec<usize> = (0..inputs.len()).filter(|&i| inputs[i].is_none()).collect();
        let mut assignment: Vec<bool> = inputs.iter().map(|v| v.unwrap_or(false)).collect();
        let mut result: Option<Option<bool>> = None; // None = no case yet
        for case in 0..(1u32 << unknown.len()) {
            for (bit, &pos) in unknown.iter().enumerate() {
                assignment[pos] = case & (1 << bit) != 0;
            }
            let out = gate.kind.eval_bool(&assignment, false);
            result = match result {
                None => Some(Some(out)),
                Some(Some(prev)) if prev == out => Some(Some(out)),
                _ => Some(None),
            };
            if result == Some(None) {
                break;
            }
        }
        value[gate.output.index()] = result.flatten();
    }
    value
}

/// Reverse reachability from primary outputs over gate fanin edges,
/// traversing through flip-flops: a gate is observable if some primary
/// output transitively depends on it, in this or any later cycle.
pub(crate) fn observable_gates(netlist: &Netlist) -> Vec<bool> {
    let mut observable = vec![false; netlist.gate_count()];
    let mut stack: Vec<GateId> = Vec::new();
    for (_, net) in netlist.primary_outputs() {
        if let Some(Driver::Gate(g)) = netlist.net(*net).driver {
            if !observable[g.index()] {
                observable[g.index()] = true;
                stack.push(g);
            }
        }
    }
    while let Some(g) = stack.pop() {
        for pred in netlist.fanin_of_gate(g) {
            if !observable[pred.index()] {
                observable[pred.index()] = true;
                stack.push(pred);
            }
        }
    }
    observable
}

/// Forward reachability from primary inputs and flip-flop outputs.
///
/// A gate is reachable if any of its input nets is a primary input, the
/// output of a flip-flop, or the output of a reachable gate. Gates
/// outside this set compute values fixed at design time (their inputs
/// are all constant cones); flip-flops themselves are reachable only
/// through their own inputs like any other gate, but their *outputs*
/// always act as sources for downstream logic.
fn reachable_gates(netlist: &Netlist) -> Vec<bool> {
    let mut reachable = vec![false; netlist.gate_count()];
    let mut stack: Vec<GateId> = Vec::new();

    let mark_readers_of = |net: NetId, reachable: &mut Vec<bool>, stack: &mut Vec<GateId>| {
        for &reader in netlist.fanout_of_net(net) {
            if !reachable[reader.index()] {
                reachable[reader.index()] = true;
                stack.push(reader);
            }
        }
    };

    for &pi in netlist.primary_inputs() {
        mark_readers_of(pi, &mut reachable, &mut stack);
    }
    for ff in netlist.sequential_gates() {
        mark_readers_of(netlist.gate(ff).output, &mut reachable, &mut stack);
    }
    while let Some(g) = stack.pop() {
        mark_readers_of(netlist.gate(g).output, &mut reachable, &mut stack);
    }
    reachable
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusa_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn constants_propagate_through_logic() {
        let mut b = NetlistBuilder::new("c");
        let a = b.primary_input("a");
        let zero = b.gate_named("Z", GateKind::Tie0, &[]);
        let and = b.gate_named("AND", GateKind::And2, &[a, zero]); // const 0
        let or = b.gate_named("OR", GateKind::Or2, &[a, zero]); // = a
        let inv = b.gate_named("INV", GateKind::Inv, &[and]); // const 1
        b.primary_output("x", or);
        b.primary_output("y", inv);
        let n = b.finish().unwrap();
        let ctx = LintContext::new(&n);
        assert_eq!(ctx.gate_const_value(n.find_gate("Z").unwrap()), Some(false));
        assert_eq!(
            ctx.gate_const_value(n.find_gate("AND").unwrap()),
            Some(false)
        );
        assert_eq!(
            ctx.gate_const_value(n.find_gate("INV").unwrap()),
            Some(true)
        );
        assert_eq!(ctx.gate_const_value(n.find_gate("OR").unwrap()), None);
    }

    #[test]
    fn flip_flop_outputs_are_unknown() {
        let mut b = NetlistBuilder::new("ff");
        let zero = b.gate(GateKind::Tie0, &[]);
        let q = b.gate_named("REG", GateKind::Dff, &[zero]);
        let z = b.gate_named("BUF", GateKind::Buf, &[q]);
        b.primary_output("z", z);
        let n = b.finish().unwrap();
        let ctx = LintContext::new(&n);
        // Conservative: the register's initial state is not modelled.
        assert_eq!(ctx.gate_const_value(n.find_gate("REG").unwrap()), None);
        assert_eq!(ctx.gate_const_value(n.find_gate("BUF").unwrap()), None);
    }

    #[test]
    fn observability_stops_at_unread_logic() {
        let mut b = NetlistBuilder::new("o");
        let a = b.primary_input("a");
        let used = b.gate_named("USED", GateKind::Inv, &[a]);
        let _orphan = b.gate_named("ORPHAN", GateKind::Buf, &[a]);
        b.primary_output("z", used);
        let n = b.finish().unwrap();
        let ctx = LintContext::new(&n);
        assert!(ctx.is_observable(n.find_gate("USED").unwrap()));
        assert!(!ctx.is_observable(n.find_gate("ORPHAN").unwrap()));
    }

    #[test]
    fn observability_traverses_flip_flops() {
        let mut b = NetlistBuilder::new("seq");
        let a = b.primary_input("a");
        let deep = b.gate_named("DEEP", GateKind::Inv, &[a]);
        let q = b.gate_named("REG", GateKind::Dff, &[deep]);
        let z = b.gate_named("OUT", GateKind::Buf, &[q]);
        b.primary_output("z", z);
        let n = b.finish().unwrap();
        let ctx = LintContext::new(&n);
        assert!(ctx.is_observable(n.find_gate("DEEP").unwrap()));
    }

    #[test]
    fn constant_cones_are_unreachable() {
        let mut b = NetlistBuilder::new("r");
        let a = b.primary_input("a");
        let zero = b.gate_named("Z", GateKind::Tie0, &[]);
        let deadish = b.gate_named("CONSTINV", GateKind::Inv, &[zero]);
        let live = b.gate_named("LIVE", GateKind::And2, &[a, deadish]);
        b.primary_output("z", live);
        let n = b.finish().unwrap();
        let ctx = LintContext::new(&n);
        assert!(!ctx.is_reachable(n.find_gate("Z").unwrap()));
        assert!(!ctx.is_reachable(n.find_gate("CONSTINV").unwrap()));
        assert!(ctx.is_reachable(n.find_gate("LIVE").unwrap()));
    }
}
