//! 64-lane bit-parallel Boolean simulator.

use crate::eval::eval_u64;
use fusa_netlist::{GateId, LevelizedOrder, Levelizer, NetId, Netlist};

/// Maximum input-pin count of any cell in the gate library.
const MAX_PINS: usize = 4;

/// Sentinel in the per-gate pin-force index: no pin of this gate is
/// forced.
const NO_PIN_FORCE: u32 = u32::MAX;

/// A bit-parallel simulator: every net carries a `u64` whose 64 bit
/// positions are independent simulation lanes.
///
/// Two usage patterns:
///
/// * **pattern-parallel** — each lane carries a different input vector
///   (64 patterns per pass); used by signal-probability estimation;
/// * **fault-parallel** — all lanes carry the *same* input vector but each
///   lane has a different stuck-at force installed via
///   [`BitSim::force_lanes`]; used by the fault-injection campaign, with
///   one fault machine per lane compared against a golden lane.
///
/// Unlike [`crate::Simulator`], values are strictly Boolean (registers
/// power up at `0`).
///
/// # Example
///
/// ```
/// use fusa_logicsim::BitSim;
/// use fusa_netlist::{GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), fusa_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("and");
/// let a = b.primary_input("a");
/// let c = b.primary_input("b");
/// let z = b.gate(GateKind::And2, &[a, c]);
/// b.primary_output("z", z);
/// let netlist = b.finish()?;
///
/// let mut sim = BitSim::new(&netlist);
/// // Lane 0: a=1,b=1. Lane 1: a=1,b=0.
/// sim.set_input_lanes(0, 0b11);
/// sim.set_input_lanes(1, 0b01);
/// sim.settle();
/// assert_eq!(sim.output_lanes()[0] & 0b11, 0b01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitSim<'a> {
    netlist: &'a Netlist,
    order: LevelizedOrder,
    /// Sequential gate ids, cached so settle/clock never allocate.
    seq_gates: Vec<GateId>,
    values: Vec<u64>,
    state: Vec<u64>,
    input_drive: Vec<u64>,
    /// Per-net force masks: `value = (raw & and_mask) | or_mask`.
    and_mask: Vec<u64>,
    or_mask: Vec<u64>,
    /// Nets with non-trivial masks, for cheap clearing.
    forced_nets: Vec<NetId>,
    /// Per-gate index into `pin_force_masks` (`NO_PIN_FORCE` when no pin
    /// of the gate is forced). Fault-free and output-fault runs never
    /// touch this; pin-fault runs pay one array index per gate instead
    /// of a hash probe.
    pin_force_slot: Vec<u32>,
    /// `(and, or)` masks per input pin of every pin-forced gate: models
    /// faults on a single gate input without disturbing the driving
    /// net's other readers.
    pin_force_masks: Vec<[(u64, u64); MAX_PINS]>,
    /// Gates with a pin force installed, for cheap clearing.
    pin_forced_gates: Vec<GateId>,
    /// Per-gate state XOR masks applied at the next clock edge —
    /// single-event-upset (bit-flip) injection into flip-flops.
    state_flips: Vec<(GateId, u64)>,
    cycles: u64,
}

impl<'a> BitSim<'a> {
    /// Creates a bit-parallel simulator with registers at `0` and inputs
    /// driving `0` in all lanes.
    pub fn new(netlist: &'a Netlist) -> Self {
        BitSim {
            netlist,
            order: Levelizer::levelize(netlist),
            seq_gates: netlist.sequential_gates(),
            values: vec![0; netlist.net_count()],
            state: vec![0; netlist.gate_count()],
            input_drive: vec![0; netlist.primary_inputs().len()],
            and_mask: vec![u64::MAX; netlist.net_count()],
            or_mask: vec![0; netlist.net_count()],
            forced_nets: Vec::new(),
            pin_force_slot: vec![NO_PIN_FORCE; netlist.gate_count()],
            pin_force_masks: Vec::new(),
            pin_forced_gates: Vec::new(),
            state_flips: Vec::new(),
            cycles: 0,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Sequential gate ids, cached at construction (no allocation).
    pub fn sequential_gates(&self) -> &[GateId] {
        &self.seq_gates
    }

    /// Resets register state and the cycle counter (forces stay).
    pub fn reset(&mut self) {
        self.state.fill(0);
        self.cycles = 0;
    }

    /// Number of clock edges since construction or [`BitSim::reset`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Drives the `index`-th primary input with a per-lane pattern.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_input_lanes(&mut self, index: usize, lanes: u64) {
        self.input_drive[index] = lanes;
    }

    /// Drives the `index`-th primary input with the same value in all
    /// lanes.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_input_broadcast(&mut self, index: usize, value: bool) {
        self.input_drive[index] = if value { u64::MAX } else { 0 };
    }

    /// Broadcasts a full input vector (one `bool` per primary input) to
    /// all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the PI count.
    pub fn set_vector_broadcast(&mut self, vector: &[bool]) {
        assert_eq!(vector.len(), self.input_drive.len());
        for (i, &bit) in vector.iter().enumerate() {
            self.set_input_broadcast(i, bit);
        }
    }

    /// Installs a stuck-at force on `net` restricted to the lanes in
    /// `lane_mask`: those lanes read constant `1` when `stuck_high`,
    /// constant `0` otherwise. Other lanes are unaffected. Multiple calls
    /// accumulate.
    pub fn force_lanes(&mut self, net: NetId, stuck_high: bool, lane_mask: u64) {
        if self.and_mask[net.index()] == u64::MAX && self.or_mask[net.index()] == 0 {
            self.forced_nets.push(net);
        }
        if stuck_high {
            self.or_mask[net.index()] |= lane_mask;
        } else {
            self.and_mask[net.index()] &= !lane_mask;
        }
    }

    /// Installs a stuck-at force on a single input *pin* of a gate,
    /// restricted to `lane_mask` lanes. Unlike [`BitSim::force_lanes`],
    /// only this gate's view of the driving net is affected — the fault
    /// model for input-pin stuck-ats.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the gate's cell.
    pub fn force_pin_lanes(&mut self, gate: GateId, pin: u8, stuck_high: bool, lane_mask: u64) {
        let arity = self.netlist.gate(gate).kind.num_inputs();
        assert!(
            (pin as usize) < arity,
            "pin {pin} out of range for {}-input gate",
            arity
        );
        let mut slot = self.pin_force_slot[gate.index()];
        if slot == NO_PIN_FORCE {
            slot = self.pin_force_masks.len() as u32;
            self.pin_force_masks.push([(u64::MAX, 0); MAX_PINS]);
            self.pin_force_slot[gate.index()] = slot;
            self.pin_forced_gates.push(gate);
        }
        let entry = &mut self.pin_force_masks[slot as usize][pin as usize];
        if stuck_high {
            entry.1 |= lane_mask;
        } else {
            entry.0 &= !lane_mask;
        }
    }

    /// Schedules a single-event upset: the given lanes of a flip-flop's
    /// stored state are inverted at the *next* clock edge, once. Models
    /// a radiation-induced bit flip.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not a sequential cell.
    pub fn schedule_state_flip(&mut self, gate: GateId, lane_mask: u64) {
        assert!(
            self.netlist.gate(gate).kind.is_sequential(),
            "state flips target flip-flops"
        );
        self.state_flips.push((gate, lane_mask));
    }

    /// Removes every installed force (net-level and pin-level) and any
    /// pending state flips.
    pub fn clear_forces(&mut self) {
        for net in self.forced_nets.drain(..) {
            self.and_mask[net.index()] = u64::MAX;
            self.or_mask[net.index()] = 0;
        }
        for gate in self.pin_forced_gates.drain(..) {
            self.pin_force_slot[gate.index()] = NO_PIN_FORCE;
        }
        self.pin_force_masks.clear();
        self.state_flips.clear();
    }

    #[inline]
    fn masked(&self, net: NetId, raw: u64) -> u64 {
        (raw & self.and_mask[net.index()]) | self.or_mask[net.index()]
    }

    /// Propagates inputs and register state through the combinational
    /// logic (one levelized pass).
    pub fn settle(&mut self) {
        for (i, &net) in self.netlist.primary_inputs().iter().enumerate() {
            self.values[net.index()] = self.masked(net, self.input_drive[i]);
        }
        let has_pin_forces = !self.pin_forced_gates.is_empty();
        for i in 0..self.seq_gates.len() {
            self.publish_seq_output(self.seq_gates[i]);
        }
        for i in 0..self.order.order().len() {
            let gate_id = self.order.order()[i];
            self.eval_comb_one(gate_id, has_pin_forces);
        }
    }

    /// Publishes a flip-flop's stored state onto its output net.
    #[inline]
    fn publish_seq_output(&mut self, gate_id: GateId) {
        let out = self.netlist.gate(gate_id).output;
        self.values[out.index()] = self.masked(out, self.state[gate_id.index()]);
    }

    /// Evaluates one combinational gate from its current input-net lanes.
    #[inline]
    fn eval_comb_one(&mut self, gate_id: GateId, has_pin_forces: bool) {
        let mut input_buffer = [0u64; MAX_PINS];
        let gate = self.netlist.gate(gate_id);
        let n = gate.inputs.len();
        for (slot, &net) in input_buffer.iter_mut().zip(&gate.inputs) {
            *slot = self.values[net.index()];
        }
        if has_pin_forces {
            self.apply_pin_masks(gate_id, &mut input_buffer[..n]);
        }
        let raw = eval_u64(gate.kind, &input_buffer[..n], 0);
        self.values[gate.output.index()] = self.masked(gate.output, raw);
    }

    #[inline]
    fn apply_pin_masks(&self, gate_id: GateId, inputs: &mut [u64]) {
        let slot = self.pin_force_slot[gate_id.index()];
        if slot == NO_PIN_FORCE {
            return;
        }
        let masks = &self.pin_force_masks[slot as usize];
        for (pin, value) in inputs.iter_mut().enumerate() {
            let (and, or) = masks[pin];
            *value = (*value & and) | or;
        }
    }

    #[inline]
    fn clock_one(&mut self, gate_id: GateId, has_pin_forces: bool) {
        let mut input_buffer = [0u64; MAX_PINS];
        let gate = self.netlist.gate(gate_id);
        let n = gate.inputs.len();
        for (slot, &net) in input_buffer.iter_mut().zip(&gate.inputs) {
            *slot = self.values[net.index()];
        }
        if has_pin_forces {
            self.apply_pin_masks(gate_id, &mut input_buffer[..n]);
        }
        self.state[gate_id.index()] =
            eval_u64(gate.kind, &input_buffer[..n], self.state[gate_id.index()]);
    }

    /// Applies one rising clock edge to every flip-flop.
    pub fn clock(&mut self) {
        let has_pin_forces = !self.pin_forced_gates.is_empty();
        // Next states depend only on current settled values, so a single
        // pass (gather + commit per flop) is race-free because flop
        // *outputs* are not rewritten until the next settle().
        for i in 0..self.seq_gates.len() {
            self.clock_one(self.seq_gates[i], has_pin_forces);
        }
        for (gate, lanes) in self.state_flips.drain(..) {
            self.state[gate.index()] ^= lanes;
        }
        self.cycles += 1;
    }

    /// Convenience: broadcast `vector`, settle, return outputs, clock.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the PI count.
    pub fn step_broadcast(&mut self, vector: &[bool]) -> Vec<u64> {
        let mut outputs = vec![0u64; self.netlist.primary_outputs().len()];
        self.step_broadcast_into(vector, &mut outputs);
        outputs
    }

    /// Allocation-free variant of [`BitSim::step_broadcast`]: broadcast
    /// `vector`, settle, write output lanes into `out`, clock.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the PI count or `out.len()`
    /// from the primary-output count.
    pub fn step_broadcast_into(&mut self, vector: &[bool], out: &mut [u64]) {
        self.set_vector_broadcast(vector);
        self.settle();
        self.output_lanes_into(out);
        self.clock();
    }

    /// The current lanes of a net.
    pub fn net_lanes(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    /// Lanes of every primary output, in declaration order.
    pub fn output_lanes(&self) -> Vec<u64> {
        self.netlist
            .primary_outputs()
            .iter()
            .map(|(_, net)| self.values[net.index()])
            .collect()
    }

    /// Writes the lanes of every primary output into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the primary-output count.
    pub fn output_lanes_into(&self, out: &mut [u64]) {
        let outputs = self.netlist.primary_outputs();
        assert_eq!(out.len(), outputs.len());
        for (slot, (_, net)) in out.iter_mut().zip(outputs) {
            *slot = self.values[net.index()];
        }
    }

    /// Current register state of a sequential gate.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn flop_lanes(&self, gate: GateId) -> u64 {
        self.state[gate.index()]
    }

    /// Snapshot of all net lanes, indexed by [`NetId`].
    pub fn net_values(&self) -> &[u64] {
        &self.values
    }

    /// Number of `u64` words needed by [`BitSim::snapshot_nets_packed`].
    pub fn packed_net_words(&self) -> usize {
        self.netlist.net_count().div_ceil(64)
    }

    /// Packs lane 0 of every net into a bit-per-net snapshot.
    ///
    /// In a *broadcast* (golden) run every net's lanes are all-zeros or
    /// all-ones, so lane 0 captures the machine exactly in 1/64th of the
    /// memory. This is the golden-snapshot format of
    /// [`crate::WideSim::settle_diff`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`BitSim::packed_net_words`].
    pub fn snapshot_nets_packed(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.packed_net_words());
        out.fill(0);
        for (i, &lanes) in self.values.iter().enumerate() {
            out[i >> 6] |= (lanes & 1) << (i & 63);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::value::Logic;
    use fusa_netlist::designs::{random_netlist, RandomNetlistConfig};
    use fusa_netlist::{GateKind, NetlistBuilder};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn lanes_carry_independent_patterns() {
        let mut b = NetlistBuilder::new("xor");
        let a = b.primary_input("a");
        let c = b.primary_input("b");
        let z = b.gate(GateKind::Xor2, &[a, c]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();

        let mut sim = BitSim::new(&netlist);
        sim.set_input_lanes(0, 0b0101);
        sim.set_input_lanes(1, 0b0011);
        sim.settle();
        assert_eq!(sim.output_lanes()[0] & 0b1111, 0b0110);
    }

    #[test]
    fn force_lanes_only_touch_selected_lanes() {
        let mut b = NetlistBuilder::new("buf");
        let a = b.primary_input("a");
        let z = b.gate(GateKind::Buf, &[a]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();
        let z_net = netlist.primary_outputs()[0].1;

        let mut sim = BitSim::new(&netlist);
        sim.force_lanes(z_net, true, 0b10); // lane 1 stuck-at-1
        sim.set_input_broadcast(0, false);
        sim.settle();
        assert_eq!(sim.output_lanes()[0] & 0b11, 0b10);
        sim.clear_forces();
        sim.settle();
        assert_eq!(sim.output_lanes()[0] & 0b11, 0b00);
    }

    #[test]
    fn agrees_with_scalar_simulator_on_random_designs() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 150,
            seed: 77,
            ..Default::default()
        });
        let mut scalar = Simulator::new(&netlist);
        let mut parallel = BitSim::new(&netlist);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let pi_count = netlist.primary_inputs().len();

        for _cycle in 0..20 {
            let vector: Vec<bool> = (0..pi_count).map(|_| rng.gen()).collect();
            let logic_vector: Vec<Logic> = vector.iter().map(|&b| Logic::from_bool(b)).collect();
            let scalar_out = scalar.step(&logic_vector);
            let parallel_out = parallel.step_broadcast(&vector);
            for (s, p) in scalar_out.iter().zip(&parallel_out) {
                let lane0 = p & 1 != 0;
                assert_eq!(s.to_bool(), Some(lane0), "simulators diverged");
            }
        }
    }

    #[test]
    fn sequential_state_advances_per_lane() {
        // Toggle register: lane forced to 0 must not toggle.
        let mut b = NetlistBuilder::new("toggle");
        let q = b.net("q");
        let d = b.gate(GateKind::Inv, &[q]);
        b.gate_driving("REG", GateKind::Dff, &[d], q);
        b.primary_output("q", q);
        let netlist = b.finish().unwrap();
        let q_net = netlist.primary_outputs()[0].1;

        let mut sim = BitSim::new(&netlist);
        sim.force_lanes(q_net, false, 0b1); // lane 0 stuck at 0
        sim.settle();
        sim.clock();
        sim.settle();
        let lanes = sim.output_lanes()[0];
        assert_eq!(lanes & 0b1, 0, "stuck lane stays low");
        assert_eq!(lanes & 0b10, 0b10, "free lane toggled high");
    }

    #[test]
    fn reset_clears_state_not_forces() {
        let mut b = NetlistBuilder::new("reg");
        let a = b.primary_input("a");
        let q = b.gate(GateKind::Dff, &[a]);
        b.primary_output("q", q);
        let netlist = b.finish().unwrap();
        let q_net = netlist.primary_outputs()[0].1;

        let mut sim = BitSim::new(&netlist);
        sim.force_lanes(q_net, true, 0b1);
        sim.step_broadcast(&[true]);
        sim.reset();
        sim.settle();
        assert_eq!(sim.flop_lanes(netlist.sequential_gates()[0]), 0);
        // Force survives the reset.
        assert_eq!(sim.output_lanes()[0] & 1, 1);
    }

    #[test]
    fn packed_snapshot_round_trips_broadcast_values() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 90,
            seed: 8,
            ..Default::default()
        });
        let pi_count = netlist.primary_inputs().len();
        let mut sim = BitSim::new(&netlist);
        let vector: Vec<bool> = (0..pi_count).map(|i| i % 2 == 0).collect();
        sim.set_vector_broadcast(&vector);
        sim.settle();
        let mut packed = vec![0u64; sim.packed_net_words()];
        sim.snapshot_nets_packed(&mut packed);
        for (i, &lanes) in sim.net_values().iter().enumerate() {
            let bit = (packed[i >> 6] >> (i & 63)) & 1;
            assert_eq!(0u64.wrapping_sub(bit), lanes, "net {i}");
        }
    }
}

#[cfg(test)]
mod pin_force_tests {
    use super::*;
    use fusa_netlist::{GateKind, NetlistBuilder};

    /// One net fanning out to two gates: a pin force on one reader must
    /// not affect the other.
    fn fanout_design() -> Netlist {
        let mut b = NetlistBuilder::new("fan");
        let a = b.primary_input("a");
        let x = b.gate_named("X", GateKind::Buf, &[a]);
        let y = b.gate_named("Y", GateKind::Buf, &[a]);
        b.primary_output("x", x);
        b.primary_output("y", y);
        b.finish().unwrap()
    }

    #[test]
    fn pin_force_is_local_to_one_reader() {
        let netlist = fanout_design();
        let x_gate = netlist.find_gate("X").unwrap();
        let mut sim = BitSim::new(&netlist);
        sim.force_pin_lanes(x_gate, 0, true, 0b1);
        sim.set_input_broadcast(0, false);
        sim.settle();
        let outputs = sim.output_lanes();
        assert_eq!(outputs[0] & 1, 1, "forced reader sees stuck-1");
        assert_eq!(outputs[1] & 1, 0, "sibling reader unaffected");
    }

    #[test]
    fn pin_force_affects_selected_lanes_only() {
        let netlist = fanout_design();
        let x_gate = netlist.find_gate("X").unwrap();
        let mut sim = BitSim::new(&netlist);
        sim.force_pin_lanes(x_gate, 0, false, 0b10);
        sim.set_input_broadcast(0, true);
        sim.settle();
        let x = sim.output_lanes()[0];
        assert_eq!(x & 0b1, 0b1, "lane 0 unaffected");
        assert_eq!(x & 0b10, 0, "lane 1 stuck-0");
    }

    #[test]
    fn pin_force_on_flop_data_pin() {
        let mut b = NetlistBuilder::new("reg");
        let a = b.primary_input("a");
        let q = b.gate_named("R", GateKind::Dff, &[a]);
        b.primary_output("q", q);
        let netlist = b.finish().unwrap();
        let reg = netlist.find_gate("R").unwrap();
        let mut sim = BitSim::new(&netlist);
        sim.force_pin_lanes(reg, 0, true, u64::MAX);
        sim.set_input_broadcast(0, false);
        sim.settle();
        sim.clock();
        sim.settle();
        assert_eq!(sim.output_lanes()[0], u64::MAX, "stuck D latched high");
    }

    #[test]
    fn clear_forces_removes_pin_forces() {
        let netlist = fanout_design();
        let x_gate = netlist.find_gate("X").unwrap();
        let mut sim = BitSim::new(&netlist);
        sim.force_pin_lanes(x_gate, 0, true, u64::MAX);
        sim.clear_forces();
        sim.set_input_broadcast(0, false);
        sim.settle();
        assert_eq!(sim.output_lanes()[0], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_pin_panics() {
        let netlist = fanout_design();
        let x_gate = netlist.find_gate("X").unwrap();
        let mut sim = BitSim::new(&netlist);
        sim.force_pin_lanes(x_gate, 3, true, 1);
    }
}
