//! Structure-of-arrays wide-lane simulation kernel.
//!
//! [`crate::BitSim`] walks `Gate` structs through pointers into the
//! [`Netlist`] and carries one `u64` (64 lanes) per net. That layout is
//! convenient but leaves throughput on the table once designs reach the
//! 10k–100k-gate range:
//!
//! * every gate evaluation chases a pointer into the gate table and
//!   re-matches the cell kind, and
//! * each pass advances only 64 fault machines.
//!
//! This module rebuilds the hot path as flat tables ([`SoaNetlist`]):
//! the levelized combinational schedule is stored as contiguous arrays
//! (output-net indices, flattened input-net indices with a fixed
//! [`MAX_PINS`] stride, gate ids) grouped into *kind runs* — maximal
//! stretches of one level sharing a cell kind — so the inner loop is a
//! branch-light sweep that dispatches the cell function once per run
//! instead of once per gate. On top of that layout, [`WideSim`] widens
//! the lane word from one `u64` to `[u64; W]` (`W` ∈ {1, 4, 8}): each
//! net carries `64·W` independent Boolean lanes, grouped into `W`
//! *words* of 64 lanes. Forces, state flips and observations are
//! word-addressed, so one sweep advances up to `64·W` fault machines —
//! the per-word loops compile to SIMD on targets with 256/512-bit
//! vector units.
//!
//! Fault campaigns step the same machines *differentially*
//! ([`WideSim::reset_diff`], [`WideSim::settle_diff`],
//! [`WideSim::clock_diff`]): every net and register then holds its
//! per-lane difference from a fault-free golden run, read back from a
//! bit-packed golden snapshot ([`WideSim::snapshot_nets_packed`],
//! [`WideSim::snapshot_lanes_packed`]). Differences persist from cycle
//! to cycle, and a gate is evaluated only when one of its input
//! differences changed, or when a golden input its difference reads
//! toggled ([`SoaNetlist::toggle_trace`]) while it carries a
//! difference or a force. [`WideSim::end_diff`] hands the machines over
//! to the full sweep once activity makes the events dearer than
//! sweeping.
//!
//! # Example
//!
//! ```
//! use fusa_logicsim::{SoaNetlist, WideSim};
//! use fusa_netlist::{GateKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), fusa_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("and");
//! let a = b.primary_input("a");
//! let c = b.primary_input("b");
//! let z = b.gate(GateKind::And2, &[a, c]);
//! b.primary_output("z", z);
//! let netlist = b.finish()?;
//!
//! let soa = SoaNetlist::new(&netlist);
//! let mut sim = WideSim::<4>::new(&soa);
//! // Stuck-at-1 on z in word 3, lane 5; all inputs low.
//! sim.force_lanes(netlist.primary_outputs()[0].1, true, 3, 1 << 5);
//! sim.set_vector_broadcast(&[false, false]);
//! sim.settle();
//! assert_eq!(sim.output_word(0, 3), 1 << 5);
//! assert_eq!(sim.output_word(0, 0), 0);
//! # Ok(())
//! # }
//! ```

use fusa_netlist::{Gate, GateId, GateKind, Levelizer, NetId, Netlist};

/// Maximum input-pin count of any cell in the gate library (the fixed
/// stride of the flattened input-net table).
pub const MAX_PINS: usize = 4;

/// Sentinel index: no force installed on this net / gate.
const NO_FORCE: u32 = u32::MAX;

/// [`SoaNetlist::net_driver`] entry of a primary-input net.
const DRIVER_INPUT: u32 = u32::MAX - 1;

/// [`SoaNetlist::net_driver`] entry of a net nothing drives.
const NO_DRIVER: u32 = u32::MAX;

/// [`SoaNetlist::output_slot`] entry of a net no primary output reads.
const NO_OUTPUT: u32 = u32::MAX;

/// One maximal stretch of the schedule sharing a level and a cell kind.
#[derive(Debug, Clone, Copy)]
struct Run {
    kind: GateKind,
    start: u32,
    end: u32,
}

/// A flat, kind-run-grouped combinational evaluation schedule.
///
/// Position `p` of the schedule evaluates the gate whose output net is
/// `out_net[p]` from input nets `in_nets[p * MAX_PINS ..][..arity]`
/// (unused pins hold `0` and are never read); its kind is that of run
/// `run_of[p]`. Runs never cross a levelization boundary, so evaluating
/// positions in order respects all combinational dependencies: every
/// reader of a net sits at a later position than its driver, and in a
/// later run.
#[derive(Debug, Clone, Default)]
pub struct WideSchedule {
    runs: Vec<Run>,
    run_of: Vec<u32>,
    out_net: Vec<u32>,
    in_nets: Vec<u32>,
    gate_ids: Vec<u32>,
}

impl WideSchedule {
    /// Builds the run-grouped schedule for `gates`, which must already be
    /// in levelized order; `levels` is indexed by gate id.
    fn build(netlist: &Netlist, gates: &[GateId], levels: &[u32]) -> WideSchedule {
        let mut sorted: Vec<GateId> = gates.to_vec();
        // Stable sort: within one level gates are independent, so they
        // can be regrouped by kind; across levels order is preserved.
        sorted.sort_by_key(|g| (levels[g.index()], netlist.gate(*g).kind as u8));

        let mut schedule = WideSchedule {
            runs: Vec::new(),
            run_of: Vec::with_capacity(sorted.len()),
            out_net: Vec::with_capacity(sorted.len()),
            in_nets: vec![0u32; sorted.len() * MAX_PINS],
            gate_ids: Vec::with_capacity(sorted.len()),
        };
        for (pos, &g) in sorted.iter().enumerate() {
            let gate = netlist.gate(g);
            schedule.out_net.push(gate.output.index() as u32);
            schedule.gate_ids.push(g.index() as u32);
            for (pin, &net) in gate.inputs.iter().enumerate() {
                schedule.in_nets[pos * MAX_PINS + pin] = net.index() as u32;
            }
            let level = levels[g.index()];
            match schedule.runs.last_mut() {
                Some(run)
                    if run.kind == gate.kind
                        && levels[schedule.gate_ids[run.start as usize] as usize] == level =>
                {
                    run.end = pos as u32 + 1;
                }
                _ => schedule.runs.push(Run {
                    kind: gate.kind,
                    start: pos as u32,
                    end: pos as u32 + 1,
                }),
            }
            schedule.run_of.push(schedule.runs.len() as u32 - 1);
        }
        schedule
    }

    /// Number of scheduled gate evaluations.
    pub fn len(&self) -> usize {
        self.out_net.len()
    }

    /// `true` when the schedule evaluates nothing.
    pub fn is_empty(&self) -> bool {
        self.out_net.is_empty()
    }

    /// Number of kind runs (dispatch points per sweep).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

/// One flip-flop in structure-of-arrays form. Pin 0 is D; the pins
/// after it are the controls: enable then reset, as the kind has them.
#[derive(Debug, Clone, Copy)]
struct SeqGate {
    kind: GateKind,
    arity: u8,
    out_net: u32,
    in_nets: [u32; MAX_PINS],
    gate_id: u32,
}

impl SeqGate {
    /// The nets on the enable and reset pins.
    fn control_nets(&self) -> &[u32] {
        &self.in_nets[1..self.arity as usize]
    }

    /// The net on the reset pin, if the kind has one.
    fn reset_net(&self) -> Option<u32> {
        matches!(self.kind, GateKind::Dffr | GateKind::Dffre)
            .then(|| self.in_nets[self.arity as usize - 1])
    }
}

/// The flat simulation tables of one design, built once and shared by
/// every [`WideSim`] (any `W`) over that design.
///
/// Gates share one *position* space: combinational gates take their
/// schedule positions `0..C`, flip-flop `s` takes `C + s`.
#[derive(Debug, Clone)]
pub struct SoaNetlist {
    net_count: usize,
    pi_nets: Vec<u32>,
    output_nets: Vec<u32>,
    comb: WideSchedule,
    seq: Vec<SeqGate>,
    /// Gate id → position.
    pos_of_gate: Vec<u32>,
    /// Gate id → input-pin count, for pin-force validation.
    arity_of_gate: Vec<u8>,
    /// Net → position of its driving gate, [`DRIVER_INPUT`] for a
    /// primary input, [`NO_DRIVER`] for an undriven net.
    net_driver: Vec<u32>,
    /// Net → the first primary-output slot that reads it, [`NO_OUTPUT`]
    /// for none.
    output_slot: Vec<u32>,
    /// Net `n`'s readers are `readers[reader_start[n]..reader_start[n + 1]]`:
    /// the positions of the gates reading it, each gate once.
    reader_start: Vec<u32>,
    readers: Vec<u32>,
}

impl SoaNetlist {
    /// Levelizes `netlist` and lays its evaluation schedule out flat.
    pub fn new(netlist: &Netlist) -> SoaNetlist {
        let order = Levelizer::levelize(netlist);
        let comb = WideSchedule::build(netlist, order.order(), order.levels());

        let mut seq = Vec::new();
        for g in netlist.sequential_gates() {
            let gate = netlist.gate(g);
            let mut in_nets = [0u32; MAX_PINS];
            for (pin, &net) in gate.inputs.iter().enumerate() {
                in_nets[pin] = net.index() as u32;
            }
            seq.push(SeqGate {
                kind: gate.kind,
                arity: gate.inputs.len() as u8,
                out_net: gate.output.index() as u32,
                in_nets,
                gate_id: g.index() as u32,
            });
        }

        // Position space: schedule positions, then flip-flops.
        let ids: Vec<u32> = comb
            .gate_ids
            .iter()
            .copied()
            .chain(seq.iter().map(|flop| flop.gate_id))
            .collect();
        let mut pos_of_gate = vec![0u32; netlist.gate_count()];
        for (pos, &g) in ids.iter().enumerate() {
            pos_of_gate[g as usize] = pos as u32;
        }
        let gates: Vec<&Gate> = ids.iter().map(|&g| netlist.gate(GateId(g))).collect();
        let pi_nets: Vec<u32> = netlist
            .primary_inputs()
            .iter()
            .map(|n| n.index() as u32)
            .collect();
        let mut net_driver = vec![NO_DRIVER; netlist.net_count()];
        for &net in &pi_nets {
            net_driver[net as usize] = DRIVER_INPUT;
        }
        for (pos, gate) in gates.iter().enumerate() {
            net_driver[gate.output.index()] = pos as u32;
        }

        // Reader rows, compressed: count, prefix-sum, fill. A gate that
        // reads one net on several pins is listed once.
        let distinct_reads = gates.iter().enumerate().flat_map(|(pos, gate)| {
            let pins = &gate.inputs;
            pins.iter()
                .enumerate()
                .filter(move |&(i, net)| !pins[..i].contains(net))
                .map(move |(_, net)| (net.index(), pos as u32))
        });
        let mut reader_start = vec![0u32; netlist.net_count() + 1];
        for (net, _) in distinct_reads.clone() {
            reader_start[net + 1] += 1;
        }
        for n in 0..netlist.net_count() {
            reader_start[n + 1] += reader_start[n];
        }
        let mut fill = reader_start.clone();
        let mut readers = vec![0u32; reader_start[netlist.net_count()] as usize];
        for (net, pos) in distinct_reads {
            readers[fill[net] as usize] = pos;
            fill[net] += 1;
        }

        let output_nets: Vec<u32> = netlist
            .primary_outputs()
            .iter()
            .map(|(_, n)| n.index() as u32)
            .collect();
        let mut output_slot = vec![NO_OUTPUT; netlist.net_count()];
        for (slot, &net) in output_nets.iter().enumerate().rev() {
            output_slot[net as usize] = slot as u32;
        }

        SoaNetlist {
            net_count: netlist.net_count(),
            pi_nets,
            output_nets,
            comb,
            seq,
            pos_of_gate,
            arity_of_gate: netlist
                .gates()
                .iter()
                .map(|g| g.inputs.len() as u8)
                .collect(),
            net_driver,
            output_slot,
            reader_start,
            readers,
        }
    }

    /// Number of nets in the design.
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.pi_nets.len()
    }

    /// Number of flip-flops.
    pub fn seq_count(&self) -> usize {
        self.seq.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.output_nets.len()
    }

    /// Gate evaluations one full settle+clock cycle costs.
    pub fn full_evals_per_cycle(&self) -> u64 {
        (self.comb.len() + self.seq.len()) as u64
    }

    /// Number of `u64` words of a packed bit-per-net snapshot
    /// (mirrors [`crate::BitSim::packed_net_words`]).
    pub fn packed_net_words(&self) -> usize {
        self.net_count.div_ceil(64)
    }

    /// Number of `u64` words of a bit-per-position set over the gates:
    /// schedule positions first, then one per flip-flop.
    fn position_words(&self) -> usize {
        (self.comb.len() + self.seq.len()).div_ceil(64)
    }

    /// The golden toggles of every cycle of one workload, from its
    /// packed snapshots, `snapshots`: cycle-major,
    /// [`SoaNetlist::packed_net_words`] words a cycle
    /// ([`WideSim::snapshot_nets_packed`]). The first cycle has none;
    /// each later one holds, as `(word, bits)` pairs of its nonzero
    /// words ([`CycleToggles`]), three sets:
    ///
    /// * the *position* toggles, one bit per gate position whose
    ///   difference can change though no input difference did: every
    ///   combinational reader of a net that changed value, and every
    ///   flip-flop whose enable or reset net changed value. A register
    ///   without a control difference or a pin force computes its next
    ///   difference as ((ΔD·E) | (ΔQ·¬E))·¬R, which reads neither golden
    ///   D nor golden Q ([`WideSim::clock_diff`]);
    /// * the *reset* toggles, the flip-flops whose reset net changed
    ///   value: a register whose state difference equals its D
    ///   difference ignores its enable but not its reset
    ///   ([`WideSim::settle_diff`]);
    /// * the golden *net* changes of the nets a seed can name, those
    ///   driven by a primary input or a flip-flop: the previous snapshot
    ///   XOR this one, over those nets. Only seed republication reads
    ///   them ([`WideSim::settle_diff`]), and a seed is such a net.
    ///
    /// # Panics
    ///
    /// Panics if `snapshots.len()` is not a multiple of
    /// [`SoaNetlist::packed_net_words`].
    pub fn toggle_trace(&self, snapshots: &[u64]) -> ToggleTrace {
        let net_words = self.packed_net_words();
        assert_eq!(snapshots.len() % net_words, 0, "whole snapshots only");
        let words = self.position_words();
        let seedable = self.seedable_nets();
        let mut trace = ToggleTrace::default();
        let mut sets = vec![0u64; 2 * words];
        let mut prev: Option<&[u64]> = None;
        for cur in snapshots.chunks_exact(net_words) {
            if let Some(prev) = prev {
                let (toggled, reset_toggled) = sets.split_at_mut(words);
                for (i, (&a, &b)) in prev.iter().zip(cur).enumerate() {
                    let seeds = (a ^ b) & seedable[i];
                    if seeds != 0 {
                        trace.pairs.push((i as u32, seeds));
                    }
                    let mut changed = a ^ b;
                    while changed != 0 {
                        let net = i * 64 + changed.trailing_zeros() as usize;
                        changed &= changed - 1;
                        for &p in self.readers_of(net) {
                            let (word, bit) = (p as usize >> 6, 1u64 << (p & 63));
                            let Some(s) = (p as usize).checked_sub(self.comb.len()) else {
                                toggled[word] |= bit;
                                continue;
                            };
                            let flop = &self.seq[s];
                            if flop.control_nets().contains(&(net as u32)) {
                                toggled[word] |= bit;
                            }
                            if flop.reset_net() == Some(net as u32) {
                                reset_toggled[word] |= bit;
                            }
                        }
                    }
                }
            }
            // Nets, then positions, then resets, each part's end noted.
            trace.ends.push(trace.pairs.len());
            for set in sets.chunks_exact_mut(words) {
                for (i, bits) in set.iter_mut().enumerate() {
                    if *bits != 0 {
                        trace.pairs.push((i as u32, std::mem::take(bits)));
                    }
                }
                trace.ends.push(trace.pairs.len());
            }
            prev = Some(cur);
        }
        trace
    }

    /// One bit per net a seed can name ([`WideSim::collect_seeds`]): the
    /// nets driven by a primary input or a flip-flop.
    fn seedable_nets(&self) -> Vec<u64> {
        let mut bits = vec![0u64; self.packed_net_words()];
        for (net, &driver) in self.net_driver.iter().enumerate() {
            if driver == DRIVER_INPUT || (driver != NO_DRIVER && driver as usize >= self.comb.len())
            {
                bits[net >> 6] |= 1u64 << (net & 63);
            }
        }
        bits
    }

    /// Index into the flip-flop tables of `gate`, `None` when it is
    /// combinational.
    fn seq_index(&self, gate: GateId) -> Option<usize> {
        (self.pos_of_gate[gate.index()] as usize).checked_sub(self.comb.len())
    }

    /// Positions of the gates reading `net`.
    #[inline(always)]
    fn readers_of(&self, net: usize) -> &[u32] {
        &self.readers[self.reader_start[net] as usize..self.reader_start[net + 1] as usize]
    }
}

/// The golden toggles of every cycle of one workload, kept sparse
/// ([`SoaNetlist::toggle_trace`]): a cycle costs as many
/// `(word, bits)` pairs as it has nonzero words.
#[derive(Debug, Default)]
pub struct ToggleTrace {
    /// Cycle-major: each cycle's net pairs, then its position pairs,
    /// then its reset pairs.
    pairs: Vec<(u32, u64)>,
    /// `ends[3 * cycle + part]`: the end in `pairs` of that part.
    ends: Vec<usize>,
}

impl ToggleTrace {
    /// The toggles of `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is out of range.
    pub fn cycle(&self, cycle: usize) -> CycleToggles<'_> {
        let start = if cycle == 0 {
            0
        } else {
            self.ends[3 * cycle - 1]
        };
        let [nets, positions, resets] = [0, 1, 2].map(|part| self.ends[3 * cycle + part]);
        CycleToggles {
            nets: &self.pairs[start..nets],
            positions: &self.pairs[nets..positions],
            resets: &self.pairs[positions..resets],
        }
    }
}

/// One cycle of a [`ToggleTrace`]: the nonzero words of its golden net
/// changes (over net words) and of its position and reset toggle sets
/// (over position words), each as `(word, bits)` pairs in ascending
/// word order. The default holds none, as the first cycle of a trace
/// does.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleToggles<'t> {
    nets: &'t [(u32, u64)],
    positions: &'t [(u32, u64)],
    resets: &'t [(u32, u64)],
}

/// Sets or clears the bits of `bit` in `word`, without a branch.
#[inline(always)]
fn set_bit(word: &mut u64, bit: u64, on: bool) {
    *word = (*word & !bit) | (bit * u64::from(on));
}

/// Zeroes the `W` words of every item `touched` names in `words`, and
/// clears `touched`.
fn clear_touched<const W: usize>(words: &mut [u64], touched: &mut [u64]) {
    for (k, bits) in touched.iter_mut().enumerate() {
        let mut rest = std::mem::take(bits);
        while rest != 0 {
            let i = k * 64 + rest.trailing_zeros() as usize;
            rest &= rest - 1;
            words[i * W..i * W + W].fill(0);
        }
    }
}

/// Bit `i` of a packed bit vector (such as a golden snapshot from
/// [`WideSim::snapshot_nets_packed`]) as a 64-lane broadcast word.
#[inline(always)]
pub fn bit_lanes(bits: &[u64], i: usize) -> u64 {
    0u64.wrapping_sub((bits[i >> 6] >> (i & 63)) & 1)
}

/// Transposes a 64×64 bit matrix in place: bit `j` of row `i` trades
/// places with bit `i` of row `j`. Each round swaps the off-diagonal
/// blocks of every `2j`-square on the diagonal.
fn transpose64(rows: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((rows[k] >> j) ^ rows[k + j]) & mask;
            rows[k] ^= t << j;
            rows[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Expands `$arm!(Kind, arity)` for the combinational cell kind `$kind`,
/// so a kind run resolves its cell function once, not once per gate.
macro_rules! dispatch_comb_kind {
    ($kind:expr, $arm:ident) => {
        match $kind {
            GateKind::Buf => $arm!(Buf, 1),
            GateKind::Inv => $arm!(Inv, 1),
            GateKind::And2 => $arm!(And2, 2),
            GateKind::And3 => $arm!(And3, 3),
            GateKind::And4 => $arm!(And4, 4),
            GateKind::Or2 => $arm!(Or2, 2),
            GateKind::Or3 => $arm!(Or3, 3),
            GateKind::Or4 => $arm!(Or4, 4),
            GateKind::Nand2 => $arm!(Nand2, 2),
            GateKind::Nand3 => $arm!(Nand3, 3),
            GateKind::Nand4 => $arm!(Nand4, 4),
            GateKind::Nor2 => $arm!(Nor2, 2),
            GateKind::Nor3 => $arm!(Nor3, 3),
            GateKind::Nor4 => $arm!(Nor4, 4),
            GateKind::Xor2 => $arm!(Xor2, 2),
            GateKind::Xnor2 => $arm!(Xnor2, 2),
            GateKind::Mux2 => $arm!(Mux2, 3),
            GateKind::Ao21 => $arm!(Ao21, 3),
            GateKind::Ao22 => $arm!(Ao22, 4),
            GateKind::Aoi21 => $arm!(Aoi21, 3),
            GateKind::Aoi22 => $arm!(Aoi22, 4),
            GateKind::Oai21 => $arm!(Oai21, 3),
            GateKind::Oai22 => $arm!(Oai22, 4),
            GateKind::Tie0 => $arm!(Tie0, 0),
            GateKind::Tie1 => $arm!(Tie1, 0),
            GateKind::Dff | GateKind::Dffr | GateKind::Dffe | GateKind::Dffre => {
                unreachable!("sequential gates never enter the combinational schedule")
            }
        }
    };
}

/// Evaluates `kind` over `W` words of 64 lanes each.
///
/// `inputs[pin][word]` holds the 64 lanes of input `pin` in `word`;
/// pins beyond the cell's arity are ignored. Sequential kinds compute
/// the next state from the current state `q`. Word `w` of the result is
/// exactly [`crate::eval::eval_u64`] applied to word `w` of the inputs
/// (property-tested below).
#[inline(always)]
pub fn eval_wide<const W: usize>(
    kind: GateKind,
    inputs: &[[u64; W]; MAX_PINS],
    q: &[u64; W],
) -> [u64; W] {
    macro_rules! lanes {
        (|$w:ident| $expr:expr) => {{
            let mut out = [0u64; W];
            for ($w, slot) in out.iter_mut().enumerate() {
                *slot = $expr;
            }
            out
        }};
    }
    match kind {
        GateKind::Buf => lanes!(|w| inputs[0][w]),
        GateKind::Inv => lanes!(|w| !inputs[0][w]),
        GateKind::And2 => lanes!(|w| inputs[0][w] & inputs[1][w]),
        GateKind::And3 => lanes!(|w| inputs[0][w] & inputs[1][w] & inputs[2][w]),
        GateKind::And4 => lanes!(|w| inputs[0][w] & inputs[1][w] & inputs[2][w] & inputs[3][w]),
        GateKind::Or2 => lanes!(|w| inputs[0][w] | inputs[1][w]),
        GateKind::Or3 => lanes!(|w| inputs[0][w] | inputs[1][w] | inputs[2][w]),
        GateKind::Or4 => lanes!(|w| inputs[0][w] | inputs[1][w] | inputs[2][w] | inputs[3][w]),
        GateKind::Nand2 => lanes!(|w| !(inputs[0][w] & inputs[1][w])),
        GateKind::Nand3 => lanes!(|w| !(inputs[0][w] & inputs[1][w] & inputs[2][w])),
        GateKind::Nand4 => lanes!(|w| !(inputs[0][w] & inputs[1][w] & inputs[2][w] & inputs[3][w])),
        GateKind::Nor2 => lanes!(|w| !(inputs[0][w] | inputs[1][w])),
        GateKind::Nor3 => lanes!(|w| !(inputs[0][w] | inputs[1][w] | inputs[2][w])),
        GateKind::Nor4 => lanes!(|w| !(inputs[0][w] | inputs[1][w] | inputs[2][w] | inputs[3][w])),
        GateKind::Xor2 => lanes!(|w| inputs[0][w] ^ inputs[1][w]),
        GateKind::Xnor2 => lanes!(|w| !(inputs[0][w] ^ inputs[1][w])),
        GateKind::Mux2 => {
            lanes!(|w| (inputs[1][w] & inputs[2][w]) | (inputs[0][w] & !inputs[2][w]))
        }
        GateKind::Ao21 => lanes!(|w| (inputs[0][w] & inputs[1][w]) | inputs[2][w]),
        GateKind::Ao22 => lanes!(|w| (inputs[0][w] & inputs[1][w]) | (inputs[2][w] & inputs[3][w])),
        GateKind::Aoi21 => lanes!(|w| !((inputs[0][w] & inputs[1][w]) | inputs[2][w])),
        GateKind::Aoi22 => {
            lanes!(|w| !((inputs[0][w] & inputs[1][w]) | (inputs[2][w] & inputs[3][w])))
        }
        GateKind::Oai21 => lanes!(|w| !((inputs[0][w] | inputs[1][w]) & inputs[2][w])),
        GateKind::Oai22 => {
            lanes!(|w| !((inputs[0][w] | inputs[1][w]) & (inputs[2][w] | inputs[3][w])))
        }
        GateKind::Tie0 => [0u64; W],
        GateKind::Tie1 => [u64::MAX; W],
        GateKind::Dff => lanes!(|w| inputs[0][w]),
        GateKind::Dffr => lanes!(|w| inputs[0][w] & !inputs[1][w]),
        GateKind::Dffe => lanes!(|w| (inputs[0][w] & inputs[1][w]) | (q[w] & !inputs[1][w])),
        GateKind::Dffre => {
            lanes!(|w| ((inputs[0][w] & inputs[1][w]) | (q[w] & !inputs[1][w])) & !inputs[2][w])
        }
    }
}

/// A `64·W`-lane bit-parallel simulator over [`SoaNetlist`] tables.
///
/// Semantically a `W`-word generalization of [`crate::BitSim`] in
/// fault-parallel broadcast mode: all words receive the same input
/// vectors, while forces ([`WideSim::force_lanes`] /
/// [`WideSim::force_pin_lanes`]) and state flips
/// ([`WideSim::schedule_state_flip`]) are installed per word, so one
/// pass carries up to `64·W` independent fault machines. Registers
/// power up at `0`; [`WideSim::reset`] clears state but keeps forces,
/// exactly like [`crate::BitSim::reset`].
///
/// # Differential mode
///
/// Between [`WideSim::reset_diff`] and [`WideSim::end_diff`] the same
/// machines are stepped against a golden (fault-free, force-free) run
/// of the same input vectors, given as one packed snapshot per cycle
/// ([`WideSim::snapshot_nets_packed`] of a broadcast run after its
/// settle) and the sparse toggles of that cycle
/// ([`SoaNetlist::toggle_trace`]). Every net and register then holds
/// its per-lane *difference* from golden — zero means golden, and a
/// read is the golden bit XOR the difference — so
/// [`WideSim::net_word`] and [`WideSim::flop_word`] return differences,
/// and [`WideSim::output_mismatch`] the lanes whose outputs differ.
///
/// Differences persist across cycles: a gate's difference is a function
/// of its golden inputs, its input differences and its forces, so it is
/// re-evaluated only when one of them changed. A net whose difference
/// changes marks its readers in a bitset over gate positions, and one
/// forward scan in schedule order drains it. The other seeds are the
/// *live* positions (a nonzero input difference, a force, or for a
/// flip-flop a differing state, kept as one bitset) whose golden inputs
/// toggled this cycle, found from the nonzero toggle words alone. A
/// flip-flop counts only the toggles of the golden inputs its next
/// difference reads ([`WideSim::clock_diff`]). A one-bit-per-word
/// summary of the pending set lets every scan skip empty words, so a
/// cycle costs its toggled, pending, seed and differing words, not the
/// design's width. The results are bit-identical to
/// [`WideSim::settle`] / [`WideSim::clock`] on the same forces. Forces
/// are fixed from [`WideSim::reset_diff`] to [`WideSim::end_diff`];
/// state flips may be scheduled at any time.
#[derive(Debug, Clone)]
pub struct WideSim<'a, const W: usize> {
    soa: &'a SoaNetlist,
    /// Net values (differences in differential mode), net-major:
    /// `values[net * W + word]`.
    values: Vec<u64>,
    /// Flop state (differences in differential mode),
    /// seq-position-major: `state[seq_pos * W + word]`.
    state: Vec<u64>,
    /// Broadcast drive per primary input (same in every word).
    input_drive: Vec<u64>,
    /// Per-net index into the force-mask tables (`NO_FORCE` = none).
    force_slot: Vec<u32>,
    force_and: Vec<[u64; W]>,
    force_or: Vec<[u64; W]>,
    forced_nets: Vec<u32>,
    /// Per-gate index into the pin-force tables (`NO_FORCE` = none).
    pin_force_slot: Vec<u32>,
    pin_force_and: Vec<[[u64; W]; MAX_PINS]>,
    pin_force_or: Vec<[[u64; W]; MAX_PINS]>,
    pin_forced_gates: Vec<u32>,
    /// `(seq_pos * W + word, lanes)` XORed into state at the next clock.
    state_flips: Vec<(u32, u64)>,
    cycles: u64,
    /// Differential mode: one bit per gate position still to evaluate.
    pending: Vec<u64>,
    /// Differential mode: one bit per word of `pending`, set exactly
    /// when that word is nonzero.
    pending_summary: Vec<u64>,
    /// Differential mode: one bit per live position, whose difference
    /// can change when its golden inputs toggle: a nonzero input
    /// difference, a force, or a flip-flop whose state differs.
    live: Vec<u64>,
    /// Differential mode: flip-flops whose state difference changed at
    /// the last clock edge or by a state flip, published next cycle.
    changed_flops: Vec<u32>,
    /// Differential mode, one bit per position: *steady* flip-flops,
    /// whose state difference equals their D difference, react to reset
    /// toggles only.
    steady: Vec<u64>,
    /// Differential mode: one bit per forced position, the drivers of
    /// forced nets and the pin-forced gates.
    forced_positions: Vec<u64>,
    /// Differential mode: one bit per net, the forced primary-input and
    /// flip-flop output nets, republished when their golden value
    /// toggles.
    seed_nets: Vec<u64>,
    /// Differential mode: one bit per primary-output slot whose net
    /// differs in some lane (a net read by several slots keeps its bit
    /// at the first).
    live_outputs: Vec<u64>,
    /// `seed_nets` and `forced_positions` no longer match the installed
    /// forces.
    seeds_stale: bool,
    /// Differential mode: one bit per net that may hold a nonzero
    /// difference, set when [`WideSim::write_diff`] stores one.
    touched_nets: Vec<u64>,
    /// Differential mode: one bit per flip-flop whose state difference
    /// may be nonzero, set when a clock edge or a state flip changes it.
    touched_flops: Vec<u64>,
    /// A step outside differential mode ([`WideSim::reset`], `settle`,
    /// `clock`, `end_diff`) has run since the last
    /// [`WideSim::reset_diff`], so the touched bitsets do not cover every
    /// nonzero word.
    untracked: bool,
}

impl<'a, const W: usize> WideSim<'a, W> {
    /// Creates a simulator with registers at `0` and inputs driving `0`.
    pub fn new(soa: &'a SoaNetlist) -> Self {
        WideSim {
            soa,
            values: vec![0; soa.net_count * W],
            state: vec![0; soa.seq.len() * W],
            input_drive: vec![0; soa.pi_nets.len()],
            force_slot: vec![NO_FORCE; soa.net_count],
            force_and: Vec::new(),
            force_or: Vec::new(),
            forced_nets: Vec::new(),
            pin_force_slot: vec![NO_FORCE; soa.arity_of_gate.len()],
            pin_force_and: Vec::new(),
            pin_force_or: Vec::new(),
            pin_forced_gates: Vec::new(),
            state_flips: Vec::new(),
            cycles: 0,
            pending: vec![0; soa.position_words()],
            pending_summary: vec![0; soa.position_words().div_ceil(64)],
            live: vec![0; soa.position_words()],
            changed_flops: Vec::new(),
            steady: vec![0; soa.position_words()],
            forced_positions: vec![0; soa.position_words()],
            seed_nets: vec![0; soa.packed_net_words()],
            live_outputs: vec![0; soa.output_nets.len().div_ceil(64)],
            seeds_stale: false,
            touched_nets: vec![0; soa.packed_net_words()],
            touched_flops: vec![0; soa.seq.len().div_ceil(64)],
            untracked: false,
        }
    }

    /// The shared tables this simulator runs over.
    pub fn soa(&self) -> &SoaNetlist {
        self.soa
    }

    /// Resets register state and the cycle counter (forces stay).
    pub fn reset(&mut self) {
        self.state.fill(0);
        self.cycles = 0;
        self.untracked = true;
    }

    /// Number of clock edges since construction or [`WideSim::reset`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Broadcasts a full input vector to every lane of every word.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the PI count.
    pub fn set_vector_broadcast(&mut self, vector: &[bool]) {
        assert_eq!(vector.len(), self.input_drive.len());
        for (drive, &bit) in self.input_drive.iter_mut().zip(vector) {
            *drive = if bit { u64::MAX } else { 0 };
        }
    }

    /// Drives primary input `i` with `lanes[i]` in every word, so each
    /// lane can run its own input vectors: up to 64 golden machines side
    /// by side in a `WideSim<1>`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len()` differs from the PI count.
    pub fn set_input_lanes(&mut self, lanes: &[u64]) {
        self.input_drive.copy_from_slice(lanes);
    }

    /// Installs a stuck-at force on `net`, restricted to the given lanes
    /// of one word. Multiple calls accumulate.
    pub fn force_lanes(&mut self, net: NetId, stuck_high: bool, word: usize, lanes: u64) {
        assert!(word < W, "word {word} out of range for W={W}");
        let mut slot = self.force_slot[net.index()];
        if slot == NO_FORCE {
            slot = self.force_and.len() as u32;
            self.force_and.push([u64::MAX; W]);
            self.force_or.push([0u64; W]);
            self.force_slot[net.index()] = slot;
            self.forced_nets.push(net.index() as u32);
            self.seeds_stale = true;
        }
        if stuck_high {
            self.force_or[slot as usize][word] |= lanes;
        } else {
            self.force_and[slot as usize][word] &= !lanes;
        }
    }

    /// Installs a stuck-at force on one input pin of `gate`, restricted
    /// to the given lanes of one word (mirrors
    /// [`crate::BitSim::force_pin_lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the gate's cell or `word`
    /// for `W`.
    pub fn force_pin_lanes(
        &mut self,
        gate: GateId,
        pin: u8,
        stuck_high: bool,
        word: usize,
        lanes: u64,
    ) {
        assert!(word < W, "word {word} out of range for W={W}");
        let arity = self.soa.arity_of_gate[gate.index()];
        assert!(pin < arity, "pin {pin} out of range for {arity}-input gate");
        let mut slot = self.pin_force_slot[gate.index()];
        if slot == NO_FORCE {
            slot = self.pin_force_and.len() as u32;
            self.pin_force_and.push([[u64::MAX; W]; MAX_PINS]);
            self.pin_force_or.push([[0u64; W]; MAX_PINS]);
            self.pin_force_slot[gate.index()] = slot;
            self.pin_forced_gates.push(gate.index() as u32);
            self.seeds_stale = true;
        }
        if stuck_high {
            self.pin_force_or[slot as usize][pin as usize][word] |= lanes;
        } else {
            self.pin_force_and[slot as usize][pin as usize][word] &= !lanes;
        }
    }

    /// Schedules a single-event upset: the given lanes of one word of a
    /// flip-flop's state are inverted at the *next* clock edge, once.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not sequential or `word` is out of range.
    pub fn schedule_state_flip(&mut self, gate: GateId, word: usize, lanes: u64) {
        assert!(word < W, "word {word} out of range for W={W}");
        let s = self
            .soa
            .seq_index(gate)
            .expect("state flips target flip-flops");
        self.state_flips.push(((s * W + word) as u32, lanes));
    }

    /// Removes every installed force and any pending state flips.
    pub fn clear_forces(&mut self) {
        for net in self.forced_nets.drain(..) {
            self.force_slot[net as usize] = NO_FORCE;
        }
        self.force_and.clear();
        self.force_or.clear();
        for gate in self.pin_forced_gates.drain(..) {
            self.pin_force_slot[gate as usize] = NO_FORCE;
        }
        self.pin_force_and.clear();
        self.pin_force_or.clear();
        self.state_flips.clear();
        self.seeds_stale = true;
    }

    /// The 64 lanes of `net` in one word.
    pub fn net_word(&self, net: NetId, word: usize) -> u64 {
        self.values[net.index() * W + word]
    }

    /// The 64 lanes of the `slot`-th primary output in one word.
    pub fn output_word(&self, slot: usize, word: usize) -> u64 {
        let net = self.soa.output_nets[slot] as usize;
        self.values[net * W + word]
    }

    /// Current register state of a sequential gate in one word.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not sequential.
    pub fn flop_word(&self, gate: GateId, word: usize) -> u64 {
        let s = self
            .soa
            .seq_index(gate)
            .expect("flop_word targets flip-flops");
        self.state[s * W + word]
    }

    /// Current register state of the `seq`-th flip-flop (in
    /// [`Netlist::sequential_gates`] order) in one word.
    pub fn state_word(&self, seq: usize, word: usize) -> u64 {
        self.state[seq * W + word]
    }

    /// Packs lane 0 of word 0 of every net into a bit-per-net snapshot
    /// (the format of [`crate::BitSim::snapshot_nets_packed`]).
    ///
    /// In a *broadcast* run without forces every net's lanes are
    /// all-zeros or all-ones, so the snapshot captures the machine
    /// exactly; it is the golden input of differential mode.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from
    /// [`SoaNetlist::packed_net_words`].
    pub fn snapshot_nets_packed(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.soa.packed_net_words());
        out.fill(0);
        for (i, lanes) in self.values.chunks_exact(W).enumerate() {
            out[i >> 6] |= (lanes[0] & 1) << (i & 63);
        }
    }

    /// Packs every lane of word 0 into a bit-per-net snapshot of its
    /// own: `out[lane * packed_net_words()..][..packed_net_words()]`
    /// receives lane `lane`, as [`WideSim::snapshot_nets_packed`] would
    /// from a broadcast run of that lane's inputs. This is how one
    /// [`WideSim::set_input_lanes`] pass yields the golden snapshots of
    /// up to 64 workloads.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not 64 times
    /// [`SoaNetlist::packed_net_words`].
    pub fn snapshot_lanes_packed(&self, out: &mut [u64]) {
        let words = self.soa.packed_net_words();
        assert_eq!(out.len(), 64 * words);
        let mut block = [0u64; 64];
        for b in 0..words {
            for (i, slot) in block.iter_mut().enumerate() {
                *slot = self.values.get((b * 64 + i) * W).copied().unwrap_or(0);
            }
            transpose64(&mut block);
            for (lane, &bits) in block.iter().enumerate() {
                out[lane * words + b] = bits;
            }
        }
    }

    #[inline(always)]
    fn masked(&self, net: usize, mut v: [u64; W]) -> [u64; W] {
        let slot = self.force_slot[net];
        if slot != NO_FORCE {
            let and = &self.force_and[slot as usize];
            let or = &self.force_or[slot as usize];
            for w in 0..W {
                v[w] = (v[w] & and[w]) | or[w];
            }
        }
        v
    }

    #[inline(always)]
    fn masked_write(&mut self, net: usize, v: [u64; W]) {
        let v = self.masked(net, v);
        self.values[net * W..net * W + W].copy_from_slice(&v);
    }

    /// Propagates inputs and register state through the combinational
    /// logic (one levelized pass over the full schedule).
    pub fn settle(&mut self) {
        let soa = self.soa;
        self.untracked = true;
        for i in 0..soa.pi_nets.len() {
            let net = soa.pi_nets[i] as usize;
            self.masked_write(net, [self.input_drive[i]; W]);
        }
        for s in 0..soa.seq.len() {
            self.publish_flop(s);
        }
        self.sweep_schedule(&soa.comb);
    }

    /// Applies one rising clock edge to every flip-flop.
    pub fn clock(&mut self) {
        let soa = self.soa;
        self.untracked = true;
        for (s, flop) in soa.seq.iter().enumerate() {
            self.clock_flop(s, flop);
        }
        self.apply_state_flips();
        self.cycles += 1;
    }

    /// Resets register state (as [`WideSim::reset`]) and enters
    /// differential mode: every net and register equals the golden
    /// machine, which also powers up at `0`, and every fault site is
    /// due in the first cycle. Forces and pending state flips stay;
    /// forces must not change again before [`WideSim::end_diff`].
    ///
    /// After a differential pass only the nets and registers that pass
    /// made nonzero are cleared; after any other step since the last
    /// reset, all of them are.
    pub fn reset_diff(&mut self) {
        if self.seeds_stale {
            self.collect_seeds();
        }
        if self.untracked {
            self.values.fill(0);
            self.state.fill(0);
            self.touched_nets.fill(0);
            self.touched_flops.fill(0);
            self.untracked = false;
        } else {
            clear_touched::<W>(&mut self.values, &mut self.touched_nets);
            clear_touched::<W>(&mut self.state, &mut self.touched_flops);
        }
        self.pending.fill(0);
        self.pending_summary.fill(0);
        for i in 0..self.forced_positions.len() {
            self.mark_word(i, self.forced_positions[i]);
        }
        self.live.copy_from_slice(&self.forced_positions);
        self.changed_flops.clear();
        self.steady.fill(0);
        self.live_outputs.fill(0);
        self.cycles = 0;
    }

    /// Differential [`WideSim::settle`] against `golden`, the packed
    /// snapshot of the golden run's settled nets in this cycle, and
    /// `toggles`, the golden toggles since the previous cycle
    /// ([`ToggleTrace::cycle`]; any toggles in the first cycle after
    /// [`WideSim::reset_diff`], which seeds every fault site itself).
    /// Returns the number of combinational gates evaluated.
    ///
    /// It reads only the nonzero toggle words. Besides the positions
    /// whose input difference changed, a live position is due when its
    /// position toggle bit is set, except that a steady flip-flop
    /// ([`WideSim::clock_diff`]) is due only on a reset toggle. The
    /// forced primary-input and flip-flop output nets among the golden
    /// net changes are republished, and so is every register whose
    /// state difference changed since the last settle.
    ///
    /// # Panics
    ///
    /// Panics if `golden.len()` differs from
    /// [`SoaNetlist::packed_net_words`], if a toggle word is out of
    /// range, or if forces changed since [`WideSim::reset_diff`].
    pub fn settle_diff(&mut self, golden: &[u64], toggles: CycleToggles<'_>) -> u64 {
        let soa = self.soa;
        assert_eq!(golden.len(), soa.packed_net_words());
        assert!(
            !self.seeds_stale,
            "forces changed in differential mode; install them before reset_diff"
        );
        // A live position whose golden inputs toggled may change its
        // difference; any other position keeps last cycle's. A steady
        // flip-flop ignores its enable toggles.
        for &(word, bits) in toggles.positions {
            let i = word as usize;
            self.mark_word(i, self.live[i] & bits & !self.steady[i]);
        }
        for &(word, bits) in toggles.resets {
            let i = word as usize;
            self.mark_word(i, self.live[i] & bits);
        }
        // Forced primary inputs and flip-flop outputs follow their
        // golden value. Forces are fixed and the loop below republishes
        // every state change, so a seed net can change only when its
        // golden value toggles, or in the first cycle, which publishes
        // them all.
        if self.cycles == 0 {
            for i in 0..self.seed_nets.len() {
                self.publish_seeds(i, self.seed_nets[i], golden);
            }
        } else {
            for &(word, changed) in toggles.nets {
                let i = word as usize;
                self.publish_seeds(i, changed & self.seed_nets[i], golden);
            }
        }
        // Registers whose state difference changed publish it.
        for i in 0..self.changed_flops.len() {
            let s = self.changed_flops[i] as usize;
            self.publish_flop_diff(s, golden);
        }
        self.changed_flops.clear();

        // Readers sit in later runs than their drivers, so each run is
        // drained in one visit.
        let mut evals = 0;
        let mut from = 0;
        while let Some((i, bits)) = self.pending_word(from, soa.comb.len()) {
            let p = i * 64 + bits.trailing_zeros() as usize;
            let run = soa.comb.runs[soa.comb.run_of[p] as usize];
            evals += self.drain_run(run, p, golden);
            from = run.end as usize;
        }
        evals
    }

    /// Differential [`WideSim::clock`] after [`WideSim::settle_diff`]
    /// with the same `golden` snapshot. Returns the number of flip-flops
    /// clocked.
    ///
    /// Every register kind computes next = ((D·E) | (Q·¬E))·¬R, with
    /// E ≡ 1 and R ≡ 0 where the kind has no such pin. Without a
    /// difference on E or R and without a pin force, the next
    /// difference is therefore ((ΔD·E) | (ΔQ·¬E))·¬R. It never reads
    /// golden D or Q, and reads golden E only while ΔQ ≠ ΔD. So each
    /// clocked flip-flop files itself for the next cycle: *eager* when a
    /// control pin differs or a pin is forced, and then it marks itself
    /// to be clocked again; *steady* when its new ΔQ equals ΔD (clocked
    /// on a reset toggle only); and otherwise clocked on an enable or
    /// reset toggle. Besides, a flip-flop is clocked when an input
    /// difference changed, and after a state flip. A difference its own
    /// clock edge left is not clocked again: while ΔD, E and R hold it
    /// is a fixed point of that clock.
    pub fn clock_diff(&mut self, golden: &[u64]) -> u64 {
        let soa = self.soa;
        let comb_len = soa.comb.len();
        let mut evals = 0;
        let mut from = comb_len;
        while let Some((i, mut bits)) = self.pending_word(from, comb_len + soa.seq.len()) {
            self.unmark_word(i, bits);
            while bits != 0 {
                let p = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.clock_flop_diff(p, golden);
                evals += 1;
            }
            from = (i + 1) * 64;
        }
        // A difference a clock edge left is a fixed point of the
        // register's own clock while ΔD, E and R hold, and a change in
        // any of them marks the register. A flipped state is not, so a
        // flipped register is clocked again.
        for i in 0..self.state_flips.len() {
            let (index, lanes) = self.state_flips[i];
            self.state[index as usize] ^= lanes;
            let s = index as usize / W;
            self.touched_flops[s >> 6] |= 1u64 << (s & 63);
            self.changed_flops.push(s as u32);
            self.mark(comb_len + s);
        }
        self.state_flips.clear();
        self.cycles += 1;
        evals
    }

    /// Clocks the flip-flop at position `p` against `golden` and files
    /// it for the next cycle ([`WideSim::clock_diff`]).
    #[inline(always)]
    fn clock_flop_diff(&mut self, p: usize, golden: &[u64]) {
        let soa = self.soa;
        let s = p - soa.comb.len();
        let flop = &soa.seq[s];
        let arity = flop.arity as usize;
        let mut ins = [[0u64; W]; MAX_PINS];
        let mut golden_ins = [[0u64; 1]; MAX_PINS];
        let (mut live, mut control) = (0, 0);
        for pin in 0..arity {
            let net = flop.in_nets[pin] as usize;
            let g = bit_lanes(golden, net);
            golden_ins[pin][0] = g;
            let mut differs = 0;
            for (lanes, &d) in ins[pin].iter_mut().zip(self.net_lanes(net)) {
                *lanes = g ^ d;
                differs |= d;
            }
            live |= differs;
            if pin > 0 {
                control |= differs;
            }
        }
        let d_diff = *self.net_lanes(flop.in_nets[0] as usize);
        let forced = self.is_forced(p);
        if forced {
            self.apply_pin_masks(flop.gate_id as usize, &mut ins, arity);
        }
        // The golden register publishes its state unforced.
        let golden_q = bit_lanes(golden, flop.out_net as usize);
        let mut q = [golden_q; W];
        for (w, lanes) in q.iter_mut().enumerate() {
            *lanes ^= self.state[s * W + w];
        }
        let next = eval_wide::<W>(flop.kind, &ins, &q);
        let golden_next = eval_wide::<1>(flop.kind, &golden_ins, &[golden_q])[0];
        let (mut changed, mut unsteady) = (0, 0);
        for (w, &lanes) in next.iter().enumerate() {
            let diff = lanes ^ golden_next;
            changed |= diff ^ self.state[s * W + w];
            self.state[s * W + w] = diff;
            live |= diff;
            unsteady |= diff ^ d_diff[w];
        }
        if changed != 0 {
            self.touched_flops[s >> 6] |= 1u64 << (s & 63);
            self.changed_flops.push(s as u32);
        }
        self.set_live(p, live != 0 || forced);
        // An eager register's next difference reads golden D and Q.
        if control != 0 || forced {
            self.mark(p);
        }
        set_bit(&mut self.steady[p >> 6], 1u64 << (p & 63), unsteady == 0);
    }

    /// Differential mode: per word, the lanes in which some primary
    /// output differs from golden. Reads only the outputs that differ.
    pub fn output_mismatch(&self) -> [u64; W] {
        let mut mismatch = [0u64; W];
        for (k, &word) in self.live_outputs.iter().enumerate() {
            let mut slots = word;
            while slots != 0 {
                let slot = k * 64 + slots.trailing_zeros() as usize;
                slots &= slots - 1;
                let net = self.soa.output_nets[slot] as usize;
                for (m, &d) in mismatch.iter_mut().zip(self.net_lanes(net)) {
                    *m |= d;
                }
            }
        }
        mismatch
    }

    /// Per word, the lanes in which some register's state differs from
    /// `golden`, one bit per flip-flop in [`Netlist::sequential_gates`]
    /// order; `None` in differential mode, where the state already is
    /// the difference. One pass over the state words.
    ///
    /// # Panics
    ///
    /// Panics if `golden` holds fewer bits than there are flip-flops.
    pub fn state_mismatch(&self, golden: Option<&[u64]>) -> [u64; W] {
        let mut mismatch = [0u64; W];
        for (s, words) in self.state.chunks_exact(W).enumerate() {
            let g = golden.map_or(0, |bits| bit_lanes(bits, s));
            for (m, &lanes) in mismatch.iter_mut().zip(words) {
                *m |= lanes ^ g;
            }
        }
        mismatch
    }

    /// Leaves differential mode after a [`WideSim::clock_diff`]: register
    /// state becomes absolute (golden XOR difference), read from
    /// `golden_next`, the golden snapshot of the *next* cycle, so
    /// [`WideSim::settle`] / [`WideSim::clock`] continue the same
    /// machines. Net values are stale until the next settle.
    pub fn end_diff(&mut self, golden_next: &[u64]) {
        assert_eq!(golden_next.len(), self.soa.packed_net_words());
        self.untracked = true;
        for (s, flop) in self.soa.seq.iter().enumerate() {
            let golden_q = bit_lanes(golden_next, flop.out_net as usize);
            for lanes in &mut self.state[s * W..s * W + W] {
                *lanes ^= golden_q;
            }
        }
    }

    /// Rebuilds the seeds from the installed forces. A force on an
    /// undriven net is never visible, as in [`WideSim::settle`].
    fn collect_seeds(&mut self) {
        let soa = self.soa;
        self.forced_positions.fill(0);
        self.seed_nets.fill(0);
        for &net in &self.forced_nets {
            match soa.net_driver[net as usize] {
                NO_DRIVER => {}
                p if (p as usize) < soa.comb.len() => {
                    self.forced_positions[p as usize >> 6] |= 1u64 << (p & 63);
                }
                _ => self.seed_nets[net as usize >> 6] |= 1u64 << (net & 63),
            }
        }
        for &gate in &self.pin_forced_gates {
            let p = soa.pos_of_gate[gate as usize];
            self.forced_positions[p as usize >> 6] |= 1u64 << (p & 63);
        }
        self.seeds_stale = false;
    }

    /// Republishes the seed nets of net word `i` that `bits` names.
    #[inline(always)]
    fn publish_seeds(&mut self, i: usize, mut bits: u64, golden: &[u64]) {
        while bits != 0 {
            let net = i * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            match self.soa.net_driver[net] {
                DRIVER_INPUT => {
                    let g = bit_lanes(golden, net);
                    self.write_diff(net, self.masked(net, [g; W]), g);
                }
                p => self.publish_flop_diff(p as usize - self.soa.comb.len(), golden),
            }
        }
    }

    /// Publishes the `s`-th flip-flop's state difference on its output
    /// net.
    #[inline(always)]
    fn publish_flop_diff(&mut self, s: usize, golden: &[u64]) {
        let net = self.soa.seq[s].out_net as usize;
        let g = bit_lanes(golden, net);
        let mut v = [g; W];
        for (lanes, &d) in v.iter_mut().zip(&self.state[s * W..s * W + W]) {
            *lanes ^= d;
        }
        self.write_diff(net, self.masked(net, v), g);
    }

    /// The `W` words of `net`.
    #[inline(always)]
    fn net_lanes(&self, net: usize) -> &[u64; W] {
        self.values[net * W..net * W + W]
            .try_into()
            .expect("a net holds W words")
    }

    #[inline(always)]
    fn mark(&mut self, pos: usize) {
        self.mark_word(pos >> 6, 1u64 << (pos & 63));
    }

    /// Adds `bits` to pending word `i`, and `i` to the summary when
    /// `bits` is nonzero.
    #[inline(always)]
    fn mark_word(&mut self, i: usize, bits: u64) {
        self.pending[i] |= bits;
        self.pending_summary[i >> 6] |= u64::from(bits != 0) << (i & 63);
    }

    /// Removes `bits` from pending word `i`, and `i` from the summary
    /// when that empties it.
    #[inline(always)]
    fn unmark_word(&mut self, i: usize, bits: u64) {
        self.pending[i] &= !bits;
        self.pending_summary[i >> 6] &= !(u64::from(self.pending[i] == 0) << (i & 63));
    }

    #[inline(always)]
    fn set_live(&mut self, pos: usize, live: bool) {
        set_bit(&mut self.live[pos >> 6], 1u64 << (pos & 63), live);
    }

    #[inline(always)]
    fn is_forced(&self, pos: usize) -> bool {
        (self.forced_positions[pos >> 6] >> (pos & 63)) & 1 != 0
    }

    /// The lowest pending word with a position in `from..end`, and the
    /// bits of its positions in that range, left pending. Only the words
    /// the summary marks are read.
    #[inline(always)]
    fn pending_word(&self, from: usize, end: usize) -> Option<(usize, u64)> {
        if from >= end {
            return None;
        }
        let (first, last) = (from >> 6, (end - 1) >> 6);
        let mut k = first >> 6;
        let mut words = self.pending_summary[k] & (u64::MAX << (first & 63));
        loop {
            while words != 0 {
                let i = k * 64 + words.trailing_zeros() as usize;
                words &= words - 1;
                if i > last {
                    return None;
                }
                let mut bits = self.pending[i];
                if i == first {
                    bits &= u64::MAX << (from & 63);
                }
                if i == last {
                    bits &= u64::MAX >> (63 - ((end - 1) & 63));
                }
                if bits != 0 {
                    return Some((i, bits));
                }
            }
            if k == last >> 6 {
                return None;
            }
            k += 1;
            words = self.pending_summary[k];
        }
    }

    /// Evaluates and clears the pending positions of one kind run, from
    /// `first` to the run's end; the cell function is resolved once per
    /// run, as in [`WideSim::settle`].
    fn drain_run(&mut self, run: Run, first: usize, golden: &[u64]) -> u64 {
        let end = run.end as usize;
        macro_rules! arm {
            ($kind:ident, $arity:expr) => {
                self.drain_kind::<$arity, _>(first, end, golden, |ins| {
                    eval_wide::<W>(GateKind::$kind, ins, &[0u64; W])
                })
            };
        }
        dispatch_comb_kind!(run.kind, arm)
    }

    #[inline(always)]
    fn drain_kind<const A: usize, F>(
        &mut self,
        first: usize,
        end: usize,
        golden: &[u64],
        f: F,
    ) -> u64
    where
        F: Fn(&[[u64; W]; MAX_PINS]) -> [u64; W],
    {
        let mut evals = 0;
        let mut from = first;
        while let Some((i, mut bits)) = self.pending_word(from, end) {
            // Evaluations only mark later runs, so the run's bits of this
            // word can be claimed at once.
            self.unmark_word(i, bits);
            while bits != 0 {
                let p = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                evals += 1;
                self.eval_diff::<A, F>(p, golden, &f);
            }
            from = (i + 1) * 64;
        }
        evals
    }

    #[inline(always)]
    fn eval_diff<const A: usize, F>(&mut self, p: usize, golden: &[u64], f: &F)
    where
        F: Fn(&[[u64; W]; MAX_PINS]) -> [u64; W],
    {
        let sched = &self.soa.comb;
        let mut ins = [[0u64; W]; MAX_PINS];
        let mut live = 0;
        let nets = &sched.in_nets[p * MAX_PINS..p * MAX_PINS + MAX_PINS];
        for (slot, &net) in ins.iter_mut().zip(nets).take(A) {
            let net = net as usize;
            let g = bit_lanes(golden, net);
            for (lanes, &d) in slot.iter_mut().zip(self.net_lanes(net)) {
                *lanes = g ^ d;
                live |= d;
            }
        }
        let out = sched.out_net[p] as usize;
        let forced = self.is_forced(p);
        let v = if forced {
            self.apply_pin_masks(sched.gate_ids[p] as usize, &mut ins, A);
            self.masked(out, f(&ins))
        } else {
            f(&ins)
        };
        self.set_live(p, live != 0 || forced);
        self.write_diff(out, v, bit_lanes(golden, out));
    }

    /// Stores `net`'s faulty value `v` (after its force) as a
    /// difference from its golden lanes `g`; a difference that changed
    /// marks the net's readers and, on an output net, its live-output
    /// bit, and a nonzero one marks the net touched.
    #[inline(always)]
    fn write_diff(&mut self, net: usize, v: [u64; W], g: u64) {
        let (mut changed, mut differs) = (0, 0);
        for (stored, &lanes) in self.values[net * W..net * W + W].iter_mut().zip(&v) {
            let diff = lanes ^ g;
            changed |= diff ^ *stored;
            differs |= diff;
            *stored = diff;
        }
        if changed == 0 {
            return;
        }
        self.touched_nets[net >> 6] |= u64::from(differs != 0) << (net & 63);
        let soa = self.soa;
        let slot = soa.output_slot[net];
        if slot != NO_OUTPUT {
            let bit = 1u64 << (slot & 63);
            set_bit(
                &mut self.live_outputs[slot as usize >> 6],
                bit,
                differs != 0,
            );
        }
        for &reader in soa.readers_of(net) {
            self.mark(reader as usize);
        }
    }

    #[inline(always)]
    fn publish_flop(&mut self, s: usize) {
        let flop = &self.soa.seq[s];
        let mut v = [0u64; W];
        v.copy_from_slice(&self.state[s * W..s * W + W]);
        self.masked_write(flop.out_net as usize, v);
    }

    #[inline(always)]
    fn gather_inputs(&self, base: usize, nets: &[u32], arity: usize) -> [[u64; W]; MAX_PINS] {
        let mut ins = [[0u64; W]; MAX_PINS];
        for (pin, slot) in ins.iter_mut().enumerate().take(arity) {
            let net = nets[base + pin] as usize;
            slot.copy_from_slice(&self.values[net * W..net * W + W]);
        }
        ins
    }

    #[inline(always)]
    fn apply_pin_masks(&self, gate: usize, ins: &mut [[u64; W]; MAX_PINS], arity: usize) {
        let slot = self.pin_force_slot[gate];
        if slot == NO_FORCE {
            return;
        }
        let and = &self.pin_force_and[slot as usize];
        let or = &self.pin_force_or[slot as usize];
        for pin in 0..arity {
            for w in 0..W {
                ins[pin][w] = (ins[pin][w] & and[pin][w]) | or[pin][w];
            }
        }
    }

    fn clock_flop(&mut self, s: usize, flop: &SeqGate) {
        let arity = flop.arity as usize;
        let mut ins = self.gather_inputs(0, &flop.in_nets, arity);
        self.apply_pin_masks(flop.gate_id as usize, &mut ins, arity);
        let mut q = [0u64; W];
        q.copy_from_slice(&self.state[s * W..s * W + W]);
        let v = eval_wide::<W>(flop.kind, &ins, &q);
        self.state[s * W..s * W + W].copy_from_slice(&v);
    }

    fn apply_state_flips(&mut self) {
        for (index, lanes) in self.state_flips.drain(..) {
            self.state[index as usize] ^= lanes;
        }
    }

    fn sweep_schedule(&mut self, sched: &WideSchedule) {
        for r in 0..sched.runs.len() {
            let run = sched.runs[r];
            self.sweep_run(sched, run);
        }
    }

    /// Dispatches one kind run to a monomorphized inner loop: the cell
    /// function is resolved once per run, not once per gate.
    fn sweep_run(&mut self, sched: &WideSchedule, run: Run) {
        let (start, end) = (run.start as usize, run.end as usize);
        macro_rules! arm {
            ($kind:ident, $arity:expr) => {
                self.sweep_kind::<$arity, _>(sched, start, end, |ins| {
                    eval_wide::<W>(GateKind::$kind, ins, &[0u64; W])
                })
            };
        }
        dispatch_comb_kind!(run.kind, arm)
    }

    #[inline(always)]
    fn sweep_kind<const A: usize, F>(
        &mut self,
        sched: &WideSchedule,
        start: usize,
        end: usize,
        f: F,
    ) where
        F: Fn(&[[u64; W]; MAX_PINS]) -> [u64; W],
    {
        for pos in start..end {
            let mut ins = self.gather_inputs(pos * MAX_PINS, &sched.in_nets, A);
            self.apply_pin_masks(sched.gate_ids[pos] as usize, &mut ins, A);
            let v = f(&ins);
            self.masked_write(sched.out_net[pos] as usize, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitsim::BitSim;
    use crate::eval::eval_u64;
    use fusa_netlist::designs::{random_netlist, RandomNetlistConfig};
    use fusa_netlist::{gate_ids, NetlistBuilder};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    const ALL_KINDS: [GateKind; 29] = [
        GateKind::Buf,
        GateKind::Inv,
        GateKind::And2,
        GateKind::And3,
        GateKind::And4,
        GateKind::Or2,
        GateKind::Or3,
        GateKind::Or4,
        GateKind::Nand2,
        GateKind::Nand3,
        GateKind::Nand4,
        GateKind::Nor2,
        GateKind::Nor3,
        GateKind::Nor4,
        GateKind::Xor2,
        GateKind::Xnor2,
        GateKind::Mux2,
        GateKind::Ao21,
        GateKind::Ao22,
        GateKind::Aoi21,
        GateKind::Aoi22,
        GateKind::Oai21,
        GateKind::Oai22,
        GateKind::Tie0,
        GateKind::Tie1,
        GateKind::Dff,
        GateKind::Dffr,
        GateKind::Dffe,
        GateKind::Dffre,
    ];

    #[test]
    fn eval_wide_agrees_with_eval_u64_per_word() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x51DE);
        for _ in 0..200 {
            for kind in ALL_KINDS {
                let mut ins = [[0u64; 8]; MAX_PINS];
                for pin in ins.iter_mut() {
                    for w in pin.iter_mut() {
                        *w = rng.gen();
                    }
                }
                let mut q = [0u64; 8];
                for w in q.iter_mut() {
                    *w = rng.gen();
                }
                let wide = eval_wide::<8>(kind, &ins, &q);
                let arity = kind.num_inputs();
                for w in 0..8 {
                    let scalar_inputs: Vec<u64> = (0..arity).map(|p| ins[p][w]).collect();
                    assert_eq!(
                        wide[w],
                        eval_u64(kind, &scalar_inputs, q[w]),
                        "{kind:?} word {w}"
                    );
                }
            }
        }
    }

    /// Every word of a WideSim must match an independently configured
    /// scalar BitSim, with per-word forces, pin forces and state flips.
    #[test]
    fn wide_words_match_independent_scalar_sims() {
        for seed in [11u64, 29, 63] {
            let netlist = random_netlist(&RandomNetlistConfig {
                num_gates: 140,
                seed,
                ..Default::default()
            });
            let soa = SoaNetlist::new(&netlist);
            let mut wide = WideSim::<4>::new(&soa);
            let mut scalars: Vec<BitSim> = (0..4).map(|_| BitSim::new(&netlist)).collect();

            let ids: Vec<GateId> = gate_ids(&netlist).collect();
            let flops = netlist.sequential_gates();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF00D);

            // Distinct per-word fault configuration.
            for (word, scalar) in scalars.iter_mut().enumerate() {
                let g = ids[(word * 7 + 3) % ids.len()];
                let net = netlist.gate(g).output;
                let lanes: u64 = rng.gen();
                let high = word % 2 == 0;
                wide.force_lanes(net, high, word, lanes);
                scalar.force_lanes(net, high, lanes);

                let pg = ids[(word * 13 + 1) % ids.len()];
                let arity = netlist.gate(pg).inputs.len();
                if arity > 0 {
                    let pin = (word % arity) as u8;
                    let plane: u64 = rng.gen();
                    wide.force_pin_lanes(pg, pin, !high, word, plane);
                    scalar.force_pin_lanes(pg, pin, !high, plane);
                }
            }

            let pi_count = netlist.primary_inputs().len();
            for cycle in 0..24 {
                let vector: Vec<bool> = (0..pi_count).map(|_| rng.gen()).collect();
                if cycle == 5 && !flops.is_empty() {
                    let flip: u64 = rng.gen();
                    for (word, scalar) in scalars.iter_mut().enumerate() {
                        let flop = flops[word % flops.len()];
                        wide.schedule_state_flip(flop, word, flip);
                        scalar.schedule_state_flip(flop, flip);
                    }
                }
                wide.set_vector_broadcast(&vector);
                wide.settle();
                for (word, scalar) in scalars.iter_mut().enumerate() {
                    scalar.set_vector_broadcast(&vector);
                    scalar.settle();
                    for net in 0..netlist.net_count() {
                        assert_eq!(
                            wide.net_word(NetId(net as u32), word),
                            scalar.net_lanes(NetId(net as u32)),
                            "seed {seed} cycle {cycle} word {word} net {net}"
                        );
                    }
                }
                wide.clock();
                for (word, scalar) in scalars.iter_mut().enumerate() {
                    scalar.clock();
                    for &f in &flops {
                        assert_eq!(
                            wide.flop_word(f, word),
                            scalar.flop_lanes(f),
                            "seed {seed} cycle {cycle} word {word} flop state"
                        );
                    }
                }
            }
        }
    }

    /// Golden snapshots of a broadcast run and its toggles.
    fn golden_run(soa: &SoaNetlist, vectors: &[Vec<bool>]) -> (Vec<Vec<u64>>, ToggleTrace) {
        let mut golden = WideSim::<1>::new(soa);
        let mut snapshots = vec![vec![0u64; soa.packed_net_words()]; vectors.len()];
        for (cycle, vector) in vectors.iter().enumerate() {
            golden.set_vector_broadcast(vector);
            golden.settle();
            golden.snapshot_nets_packed(&mut snapshots[cycle]);
            golden.clock();
        }
        let toggles = soa.toggle_trace(&snapshots.concat());
        assert_eq!(toggles.ends.len(), 3 * vectors.len());
        (snapshots, toggles)
    }

    /// The `(word, bits)` pairs of the nonzero words of `set`.
    fn nonzero_words(set: &[u64]) -> Vec<(u32, u64)> {
        (0..set.len())
            .filter(|&i| set[i] != 0)
            .map(|i| (i as u32, set[i]))
            .collect()
    }

    /// The live-output bits must name exactly the output slots whose
    /// difference is nonzero (each net at its first slot).
    fn assert_live_outputs<const W: usize>(sim: &WideSim<'_, W>, context: &str) {
        let mut expected = vec![0u64; sim.live_outputs.len()];
        for slot in 0..sim.soa.output_count() {
            let net = sim.soa.output_nets[slot] as usize;
            let first = sim.soa.output_slot[net] as usize;
            if sim.net_lanes(net).iter().any(|&d| d != 0) {
                expected[first >> 6] |= 1u64 << (first & 63);
            }
        }
        assert_eq!(sim.live_outputs, expected, "{context}: live outputs");
        let mut mismatch = [0u64; W];
        for slot in 0..sim.soa.output_count() {
            for (word, m) in mismatch.iter_mut().enumerate() {
                *m |= sim.output_word(slot, word);
            }
        }
        assert_eq!(
            sim.output_mismatch(),
            mismatch,
            "{context}: output mismatch"
        );
    }

    /// Differential stepping must reproduce the full sweep on every net
    /// and register of every word — with net forces on gate outputs,
    /// primary inputs and flip-flop outputs, pin forces on gates and
    /// flip-flops, state flips, and a hand-off back to the full sweep.
    /// Held-input phases (one vector repeated for several cycles, then a
    /// toggle) check that persistent differences, toggle seeding and
    /// the live bits track the full sweep. Half the netlists draw every
    /// register kind on shared enable and reset nets, so the eager and
    /// steady flip-flops and the reset toggles are stepped too.
    #[test]
    fn differential_stepping_matches_full_sweep() {
        let cases = [(5u64, 1usize), (19, 1), (42, 1), (5, 5), (19, 4), (42, 7)];
        for ((seed, hold), mixed_registers) in cases
            .into_iter()
            .flat_map(|case| [false, true].map(|mixed| (case, mixed)))
        {
            let netlist = random_netlist(&RandomNetlistConfig {
                num_gates: 150,
                sequential_fraction: 0.2,
                seed,
                mixed_registers,
                ..Default::default()
            });
            let soa = SoaNetlist::new(&netlist);
            let ids: Vec<GateId> = gate_ids(&netlist).collect();
            let flops = netlist.sequential_gates();
            let pis = netlist.primary_inputs();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1FF ^ hold as u64);
            let context = format!("seed {seed} hold {hold} mixed {mixed_registers}");

            let mut full = WideSim::<4>::new(&soa);
            let mut diff = WideSim::<4>::new(&soa);
            for word in 0..4 {
                let mut nets = vec![
                    netlist.gate(ids[rng.gen_range(0..ids.len())]).output,
                    pis[word % pis.len()],
                ];
                if !flops.is_empty() {
                    nets.push(netlist.gate(flops[word % flops.len()]).output);
                }
                for net in nets {
                    let (lanes, high) = (rng.gen::<u64>(), rng.gen::<bool>());
                    full.force_lanes(net, high, word, lanes);
                    diff.force_lanes(net, high, word, lanes);
                }
                let mut pinned = vec![ids[rng.gen_range(0..ids.len())]];
                if !flops.is_empty() {
                    pinned.push(flops[(word + 1) % flops.len()]);
                }
                for g in pinned {
                    let arity = netlist.gate(g).inputs.len();
                    if arity > 0 {
                        let pin = rng.gen_range(0..arity) as u8;
                        let (lanes, high) = (rng.gen::<u64>(), rng.gen::<bool>());
                        full.force_pin_lanes(g, pin, high, word, lanes);
                        diff.force_pin_lanes(g, pin, high, word, lanes);
                    }
                }
            }

            let cycles = 30;
            let handoff = 20;
            let pi_count = pis.len();
            let mut vectors: Vec<Vec<bool>> = Vec::with_capacity(cycles);
            for cycle in 0..cycles {
                let vector = if cycle % hold == 0 {
                    (0..pi_count).map(|_| rng.gen()).collect()
                } else {
                    vectors[cycle - 1].clone()
                };
                vectors.push(vector);
            }
            let (snapshots, toggles) = golden_run(&soa, &vectors);

            full.reset();
            diff.reset_diff();
            for (cycle, vector) in vectors.iter().enumerate() {
                let snapshot = &snapshots[cycle];
                if cycle == 7 && !flops.is_empty() {
                    for word in 0..4 {
                        let (flop, lanes) = (flops[(3 * word) % flops.len()], rng.gen());
                        full.schedule_state_flip(flop, word, lanes);
                        diff.schedule_state_flip(flop, word, lanes);
                    }
                }
                full.set_vector_broadcast(vector);
                full.settle();
                let differential = cycle < handoff;
                if differential {
                    let evals = diff.settle_diff(snapshot, toggles.cycle(cycle));
                    assert!(evals <= soa.comb.len() as u64);
                    assert_live_outputs(&diff, &format!("{context} cycle {cycle}"));
                } else {
                    diff.set_vector_broadcast(vector);
                    diff.settle();
                }
                for net in 0..netlist.net_count() {
                    let golden_net = if differential {
                        bit_lanes(snapshot, net)
                    } else {
                        0
                    };
                    for word in 0..4 {
                        assert_eq!(
                            golden_net ^ diff.net_word(NetId(net as u32), word),
                            full.net_word(NetId(net as u32), word),
                            "{context} cycle {cycle} net {net} word {word}"
                        );
                    }
                }
                full.clock();
                if differential {
                    diff.clock_diff(snapshot);
                } else {
                    diff.clock();
                }
                if cycle + 1 == handoff {
                    diff.end_diff(&snapshots[cycle + 1]);
                }
                let next = snapshots.get(cycle + 1);
                for &f in &flops {
                    let golden_q = match next {
                        Some(next) if cycle + 1 < handoff => {
                            bit_lanes(next, netlist.gate(f).output.index())
                        }
                        _ => 0,
                    };
                    for word in 0..4 {
                        assert_eq!(
                            golden_q ^ diff.flop_word(f, word),
                            full.flop_word(f, word),
                            "{context} cycle {cycle} flop state word {word}"
                        );
                    }
                }
            }
        }
    }

    /// `reset_diff` clears only what the last differential pass made
    /// nonzero, and every word after a step outside differential mode.
    /// One simulator runs a differential pass, a pass that hands off to
    /// the full sweep, and two differential passes under other forces;
    /// the last flips, at its final clock, a register no difference of
    /// that pass reached, so only the flip marks it. After every reset
    /// and every pass, each net and register word equals that of a
    /// simulator built fresh for the pass.
    #[test]
    fn reset_diff_after_any_pass_matches_a_fresh_simulator() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 150,
            sequential_fraction: 0.2,
            seed: 23,
            mixed_registers: true,
            ..Default::default()
        });
        let soa = SoaNetlist::new(&netlist);
        let ids: Vec<GateId> = gate_ids(&netlist).collect();
        let flops = netlist.sequential_gates();
        let pi_count = netlist.primary_inputs().len();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let vectors: Vec<Vec<bool>> = (0..12)
            .map(|_| (0..pi_count).map(|_| rng.gen()).collect())
            .collect();
        let (snapshots, toggles) = golden_run(&soa, &vectors);
        let last = vectors.len() - 1;

        // Installs `forces` in words 0-2 and resets into differential
        // mode.
        let start = |sim: &mut WideSim<'_, 4>, forces: &[(NetId, bool, u64)]| {
            sim.clear_forces();
            for (i, &(net, high, lanes)) in forces.iter().enumerate() {
                sim.force_lanes(net, high, i % 3, lanes);
            }
            sim.reset_diff();
        };
        // Steps one cycle, differentially until `handoff` and on the full
        // sweep after it, with an optional state flip at its clock edge.
        let step = |sim: &mut WideSim<'_, 4>,
                    cycle: usize,
                    handoff: Option<usize>,
                    flip: Option<GateId>| {
            if let Some(flop) = flip {
                sim.schedule_state_flip(flop, 3, 1 << 9);
            }
            if handoff.is_none_or(|h| cycle <= h) {
                sim.settle_diff(&snapshots[cycle], toggles.cycle(cycle));
                sim.clock_diff(&snapshots[cycle]);
                if handoff == Some(cycle) {
                    sim.end_diff(&snapshots[cycle + 1]);
                }
            } else {
                sim.set_vector_broadcast(&vectors[cycle]);
                sim.settle();
                sim.clock();
            }
        };
        let assert_same = |reused: &WideSim<'_, 4>, fresh: &WideSim<'_, 4>, context: &str| {
            assert_eq!(reused.values, fresh.values, "{context}: net words");
            assert_eq!(reused.state, fresh.state, "{context}: register words");
        };

        let mut reused = WideSim::<4>::new(&soa);
        for (pass, handoff) in [None, Some(5), None, None].into_iter().enumerate() {
            let forces: Vec<(NetId, bool, u64)> = (0..2 + pass)
                .map(|_| {
                    let gate = ids[rng.gen_range(0..ids.len())];
                    (netlist.gate(gate).output, rng.gen(), rng.gen())
                })
                .collect();
            // The last pass flips a register no difference reaches: a dry
            // run finds one whose state never differs.
            let flip = (pass == 3).then(|| {
                let mut dry = WideSim::<4>::new(&soa);
                start(&mut dry, &forces);
                let mut reached = vec![false; flops.len()];
                for cycle in 0..vectors.len() {
                    step(&mut dry, cycle, handoff, None);
                    for (s, reached) in reached.iter_mut().enumerate() {
                        *reached |= (0..4).any(|word| dry.state_word(s, word) != 0);
                    }
                }
                let unreached = reached.iter().position(|&r| !r);
                flops[unreached.expect("a register the forces never reach")]
            });
            let mut fresh = WideSim::<4>::new(&soa);
            start(&mut reused, &forces);
            start(&mut fresh, &forces);
            assert_same(&reused, &fresh, &format!("pass {pass} reset"));
            for cycle in 0..vectors.len() {
                let flip = flip.filter(|_| cycle == last);
                step(&mut reused, cycle, handoff, flip);
                step(&mut fresh, cycle, handoff, flip);
            }
            assert_same(&reused, &fresh, &format!("pass {pass} end"));
        }
        let fresh = WideSim::<4>::new(&soa);
        reused.reset_diff();
        assert_same(&reused, &fresh, "reset after the flip");
    }

    /// An unforced machine is the golden machine: differential stepping
    /// evaluates nothing.
    #[test]
    fn differential_stepping_without_forces_is_idle() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 80,
            seed: 8,
            ..Default::default()
        });
        let soa = SoaNetlist::new(&netlist);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let vectors: Vec<Vec<bool>> = (0..10)
            .map(|_| {
                (0..netlist.primary_inputs().len())
                    .map(|_| rng.gen())
                    .collect()
            })
            .collect();
        let (snapshots, toggles) = golden_run(&soa, &vectors);
        let mut diff = WideSim::<8>::new(&soa);
        diff.reset_diff();
        for (cycle, snapshot) in snapshots.iter().enumerate() {
            assert_eq!(diff.settle_diff(snapshot, toggles.cycle(cycle)), 0);
            assert_eq!(diff.clock_diff(snapshot), 0);
        }
        assert!(diff.values.iter().all(|&d| d == 0));
    }

    /// The sparse toggles of every cycle are the nonzero words of the
    /// dense sets, derived here gate by gate from the netlist: a
    /// combinational gate is marked when any input net changed, a
    /// flip-flop when its enable or reset net did, the reset set when
    /// its reset net did; the net set is the snapshots' difference over
    /// the primary inputs and the flip-flop outputs, the nets a seed can
    /// name.
    #[test]
    fn sparse_toggles_are_the_nonzero_words_of_the_dense_sets() {
        for (seed, mixed_registers) in [(3u64, false), (3, true), (27, true), (90, true)] {
            let netlist = random_netlist(&RandomNetlistConfig {
                num_gates: 400,
                sequential_fraction: 0.3,
                seed,
                mixed_registers,
                ..Default::default()
            });
            let soa = SoaNetlist::new(&netlist);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let pi_count = netlist.primary_inputs().len();
            let mut vectors: Vec<Vec<bool>> = Vec::new();
            for cycle in 0..40 {
                vectors.push(if cycle % 3 == 2 {
                    vectors[cycle - 1].clone()
                } else {
                    (0..pi_count).map(|_| rng.gen()).collect()
                });
            }
            let (snapshots, toggles) = golden_run(&soa, &vectors);
            let mut seedable = vec![0u64; soa.packed_net_words()];
            let flop_outputs = gate_ids(&netlist)
                .map(|g| netlist.gate(g))
                .filter(|gate| gate.kind.is_sequential())
                .map(|gate| gate.output);
            for net in netlist.primary_inputs().iter().copied().chain(flop_outputs) {
                seedable[net.index() >> 6] |= 1u64 << (net.index() & 63);
            }
            let mut reset_pairs = 0;
            let empty = toggles.cycle(0);
            assert!(empty.nets.is_empty() && empty.positions.is_empty() && empty.resets.is_empty());
            for cycle in 1..vectors.len() {
                let (prev, cur) = (&snapshots[cycle - 1], &snapshots[cycle]);
                let changed =
                    |net: NetId| bit_lanes(prev, net.index()) != bit_lanes(cur, net.index());
                let mut positions = vec![0u64; soa.position_words()];
                let mut resets = vec![0u64; soa.position_words()];
                for g in gate_ids(&netlist) {
                    let gate = netlist.gate(g);
                    let p = soa.pos_of_gate[g.index()] as usize;
                    let bit = 1u64 << (p & 63);
                    let (controls, reset) = match gate.kind {
                        GateKind::Dff | GateKind::Dffe => (&gate.inputs[1..], None),
                        GateKind::Dffr | GateKind::Dffre => {
                            (&gate.inputs[1..], gate.inputs.last().copied())
                        }
                        _ => (&gate.inputs[..], None),
                    };
                    if controls.iter().any(|&net| changed(net)) {
                        positions[p >> 6] |= bit;
                    }
                    if reset.is_some_and(changed) {
                        resets[p >> 6] |= bit;
                    }
                }
                let nets: Vec<u64> = prev
                    .iter()
                    .zip(cur)
                    .zip(&seedable)
                    .map(|((a, b), seeds)| (a ^ b) & seeds)
                    .collect();
                let sparse = toggles.cycle(cycle);
                reset_pairs += sparse.resets.len();
                let context = format!("seed {seed} mixed {mixed_registers} cycle {cycle}");
                assert_eq!(sparse.nets, nonzero_words(&nets), "{context}: nets");
                assert_eq!(
                    sparse.positions,
                    nonzero_words(&positions),
                    "{context}: positions"
                );
                assert_eq!(sparse.resets, nonzero_words(&resets), "{context}: resets");
            }
            // Mixed registers share reset nets that toggle, so the reset
            // set is exercised.
            assert_eq!(reset_pairs > 0, mixed_registers, "seed {seed}");
        }
    }

    /// The summary-driven pending search finds what a linear scan of the
    /// pending words finds, over random sets (marked, claimed and
    /// re-marked) and ranges that start and end anywhere, the
    /// comb/flop boundary word and an unaligned design end among them.
    /// The summary bit of a word is set exactly when the word is
    /// nonzero.
    #[test]
    fn pending_search_matches_a_linear_scan() {
        // More than 64 position words, so the summary spans words too.
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 4500,
            sequential_fraction: 0.2,
            seed: 64,
            ..Default::default()
        });
        let soa = SoaNetlist::new(&netlist);
        let total = soa.comb.len() + soa.seq.len();
        assert!(soa.position_words() > 64 && !total.is_multiple_of(64));
        let mut sim = WideSim::<1>::new(&soa);
        let mut rng = ChaCha8Rng::seed_from_u64(64);
        let linear = |sim: &WideSim<'_, 1>, from: usize, end: usize| {
            (from..end).find(|&p| (sim.pending[p >> 6] >> (p & 63)) & 1 == 1)
        };
        let boundary = soa.comb.len();
        for trial in 0..200 {
            match trial % 3 {
                0 => {
                    for _ in 0..rng.gen_range(0..40) {
                        sim.mark(rng.gen_range(0..total));
                    }
                }
                1 => {
                    let i = rng.gen_range(0..soa.position_words());
                    let bits = if rng.gen_bool(0.2) {
                        0
                    } else {
                        rng.gen::<u64>() & rng.gen::<u64>()
                    };
                    sim.mark_word(i, bits);
                }
                _ => {
                    for _ in 0..rng.gen_range(0..8) {
                        let i = rng.gen_range(0..soa.position_words());
                        sim.unmark_word(i, rng.gen());
                    }
                }
            }
            for (i, &word) in sim.pending.iter().enumerate() {
                assert_eq!(
                    (sim.pending_summary[i >> 6] >> (i & 63)) & 1 == 1,
                    word != 0,
                    "word {i}"
                );
            }
            let mut ranges = vec![
                (0, total),
                (0, boundary),
                (boundary, total),
                (boundary - 1, boundary + 1),
            ];
            for _ in 0..20 {
                let from = rng.gen_range(0..total);
                ranges.push((from, rng.gen_range(from..=total)));
            }
            for (from, end) in ranges {
                let found = sim.pending_word(from, end);
                assert_eq!(
                    found.map(|(i, bits)| i * 64 + bits.trailing_zeros() as usize),
                    linear(&sim, from, end),
                    "trial {trial} range {from}..{end}"
                );
                if let Some((i, bits)) = found {
                    let expected: u64 = (from.max(i * 64)..end.min(i * 64 + 64))
                        .filter(|&p| (sim.pending[i] >> (p & 63)) & 1 == 1)
                        .map(|p| 1u64 << (p & 63))
                        .sum();
                    assert_eq!(bits, expected, "trial {trial} range {from}..{end} word {i}");
                }
            }
        }
    }

    /// A net's toggle marks its combinational readers, and a flip-flop
    /// only through its enable or reset pin; a reset toggle also lands
    /// in the reset set. The net set is the snapshots' difference.
    #[test]
    fn toggles_mark_combinational_readers_and_register_controls() {
        let mut b = NetlistBuilder::new("controls");
        let d = b.primary_input("d");
        let e = b.primary_input("e");
        let r = b.primary_input("r");
        let z = b.gate_named("Z", GateKind::And2, &[d, e]);
        b.primary_output("z", z);
        let kinds = [
            ("PLAIN", GateKind::Dff, vec![d]),
            ("RESET", GateKind::Dffr, vec![d, r]),
            ("ENABLE", GateKind::Dffe, vec![d, e]),
            ("BOTH", GateKind::Dffre, vec![d, e, r]),
            // One net on both the data and the enable pin.
            ("SHARED", GateKind::Dffe, vec![e, e]),
        ];
        for (name, kind, pins) in &kinds {
            let q = b.gate_named(*name, *kind, pins);
            b.primary_output(name.to_lowercase(), q);
        }
        let netlist = b.finish().unwrap();
        let soa = SoaNetlist::new(&netlist);

        let sets = |toggled: &[NetId]| {
            let prev = vec![0u64; soa.packed_net_words()];
            let mut cur = prev.clone();
            for net in toggled {
                cur[net.index() >> 6] |= 1u64 << (net.index() & 63);
            }
            let trace = soa.toggle_trace(&[prev, cur.clone()].concat());
            let cycle = trace.cycle(1);
            assert_eq!(cycle.nets, nonzero_words(&cur));
            let bit = |pairs: &[(u32, u64)], p: usize| {
                pairs
                    .iter()
                    .any(|&(word, bits)| word as usize == p >> 6 && (bits >> (p & 63)) & 1 == 1)
            };
            let marked = |name: &str| {
                let p = soa.pos_of_gate[netlist.find_gate(name).unwrap().index()] as usize;
                (bit(cycle.positions, p), bit(cycle.resets, p))
            };
            ["Z", "PLAIN", "RESET", "ENABLE", "BOTH", "SHARED"].map(marked)
        };
        let (f, t) = (false, true);
        // Data toggles reach no register.
        assert_eq!(sets(&[d]), [(t, f), (f, f), (f, f), (f, f), (f, f), (f, f)]);
        // Enable toggles reach the enable registers, the shared pin too.
        assert_eq!(sets(&[e]), [(t, f), (f, f), (f, f), (t, f), (t, f), (t, f)]);
        // Reset toggles reach the reset registers in both sets.
        assert_eq!(sets(&[r]), [(f, f), (f, f), (t, t), (f, f), (t, t), (f, f)]);
        assert_eq!(sets(&[]), [(f, f); 6]);
    }

    /// Once a forced machine's transient has passed and its inputs are
    /// held, differential stepping evaluates nothing while the output
    /// difference persists — even next to a free-running register whose
    /// golden value toggles every cycle and which a state flip briefly
    /// made differ.
    #[test]
    fn held_inputs_reach_an_idle_steady_state() {
        let mut b = NetlistBuilder::new("steady");
        let a = b.primary_input("a");
        let c = b.primary_input("c");
        let d = b.primary_input("d");
        let z = b.gate(GateKind::And2, &[a, c]);
        b.primary_output("z", z);
        // t toggles every cycle; y = r ^ t differs only while r does.
        let t_next = b.net("t_next");
        let t = b.gate(GateKind::Dff, &[t_next]);
        b.gate_driving("T_INV", GateKind::Inv, &[t], t_next);
        let r = b.gate_named("R", GateKind::Dff, &[d]);
        let y = b.gate(GateKind::Xor2, &[r, t]);
        b.primary_output("y", y);
        let netlist = b.finish().unwrap();
        let soa = SoaNetlist::new(&netlist);
        let r_gate = netlist.find_gate("R").unwrap();

        let vectors = vec![vec![false, true, true]; 12];
        let (snapshots, toggles) = golden_run(&soa, &vectors);
        let mut diff = WideSim::<2>::new(&soa);
        let z_lanes = 0xF0F0;
        diff.force_lanes(z, true, 1, z_lanes);
        diff.reset_diff();
        for (cycle, snapshot) in snapshots.iter().enumerate() {
            if cycle == 3 {
                diff.schedule_state_flip(r_gate, 0, 0b101);
            }
            let evals =
                diff.settle_diff(snapshot, toggles.cycle(cycle)) + diff.clock_diff(snapshot);
            assert_eq!(diff.output_word(0, 1), z_lanes, "cycle {cycle}");
            if cycle >= 6 {
                assert_eq!(evals, 0, "cycle {cycle} is past the transient");
                assert_eq!(diff.output_word(1, 0), 0, "cycle {cycle}");
            }
        }
    }

    /// Every lane of a per-lane-driven pass packs into the snapshot a
    /// broadcast run of that lane's vectors takes.
    #[test]
    fn lane_snapshots_match_per_lane_broadcast_runs() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 160,
            seed: 17,
            ..Default::default()
        });
        let soa = SoaNetlist::new(&netlist);
        let words = soa.packed_net_words();
        let pi_count = netlist.primary_inputs().len();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let drives: Vec<Vec<u64>> = (0..6)
            .map(|_| (0..pi_count).map(|_| rng.gen()).collect())
            .collect();
        let mut lanes = WideSim::<1>::new(&soa);
        let mut packed = vec![0u64; 64 * words];
        let mut lane_runs: Vec<(usize, WideSim<1>)> = [0usize, 1, 31, 32, 63]
            .into_iter()
            .map(|lane| (lane, WideSim::<1>::new(&soa)))
            .collect();
        let mut expected = vec![0u64; words];
        for drive in &drives {
            lanes.set_input_lanes(drive);
            lanes.settle();
            lanes.snapshot_lanes_packed(&mut packed);
            for (lane, sim) in &mut lane_runs {
                let vector: Vec<bool> = drive.iter().map(|&d| (d >> *lane) & 1 == 1).collect();
                sim.set_vector_broadcast(&vector);
                sim.settle();
                sim.snapshot_nets_packed(&mut expected);
                assert_eq!(
                    &packed[*lane * words..][..words],
                    &expected[..],
                    "lane {lane}"
                );
                sim.clock();
            }
            lanes.clock();
        }
    }

    #[test]
    fn transpose64_swaps_rows_and_columns() {
        let mut rng = ChaCha8Rng::seed_from_u64(64);
        let mut rows = [0u64; 64];
        for row in rows.iter_mut() {
            *row = rng.gen();
        }
        let original = rows;
        transpose64(&mut rows);
        for (i, &row) in rows.iter().enumerate() {
            for (j, &column) in original.iter().enumerate() {
                assert_eq!((row >> j) & 1, (column >> i) & 1, "row {i} bit {j}");
            }
        }
    }

    /// Golden snapshots taken on the SoA kernel are byte-identical to
    /// [`BitSim`]'s.
    #[test]
    fn packed_snapshot_matches_bitsim() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 130,
            seed: 23,
            ..Default::default()
        });
        let soa = SoaNetlist::new(&netlist);
        let mut wide = WideSim::<1>::new(&soa);
        let mut scalar = BitSim::new(&netlist);
        let mut a = vec![0u64; soa.packed_net_words()];
        let mut b = vec![0u64; scalar.packed_net_words()];
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for _ in 0..20 {
            let vector: Vec<bool> = (0..netlist.primary_inputs().len())
                .map(|_| rng.gen())
                .collect();
            wide.set_vector_broadcast(&vector);
            wide.settle();
            wide.snapshot_nets_packed(&mut a);
            scalar.set_vector_broadcast(&vector);
            scalar.settle();
            scalar.snapshot_nets_packed(&mut b);
            assert_eq!(a, b);
            wide.clock();
            scalar.clock();
        }
    }

    /// Every gate position is listed once under each distinct net it
    /// reads, and nowhere else.
    #[test]
    fn reader_rows_list_each_reading_gate_once() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 120,
            seed: 31,
            ..Default::default()
        });
        let soa = SoaNetlist::new(&netlist);
        let mut expected = 0;
        for g in gate_ids(&netlist) {
            let pos = soa.pos_of_gate[g.index()];
            let mut inputs = netlist.gate(g).inputs.clone();
            inputs.sort();
            inputs.dedup();
            for net in inputs {
                let readers = soa.readers_of(net.index());
                assert_eq!(readers.iter().filter(|&&r| r == pos).count(), 1);
                expected += 1;
            }
        }
        assert_eq!(soa.readers.len(), expected);
    }

    #[test]
    fn kind_runs_never_cross_levels_and_cover_all_gates() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 200,
            seed: 3,
            ..Default::default()
        });
        let soa = SoaNetlist::new(&netlist);
        let levels = Levelizer::levelize(&netlist);
        let comb_count = netlist.combinational_gates().len();
        assert_eq!(soa.comb.len(), comb_count);
        assert!(soa.comb.run_count() <= comb_count);
        let mut covered = 0usize;
        for run in &soa.comb.runs {
            assert!(run.start < run.end);
            covered += (run.end - run.start) as usize;
            let first = soa.comb.gate_ids[run.start as usize] as usize;
            for pos in run.start..run.end {
                let g = soa.comb.gate_ids[pos as usize] as usize;
                assert_eq!(netlist.gate(GateId(g as u32)).kind, run.kind);
                assert_eq!(
                    levels.level(GateId(g as u32)),
                    levels.level(GateId(first as u32)),
                    "run crosses a level"
                );
            }
        }
        assert_eq!(covered, comb_count);
    }

    #[test]
    fn reset_clears_state_not_forces() {
        let mut b = NetlistBuilder::new("reg");
        let a = b.primary_input("a");
        let q = b.gate(GateKind::Dff, &[a]);
        b.primary_output("q", q);
        let netlist = b.finish().unwrap();
        let q_net = netlist.primary_outputs()[0].1;
        let soa = SoaNetlist::new(&netlist);

        let mut sim = WideSim::<1>::new(&soa);
        sim.force_lanes(q_net, true, 0, 0b1);
        sim.set_vector_broadcast(&[true]);
        sim.settle();
        sim.clock();
        sim.reset();
        sim.settle();
        assert_eq!(sim.flop_word(netlist.sequential_gates()[0], 0), 0);
        // Force survives the reset.
        assert_eq!(sim.output_word(0, 0) & 1, 1);
        sim.clear_forces();
        sim.settle();
        assert_eq!(sim.output_word(0, 0) & 1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn word_out_of_range_panics() {
        let mut b = NetlistBuilder::new("buf");
        let a = b.primary_input("a");
        let z = b.gate(GateKind::Buf, &[a]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();
        let soa = SoaNetlist::new(&netlist);
        let mut sim = WideSim::<2>::new(&soa);
        sim.force_lanes(netlist.primary_outputs()[0].1, true, 2, 1);
    }
}
