//! Gate-level logic simulation for fault-criticality analysis.
//!
//! Two simulation engines share the levelized evaluation order from
//! [`fusa_netlist`]:
//!
//! * [`Simulator`] — a scalar, three-valued (`0`/`1`/`X`) cycle simulator
//!   with net forcing, used for golden traces, debugging and examples;
//! * [`BitSim`] — a 64-lane bit-parallel simulator (`u64` per net) used in
//!   two modes: *pattern-parallel* (64 input vectors at once, driving the
//!   signal-probability features of §3.1) and *fault-parallel* (64 fault
//!   machines at once, driving the stuck-at campaigns of §3.2).
//!
//! [`workload`] generates the input-vector workloads the paper's fault
//! injection runs against; [`probability`] estimates the intrinsic state
//! and transition probabilities used as GCN node features.
//!
//! # Example
//!
//! ```
//! use fusa_logicsim::{Logic, Simulator};
//! use fusa_netlist::{GateKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), fusa_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("nand");
//! let a = b.primary_input("a");
//! let c = b.primary_input("b");
//! let z = b.gate(GateKind::Nand2, &[a, c]);
//! b.primary_output("z", z);
//! let netlist = b.finish()?;
//!
//! let mut sim = Simulator::new(&netlist);
//! sim.set_inputs(&[Logic::One, Logic::One]);
//! sim.settle();
//! assert_eq!(sim.output_values(), vec![Logic::Zero]);
//! # Ok(())
//! # }
//! ```

pub mod bitsim;
pub mod eval;
pub mod probability;
pub mod sim;
pub mod soa;
pub mod value;
pub mod vcd;
pub mod workload;

pub use bitsim::BitSim;
pub use probability::{SignalStats, SignalStatsConfig};
pub use sim::Simulator;
pub use soa::{SoaNetlist, WideSim};
pub use value::Logic;
pub use vcd::VcdRecorder;
pub use workload::{Workload, WorkloadConfig, WorkloadKind, WorkloadSuite};
