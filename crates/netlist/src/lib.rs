//! Gate-level netlist infrastructure for fault-criticality analysis.
//!
//! This crate is the structural substrate of the DAC'24 reproduction
//! *"Graph Learning-based Fault Criticality Analysis for Enhancing Functional
//! Safety of E/E Systems"*. It provides:
//!
//! * a standard-cell-style [`GateKind`] library (NAND/NOR/AOI/OAI/DFF/…)
//!   with Boolean semantics and structural metadata (arity, inversion tag),
//! * an immutable, validated [`Netlist`] intermediate representation with
//!   single-driver nets, fanout maps, topological levelization and
//!   combinational-loop detection,
//! * a structural-Verilog-subset [`parser`] and [`writer`] so externally
//!   synthesized netlists can be analyzed,
//! * a word-level [`synth`] builder (registers, adders, muxes, comparators,
//!   FSM helpers) used to construct the three benchmark [`designs`]
//!   (SDRAM controller, OR1200 instruction fetch, OR1200 I-cache FSM), and
//! * random netlist generation for property-based testing.
//!
//! # Example
//!
//! ```
//! use fusa_netlist::{designs, NetlistStats};
//!
//! let netlist = designs::sdram_ctrl();
//! let stats = NetlistStats::of(&netlist);
//! assert!(stats.gate_count > 500);
//! assert_eq!(stats.combinational_loops, 0);
//! ```

pub mod builder;
pub mod designs;
pub mod error;
pub mod gate;
pub mod harden;
pub mod netlist;
pub mod parser;
pub mod stats;
pub mod structural;
pub mod synth;
pub mod topo;
pub mod writer;

pub use builder::NetlistBuilder;
pub use error::NetlistError;
pub use gate::{Gate, GateId, GateKind};
pub use netlist::{gate_ids, in_output_cone, net_ids, Driver, Net, NetId, Netlist};
pub use stats::NetlistStats;
pub use structural::{StructuralProfile, TestabilityProfile, SCOAP_INF, SEQUENTIAL_STEP};
pub use synth::{Synth, Word};
pub use topo::{combinational_loops, strongly_connected_components, LevelizedOrder, Levelizer};
