//! Stuck-at fault injection campaigns and criticality dataset generation.
//!
//! This crate is the reproduction's substitute for the commercial fault
//! simulator used in the paper (Cadence Xcelium, §4.1): it enumerates
//! stuck-at-0/1 faults on every gate output ([`FaultList`]), runs each
//! workload against all faults on the wide-lane fault-parallel kernel
//! [`fusa_logicsim::WideSim`], 256 fault machines per pass by default
//! ([`FaultCampaign`]), classifies each (fault, workload) outcome as
//! *Dangerous*, *Latent* or *Benign* ([`FaultOutcome`]), and finally
//! aggregates per-node criticality scores and labels exactly as
//! Algorithm 1 of the paper ([`CriticalityDataset`]). The
//! [`reference`](mod@reference) module holds the independent oracle the
//! campaign kernel is tested against.
//!
//! # Example
//!
//! ```
//! use fusa_faultsim::{CampaignConfig, FaultCampaign, FaultList};
//! use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
//! use fusa_netlist::designs::or1200_icfsm;
//!
//! let netlist = or1200_icfsm();
//! let faults = FaultList::all_gate_outputs(&netlist);
//! let workloads = WorkloadSuite::generate(
//!     &netlist,
//!     &WorkloadConfig { num_workloads: 2, vectors_per_workload: 32, ..Default::default() },
//! );
//! let report = FaultCampaign::new(CampaignConfig::default())
//!     .run(&netlist, &faults, &workloads)
//!     .expect("campaign runs");
//! let dataset = report.into_dataset(0.5);
//! assert_eq!(dataset.scores().len(), netlist.gate_count());
//! ```

pub mod campaign;
pub mod checkpoint;
pub mod dataset;
pub mod durability;
pub mod fault;
pub mod fsck;
pub mod merge;
pub mod reference;
pub mod report;
pub mod seu;
pub mod shard;
#[cfg(test)]
mod test_support;

pub use campaign::{CampaignConfig, FaultCampaign};
pub use checkpoint::{
    read_header, CheckpointError, CheckpointHeader, CHECKPOINT_SCHEMA, CHECKPOINT_SCHEMA_V1,
};
pub use dataset::CriticalityDataset;
pub use durability::{
    CampaignError, DurabilityConfig, FaultInjection, IoRetryPolicy, QuarantinedUnit,
};
pub use fault::{Fault, FaultList, FaultSite, StuckAt};
pub use fsck::{fsck_path, FsckError, FsckIssue, FsckOptions, FsckReport};
pub use merge::{merge_checkpoints, MergeError, MergeOutcome, MergeSource};
pub use report::{CampaignReport, CampaignStats, FaultOutcome, WorkloadReport};
pub use seu::{SeuCampaign, SeuOutcome, SeuReport};
pub use shard::{shard_of, ShardSpec};
