//! Fixtures the checkpoint, merge and fsck tests share.

use crate::campaign::{CampaignConfig, UnitOutput};
use crate::checkpoint::{encode_unit, CheckpointHeader};
use crate::fault::FaultList;
use crate::shard::ShardSpec;
use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
use fusa_netlist::Netlist;
use std::path::{Path, PathBuf};

/// `or1200_icfsm` with every gate output faulted, over two workloads of
/// eight vectors.
pub(crate) fn sample_campaign() -> (Netlist, FaultList, WorkloadSuite) {
    let netlist = fusa_netlist::designs::or1200_icfsm();
    let faults = FaultList::all_gate_outputs(&netlist);
    let config = WorkloadConfig {
        num_workloads: 2,
        vectors_per_workload: 8,
        reset_cycles: 0,
        seed: 3,
    };
    let workloads = WorkloadSuite::generate(&netlist, &config);
    (netlist, faults, workloads)
}

/// The checkpoint header of [`sample_campaign`] run as `shard`.
pub(crate) fn sample_header(shard: Option<ShardSpec>) -> CheckpointHeader {
    let (netlist, faults, workloads) = sample_campaign();
    let config = CampaignConfig {
        shard,
        ..Default::default()
    };
    CheckpointHeader::capture(&netlist, &faults, &workloads, &config)
}

/// A fresh, empty directory for one test.
pub(crate) fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fusa_faultsim_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a checkpoint of `header` and the record `output(unit)` of each
/// of `units`.
pub(crate) fn write_checkpoint(
    path: &Path,
    header: &CheckpointHeader,
    units: &[usize],
    output: fn(usize) -> UnitOutput,
) {
    let mut text = header.to_json_line();
    text.push('\n');
    for &unit in units {
        text.push_str(&encode_unit(unit, &output(unit)));
        text.push('\n');
    }
    std::fs::write(path, text).unwrap();
}
