//! Chaos property suite for the storage-fault layer: random injected
//! I/O failures (ENOSPC, EIO, short writes) against the checkpoint
//! append path, across thread counts and resume.
//!
//! The invariant under chaos is two-sided:
//!
//! * a **transient** fault (one failed attempt inside the retry budget)
//!   must be invisible — the run completes, is not degraded, and its
//!   stable summary digests identically to the oracle's
//!   (`fusa_faultsim::reference::stuck_at`);
//! * a **persistent** fault (every attempt fails) must degrade, never
//!   corrupt: the campaign still completes in memory with bit-identical
//!   outcomes, the degradation is flagged in the stable summary, and
//!   `fsck --repair` + `--resume` on the abandoned checkpoint recovers
//!   a run that digests identically to the reference.
//!
//! The injection schedule and the degraded flag are process globals
//! (mirroring the `FUSA_IO_FAIL_*` environment hooks), so every case
//! serializes on [`CHAOS_LOCK`].

use fusa_faultsim::{
    fsck_path, reference, CampaignConfig, CampaignReport, DurabilityConfig, FaultCampaign,
    FaultList, FsckOptions, IoRetryPolicy,
};
use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
use fusa_netlist::designs::{random_netlist, RandomNetlistConfig};
use fusa_netlist::Netlist;
use fusa_obs::{reset_degraded, set_io_fault_injection, IoFaultInjection, IoFaultKind};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Mutex;

/// Serializes every chaos case: the injection schedule and the
/// degraded flag are process globals.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn workloads_for(netlist: &Netlist, seed: u64) -> WorkloadSuite {
    WorkloadSuite::generate(
        netlist,
        &WorkloadConfig {
            num_workloads: 2,
            vectors_per_workload: 16,
            reset_cycles: 0,
            seed,
        },
    )
}

fn chaos_netlist(seed: u64, num_gates: usize) -> Netlist {
    random_netlist(&RandomNetlistConfig {
        seed,
        num_gates,
        num_inputs: 8,
        num_outputs: 6,
        sequential_fraction: 0.2,
        ..Default::default()
    })
}

fn checkpoint_path(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fusa_io_chaos_{tag}_{seed:x}_{}.jsonl",
        std::process::id()
    ))
}

fn kind_from(index: usize) -> IoFaultKind {
    [
        IoFaultKind::Enospc,
        IoFaultKind::Eio,
        IoFaultKind::ShortWrite,
    ][index % 3]
}

/// Arms a checkpoint-targeted schedule; the target filter keeps the op
/// numbering independent of timing-driven status/trace writes.
fn arm(fail_nth: Vec<u64>, fail_every: Option<u64>, kind: IoFaultKind) {
    set_io_fault_injection(Some(IoFaultInjection {
        fail_nth,
        fail_every,
        kind,
        targets: vec!["checkpoint".to_string()],
    }));
}

fn assert_outcomes_identical(
    context: &str,
    reference: &CampaignReport,
    candidate: &CampaignReport,
) {
    let (a, b) = (reference.workload_reports(), candidate.workload_reports());
    assert_eq!(a.len(), b.len(), "{context}: workload count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.outcomes, y.outcomes,
            "{context}: outcomes differ in workload {}",
            x.workload_name
        );
        assert_eq!(
            x.first_divergence, y.first_divergence,
            "{context}: first_divergence differs in workload {}",
            x.workload_name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5 })]

    /// One failed write attempt inside the default retry budget is
    /// invisible: the run completes undegraded and digests identically
    /// to the oracle, whatever the fault kind or thread count — and
    /// whatever torn fragment the failed attempt left behind, `fsck`
    /// can always repair the checkpoint to clean.
    #[test]
    fn transient_write_fault_is_absorbed_by_retry(
        seed in 0u64..1u64 << 48,
        num_gates in 60usize..100,
        fail_op in 2u64..5,
        kind_index in 0usize..3,
        threads in 1usize..4,
    ) {
        let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let netlist = chaos_netlist(seed, num_gates);
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = workloads_for(&netlist, seed ^ 0x5eed);
        let config = CampaignConfig {
            threads,
            ..CampaignConfig::default()
        };

        reset_degraded();
        set_io_fault_injection(None);
        let reference = reference::stuck_at(&netlist, &faults, &workloads, &config);

        let path = checkpoint_path("transient", seed);
        arm(vec![fail_op], None, kind_from(kind_index));
        let chaotic = FaultCampaign::new(config)
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.clone()),
                ..DurabilityConfig::default()
            })
            .run(&netlist, &faults, &workloads)
            .expect("chaotic run completes");
        set_io_fault_injection(None);

        prop_assert!(
            !chaotic.stats().durability_degraded,
            "one transient fault must stay inside the retry budget"
        );
        prop_assert!(
            chaotic.stats().checkpoint_write_retries >= 1,
            "the injected fault was retried"
        );
        assert_outcomes_identical("transient", &reference, &chaotic);
        prop_assert_eq!(
            reference.summary_opts(false),
            chaotic.summary_opts(false),
            "an absorbed fault must not leak into the stable summary"
        );

        // Whatever the failed attempt tore into the file, repair
        // converges to a checkpoint fsck calls clean.
        fsck_path(&path, &FsckOptions { repair: true }).expect("fsck runs");
        let clean = fsck_path(&path, &FsckOptions::default()).expect("re-check");
        prop_assert!(clean.sound(), "post-repair damage: {:?}", clean.issues);
        prop_assert!(clean.issues.is_empty());

        reset_degraded();
        std::fs::remove_file(&path).ok();
    }

    /// A fault that outlives every retry degrades the run but corrupts
    /// nothing: outcomes stay bit-identical, the stable summary flags
    /// the degradation (and only that differs from the reference), and
    /// `fsck --repair` + `--resume` on the abandoned checkpoint
    /// recovers a run that digests identically to the reference.
    #[test]
    fn persistent_write_fault_degrades_then_fsck_and_resume_recover(
        seed in 0u64..1u64 << 48,
        num_gates in 60usize..100,
        fail_every in 2u64..5,
        kind_index in 0usize..3,
        threads in 1usize..4,
    ) {
        let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let netlist = chaos_netlist(seed, num_gates);
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = workloads_for(&netlist, seed ^ 0xdead);
        let config = CampaignConfig {
            threads,
            ..CampaignConfig::default()
        };

        reset_degraded();
        set_io_fault_injection(None);
        let reference = reference::stuck_at(&netlist, &faults, &workloads, &config);

        let path = checkpoint_path("persistent", seed);
        arm(Vec::new(), Some(fail_every), kind_from(kind_index));
        let degraded = FaultCampaign::new(config)
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.clone()),
                // No retries: the first injected fault must escalate,
                // keeping the degradation point deterministic.
                io_retry: IoRetryPolicy::none(),
                ..DurabilityConfig::default()
            })
            .run(&netlist, &faults, &workloads)
            .expect("degraded run still completes in memory");
        set_io_fault_injection(None);

        prop_assert!(
            degraded.stats().durability_degraded,
            "an unretried persistent fault must degrade the run"
        );
        assert_outcomes_identical("degraded", &reference, &degraded);
        let degraded_summary = degraded.summary_opts(false);
        prop_assert!(
            degraded_summary.contains("durability: degraded"),
            "stable summary flags the degradation:\n{degraded_summary}"
        );
        // Only the durability flag may separate the two summaries.
        let strip = |summary: &str| -> Vec<String> {
            summary
                .lines()
                .filter(|line| !line.contains("durability: degraded"))
                .map(str::to_string)
                .collect()
        };
        prop_assert_eq!(
            strip(&degraded_summary),
            strip(&reference.summary_opts(false)),
            "degraded summary differs beyond the durability line"
        );

        // Recovery: repair the abandoned checkpoint, then resume. The
        // header write (op 1) always survives arming at fail_every >= 2,
        // so the file is repairable by construction.
        let fsck = fsck_path(&path, &FsckOptions { repair: true }).expect("fsck runs");
        prop_assert!(fsck.sound(), "unrepaired damage: {:?}", fsck.issues);

        reset_degraded();
        let resumed = FaultCampaign::new(config)
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.clone()),
                resume: true,
                ..DurabilityConfig::default()
            })
            .run(&netlist, &faults, &workloads)
            .expect("resume after repair");
        prop_assert!(!resumed.stats().durability_degraded);
        assert_outcomes_identical("recovered", &reference, &resumed);
        prop_assert_eq!(
            reference.summary_opts(false),
            resumed.summary_opts(false),
            "repair + resume recovers the reference digest"
        );

        reset_degraded();
        std::fs::remove_file(&path).ok();
    }
}
