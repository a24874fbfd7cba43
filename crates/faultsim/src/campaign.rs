//! Fault-parallel campaign execution.
//!
//! The hot path is organized around four classic fault-simulation
//! accelerations, all bit-identical to a naive full-netlist run:
//!
//! * **differential simulation** — a stuck-at fault only perturbs the
//!   part of its fanout its effect actually reaches, so each pass steps
//!   its fault machines as differences from the golden run, which
//!   persist across cycles: a gate is evaluated only when an input
//!   difference changed, or when a golden input its difference reads
//!   toggled while it carries a difference or a fault site
//!   ([`WideSim::settle_diff`]; a register whose enable and reset carry
//!   no difference reads only those two golden inputs); a pass whose
//!   activity grows past a measured break-even share of the gates
//!   (`DENSE_HANDOFF_SHARE`, 0.3) finishes on the full sweep;
//! * **wide lanes** — `LANE_WORDS` (4) consecutive 64-fault chunks of
//!   one workload are packed into the `[u64; 4]` words of a
//!   structure-of-arrays [`WideSim`], so each pass advances up to 256
//!   fault machines through one branch-light sweep over flat tables;
//! * **chunk-grained scheduling** — `(workload × chunk-group)` work items
//!   are pulled from an atomic counter; the golden traces of up to 64
//!   workloads come from one bit-parallel pass, one lane per workload,
//!   are shared read-only by that workload's groups and released when
//!   its last group finishes; results land in per-slot `OnceLock`s
//!   (workers never contend on a lock to publish them); the checkpoint
//!   unit is the `(workload × 64-fault chunk)`, so a resume may complete
//!   a group that a checkpoint holds only in part;
//! * **early exit** — once every lane of every chunk in a group has
//!   diverged for `min_divergent_cycles`, no later cycle can change any
//!   outcome and the group stops stepping.
//!
//! [`crate::reference::stuck_at`] is the independent oracle all of this
//! is checked against: a single-threaded per-gate full sweep with a
//! golden run of its own.

use crate::checkpoint::{self, CheckpointError, CheckpointHeader, CheckpointWriter};
use crate::durability::{
    panic_message, CampaignError, DurabilityConfig, FaultInjection, QuarantinedUnit,
};
use crate::fault::{Fault, FaultList, FaultSite};
use crate::report::{CampaignReport, CampaignStats, FaultOutcome, WorkloadReport};
use crate::shard::ShardSpec;
use fusa_logicsim::soa::{bit_lanes, CycleToggles, ToggleTrace};
use fusa_logicsim::{SoaNetlist, WideSim, Workload, WorkloadSuite};
use fusa_netlist::Netlist;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Faults per chunk — one per lane of the `u64` simulation word. Chunks
/// are the checkpoint unit.
pub(crate) const LANES: usize = u64::BITS as usize;

/// Width of the campaign's simulation word in 64-lane `u64` words: each
/// pass advances up to `64 · LANE_WORDS` = 256 fault machines (or SEU
/// flips) through the structure-of-arrays [`WideSim`] kernel.
pub(crate) const LANE_WORDS: usize = 4;

/// Share of the gate count above which differential stepping costs more
/// than a full sweep: a chunk group whose cycle evaluates more than this
/// share of the gates finishes on the full sweep. Measured on a 2-vCPU
/// Xeon host at 256 lanes, one thread, default configuration:
/// one differential evaluation (event bookkeeping, golden reads, random
/// access) cost 3.2–5.3× a full-sweep gate (26–52 ns against 6.5–12 ns
/// on the built-in designs), so a cycle breaks even at 0.19–0.31 of the
/// gates. At the campaign level 0.2, 0.3 and 0.4 tie on `sdram_ctrl`,
/// `or1200_icfsm` and `uart_ctrl`, where no hand-off is 1.6–2.5×
/// slower; on `or1200_if` 0.4 (47 of 96 groups hand off) and no
/// hand-off tie with or beat 0.3 (72 groups), since its persistent
/// differences cost a sixth of a sweep's evaluations; `synth_10k` never
/// hands off at any share from 0.2 up.
pub(crate) const DENSE_HANDOFF_SHARE: f64 = 0.3;

/// Parameters of a [`FaultCampaign`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Worker threads; `(workload × chunk-group)` work items are
    /// distributed across them. `0` means "one per available CPU".
    pub threads: usize,
    /// Whether to compare register state at workload end to distinguish
    /// latent faults from benign ones (slightly more work per workload).
    pub classify_latent: bool,
    /// Minimum fraction of workload cycles with a diverging primary
    /// output for a fault to be classified Dangerous in that workload.
    /// `0.0` reduces to classic detection (any single mismatch). The
    /// paper's criticality framing ("functional errors for more than X%
    /// of the time") motivates a small nonzero rate: transient one-cycle
    /// glitches are below the functional-safety concern threshold.
    pub min_divergence_fraction: f64,
    /// Evaluate only what the faults can disturb: differential stepping
    /// against the golden trace (gates whose input differences changed,
    /// or whose golden inputs toggled under a difference or a fault
    /// site; a register whose enable and reset carry no difference
    /// reads only those two golden inputs),
    /// handing a pass off to the full sweep once it stops paying.
    /// Bit-identical to a full-netlist run; `false` sweeps the full
    /// netlist every cycle, the in-kernel reference of `--no-cone`.
    pub restrict_to_cone: bool,
    /// Restrict the campaign to the units owned by one shard of an
    /// `n`-way split (`--shard i/n`). Ownership is a digest-stable
    /// function of the unit index alone (see [`ShardSpec::owns`]), so
    /// shards can run on different hosts with different `threads`
    /// settings and still merge bit-identically via
    /// [`crate::merge`]. `None` runs the full campaign.
    pub shard: Option<ShardSpec>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            threads: 0,
            classify_latent: true,
            min_divergence_fraction: 0.0,
            restrict_to_cone: true,
            shard: None,
        }
    }
}

/// Runs stuck-at campaigns: every fault in a [`FaultList`] against every
/// workload of a [`WorkloadSuite`], 256 fault machines per simulation
/// pass.
///
/// For each workload the golden (fault-free) trace is computed once and
/// shared read-only; fault machines then run the same vectors with
/// per-lane stuck-at forces and are compared lane-wise against the golden
/// values each cycle. Results are deterministic and independent of
/// `threads` and `restrict_to_cone`.
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Debug, Clone, Default)]
pub struct FaultCampaign {
    config: CampaignConfig,
    durability: DurabilityConfig,
    injection: FaultInjection,
}

/// Golden (fault-free) reference of one workload, shared read-only
/// across that workload's chunk units. The workload's golden machine is
/// one lane of a bit-parallel pass, so everything is kept at one bit per
/// value.
pub(crate) struct GoldenTrace {
    /// Bit-per-output values of every settled cycle, cycle-major.
    outputs: Vec<u64>,
    /// Words per cycle in `outputs`.
    output_words: usize,
    /// Bit-per-net snapshot of every settled cycle, cycle-major; empty
    /// unless `restrict_to_cone` is on.
    packed_nets: Vec<u64>,
    /// Words per cycle in `packed_nets`.
    packed_words: usize,
    /// The golden toggles of every cycle, as the nonzero words of its
    /// position, reset and net toggle sets
    /// ([`SoaNetlist::toggle_trace`]; none in cycle 0). Built from
    /// `packed_nets` by the first group that steps a cycle after cycle 0
    /// differentially, so only the workloads in flight that read them
    /// hold them.
    toggles: OnceLock<ToggleTrace>,
    /// Golden end-of-workload flop state, one bit per flip-flop in
    /// [`Netlist::sequential_gates`] order; empty unless
    /// `classify_latent` is on.
    final_state: Vec<u64>,
}

impl GoldenTrace {
    /// Golden lanes of the `slot`-th primary output in `cycle`.
    pub(crate) fn output_lanes(&self, cycle: usize, slot: usize) -> u64 {
        bit_lanes(&self.outputs[cycle * self.output_words..], slot)
    }

    /// Golden flop state at workload end, one bit per flip-flop in
    /// [`Netlist::sequential_gates`] order.
    pub(crate) fn final_state(&self) -> &[u64] {
        &self.final_state
    }

    /// The golden toggles of every cycle.
    fn toggles(&self, soa: &SoaNetlist) -> &ToggleTrace {
        self.toggles.get_or_init(|| {
            fusa_obs::global()
                .time_rooted("campaign/golden", || soa.toggle_trace(&self.packed_nets))
        })
    }

    /// The golden traces of `workloads`, one `WideSim<1>` pass per 64 of
    /// them.
    pub(crate) fn compute_all(
        soa: &SoaNetlist,
        workloads: &[&Workload],
        config: &CampaignConfig,
    ) -> Vec<GoldenTrace> {
        workloads
            .chunks(LANES)
            .flat_map(|batch| GoldenTrace::compute_batch(soa, batch, config))
            .collect()
    }

    /// The golden traces of up to 64 workloads from one `WideSim<1>`
    /// pass, lane `i` running `batch[i]`. Shorter workloads stop being
    /// recorded after their last cycle; each final state is taken right
    /// after that workload's own last clock edge.
    fn compute_batch(
        soa: &SoaNetlist,
        batch: &[&Workload],
        config: &CampaignConfig,
    ) -> Vec<GoldenTrace> {
        debug_assert!(batch.len() <= LANES);
        let output_words = soa.output_count().div_ceil(64);
        let packed_words = soa.packed_net_words();
        let cone = config.restrict_to_cone;
        let mut traces: Vec<GoldenTrace> = batch
            .iter()
            .map(|workload| GoldenTrace {
                outputs: vec![0; workload.len() * output_words],
                output_words,
                packed_nets: Vec::with_capacity(if cone {
                    workload.len() * packed_words
                } else {
                    0
                }),
                packed_words,
                toggles: OnceLock::new(),
                final_state: if config.classify_latent {
                    vec![0; soa.seq_count().div_ceil(64)]
                } else {
                    Vec::new()
                },
            })
            .collect();
        let mut golden = WideSim::<1>::new(soa);
        let mut drive = vec![0u64; soa.input_count()];
        let mut snapshots = vec![0u64; if cone { LANES * packed_words } else { 0 }];
        let cycles = batch.iter().map(|w| w.len()).max().unwrap_or(0);
        for cycle in 0..cycles {
            drive.fill(0);
            for (lane, workload) in batch.iter().enumerate() {
                if let Some(vector) = workload.vectors.get(cycle) {
                    assert_eq!(vector.len(), drive.len(), "one bit per primary input");
                    for (word, &bit) in drive.iter_mut().zip(vector) {
                        *word |= u64::from(bit) << lane;
                    }
                }
            }
            golden.set_input_lanes(&drive);
            golden.settle();
            if cone {
                golden.snapshot_lanes_packed(&mut snapshots);
            }
            for (lane, (trace, workload)) in traces.iter_mut().zip(batch).enumerate() {
                if cycle >= workload.len() {
                    continue;
                }
                let row = &mut trace.outputs[cycle * output_words..][..output_words];
                for o in 0..soa.output_count() {
                    row[o >> 6] |= ((golden.output_word(o, 0) >> lane) & 1) << (o & 63);
                }
                if cone {
                    trace
                        .packed_nets
                        .extend_from_slice(&snapshots[lane * packed_words..][..packed_words]);
                }
            }
            golden.clock();
            if config.classify_latent {
                for (lane, (trace, workload)) in traces.iter_mut().zip(batch).enumerate() {
                    if workload.len() == cycle + 1 {
                        for s in 0..soa.seq_count() {
                            trace.final_state[s >> 6] |=
                                ((golden.state_word(s, 0) >> lane) & 1) << (s & 63);
                        }
                    }
                }
            }
        }
        traces
    }
}

/// Result of one `(workload × chunk)` unit.
#[derive(Debug, PartialEq)]
pub(crate) struct UnitOutput {
    pub(crate) outcomes: Vec<FaultOutcome>,
    pub(crate) first_divergence: Vec<Option<u32>>,
    pub(crate) stepped_fault_cycles: u64,
    pub(crate) gate_evals: u64,
}

/// A campaign as [`FaultCampaign::plan`] lays it out before anything is
/// simulated, with the result slots and counters the workers fill in.
struct Plan<'a> {
    config: CampaignConfig,
    workloads: &'a [Workload],
    faults: &'a [Fault],
    chunk_count: usize,
    units_in_shard: usize,
    units_from_checkpoint: usize,
    /// One slot per unit: the plan fills the checkpointed units, the
    /// workers the rest.
    results: Vec<OnceLock<UnitOutput>>,
    /// Work items: a workload and the pending units of one of its chunk
    /// groups (`LANE_WORDS` consecutive chunks), in claim order.
    pending: Vec<(usize, Vec<usize>)>,
    writer: Option<CheckpointWriter>,
    /// The checkpoint could not be opened: degraded from the first unit.
    checkpoint_lost: bool,
    tally: Tally,
}

/// What the workers count, for assembly.
#[derive(Default)]
struct Tally {
    retries: AtomicU64,
    dense_handoffs: AtomicU64,
    quarantined: Mutex<Vec<QuarantinedUnit>>,
}

/// The state a campaign's workers share.
struct Work<'a> {
    plan: &'a Plan<'a>,
    soa: &'a SoaNetlist,
    /// The golden trace of each workload with pending groups, dropped
    /// when its last group ends.
    golden: Vec<Mutex<Option<Arc<GoldenTrace>>>>,
    /// Groups not yet finished, per workload.
    groups_left: Vec<AtomicUsize>,
    /// The next pending group to claim.
    next: AtomicUsize,
    /// Units this run completed, counted for the injected interruptions.
    done: AtomicUsize,
    /// The interruption flag: set, the workers drain and stop.
    stop: &'a AtomicBool,
    injection: FaultInjection,
    /// Attempts per unit of a panicking group before quarantine.
    max_attempts: u32,
    progress: &'a fusa_obs::Progress,
}

impl FaultCampaign {
    /// Creates a campaign runner with the given configuration.
    pub fn new(config: CampaignConfig) -> Self {
        FaultCampaign {
            config,
            durability: DurabilityConfig::default(),
            injection: FaultInjection::default(),
        }
    }

    /// Sets the durability policy (checkpointing, resume, retries,
    /// interruption flag).
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Arms deterministic fault-injection hooks (tests only). When left
    /// at the no-op default, hooks are read from the `FUSA_CAMPAIGN_*`
    /// environment variables instead.
    pub fn with_injection(mut self, injection: FaultInjection) -> Self {
        self.injection = injection;
        self
    }

    /// Executes the campaign and returns the full report.
    ///
    /// A panic inside a pass splits its group: each member unit is
    /// re-run alone, one chunk per pass, so one poisoned chunk never
    /// takes its groupmates down with it. A unit that panics is retried
    /// up to [`DurabilityConfig::max_unit_retries`] times on a fresh
    /// simulator and then quarantined (its faults stay `Benign` and the
    /// unit is listed in [`CampaignReport::quarantined`]). When the
    /// durability interrupt flag is set mid-run, in-flight work drains,
    /// the checkpoint is flushed and the partial report is returned with
    /// [`CampaignReport::interrupted`] set.
    pub fn run(
        &self,
        netlist: &Netlist,
        faults: &FaultList,
        workloads: &WorkloadSuite,
    ) -> Result<CampaignReport, CampaignError> {
        let obs = fusa_obs::global();
        let _span = obs.span("campaign");
        let start = Instant::now();
        let plan = self.plan(netlist, faults, workloads)?;
        let threads = match self.config.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads => threads,
        };
        let workers = threads.clamp(1, plan.pending.len().max(1));
        // Heartbeat over the unit work queue; a disabled no-op handle
        // unless a sink is attached or `--progress` enabled stderr.
        // Totals include checkpointed units so a resumed run reports
        // done-including-checkpointed progress; a sharded run counts
        // only the units this shard owns.
        let progress = fusa_obs::Progress::start(
            obs,
            "campaign",
            "units",
            plan.units_in_shard as u64,
            fusa_obs::ProgressConfig::default(),
        );
        progress.advance(plan.units_from_checkpoint as u64);
        progress.set_workers(workers as u64);
        // Injected interruptions without an external flag land here so
        // library tests never touch process-global state.
        let local = AtomicBool::new(false);
        let stop = self.durability.interrupt.unwrap_or(&local);
        let busy = if plan.pending.is_empty() {
            vec![0.0; workers]
        } else {
            self.work(&plan, netlist, workers, stop, &progress)
        };
        let interrupted = stop.load(Ordering::Acquire);
        plan.assemble(netlist, faults, busy, interrupted, start)
    }

    /// Validates the configuration, reads the checkpoint into the result
    /// slots on resume (a header mismatch is a hard error), opens its
    /// writer (an open failure degrades the run) and lists the pending
    /// groups: the units this shard owns that no checkpoint holds.
    fn plan<'a>(
        &self,
        netlist: &Netlist,
        faults: &'a FaultList,
        workloads: &'a WorkloadSuite,
    ) -> Result<Plan<'a>, CampaignError> {
        let config = self.config;
        if let Some(shard) = config.shard {
            if shard.total == 0 || shard.index == 0 || shard.index > shard.total {
                return Err(CampaignError::InvalidShard {
                    index: shard.index,
                    total: shard.total,
                });
            }
        }
        let chunk_count = faults.len().div_ceil(LANES);
        let unit_count = workloads.len() * chunk_count;
        let mut plan = Plan {
            config,
            workloads: workloads.workloads(),
            faults: faults.faults(),
            chunk_count,
            units_in_shard: 0,
            units_from_checkpoint: 0,
            results: (0..unit_count).map(|_| OnceLock::new()).collect(),
            pending: Vec::new(),
            writer: None,
            checkpoint_lost: false,
            tally: Tally::default(),
        };
        plan.units_in_shard = (0..unit_count).filter(|&unit| plan.owns(unit)).count();

        let durability = &self.durability;
        if let Some(path) = &durability.checkpoint {
            let header = fusa_obs::global().time_rooted("campaign/header", || {
                CheckpointHeader::capture(netlist, faults, workloads, &config)
            });
            if durability.resume {
                let units = fusa_obs::global().time_rooted("campaign/replay", || {
                    let scan = checkpoint::scan(path)?;
                    scan.header.check_compatible(&header)?;
                    Ok::<_, CheckpointError>(scan.units)
                })?;
                plan.units_from_checkpoint = units.len();
                for (unit, output) in units {
                    plan.results[unit] = OnceLock::from(output);
                }
            }
            let opened = if durability.resume {
                CheckpointWriter::append_to(path)
            } else {
                CheckpointWriter::create(path, &header)
            };
            match opened {
                Ok(mut writer) => {
                    writer.set_retry_policy(durability.io_retry);
                    plan.writer = Some(writer);
                }
                Err(e) => {
                    eprintln!("fusa-faultsim: {e}; continuing degraded without checkpointing");
                    fusa_obs::mark_degraded(&e.to_string());
                    plan.checkpoint_lost = true;
                }
            }
        } else if durability.resume {
            return Err(CampaignError::ResumeWithoutCheckpoint);
        }

        for w in 0..plan.workloads.len() {
            for first in (0..chunk_count).step_by(LANE_WORDS) {
                let members: Vec<usize> = (first..chunk_count.min(first + LANE_WORDS))
                    .map(|c| w * chunk_count + c)
                    .filter(|&unit| plan.owns(unit) && plan.results[unit].get().is_none())
                    .collect();
                if !members.is_empty() {
                    plan.pending.push((w, members));
                }
            }
        }
        Ok(plan)
    }

    /// Builds the tables and the golden traces of the workloads with
    /// pending groups, then runs `workers` workers over those groups and
    /// returns their busy seconds.
    fn work(
        &self,
        plan: &Plan<'_>,
        netlist: &Netlist,
        workers: usize,
        stop: &AtomicBool,
        progress: &fusa_obs::Progress,
    ) -> Vec<f64> {
        // The flat tables behind the golden traces and every wide
        // simulator, built once.
        let soa = SoaNetlist::new(netlist);
        let mut groups_left = vec![0usize; plan.workloads.len()];
        for (w, _) in &plan.pending {
            groups_left[*w] += 1;
        }
        // The golden traces of the workloads with pending groups, 64
        // workloads per pass.
        let traced: Vec<usize> = (0..groups_left.len())
            .filter(|&w| groups_left[w] > 0)
            .collect();
        let traces = fusa_obs::global().time_rooted("campaign/golden", || {
            let workloads: Vec<&Workload> = traced.iter().map(|&w| &plan.workloads[w]).collect();
            GoldenTrace::compute_all(&soa, &workloads, &plan.config)
        });
        let mut golden: Vec<Option<Arc<GoldenTrace>>> = vec![None; groups_left.len()];
        for (w, trace) in traced.into_iter().zip(traces) {
            golden[w] = Some(Arc::new(trace));
        }
        let work = Work {
            plan,
            soa: &soa,
            golden: golden.into_iter().map(Mutex::new).collect(),
            groups_left: groups_left.into_iter().map(AtomicUsize::new).collect(),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            stop,
            injection: if self.injection.is_noop() {
                FaultInjection::from_env()
            } else {
                self.injection.clone()
            },
            max_attempts: self.durability.max_unit_retries.saturating_add(1),
            progress,
        };
        let mut busy = vec![0.0f64; workers];
        let work = &work;
        std::thread::scope(|scope| {
            for slot in busy.iter_mut() {
                scope.spawn(move || *slot = worker(work));
            }
        });
        busy
    }
}

impl<'a> Plan<'a> {
    /// Shard ownership of a unit is a pure function of the unit index,
    /// so scheduling, resumption and assembly all agree on which units
    /// this process is responsible for.
    fn owns(&self, unit: usize) -> bool {
        self.config.shard.is_none_or(|shard| shard.owns(unit))
    }

    /// The faults of `unit`'s chunk.
    fn chunk(&self, unit: usize) -> &'a [Fault] {
        let c = unit % self.chunk_count;
        &self.faults[c * LANES..self.faults.len().min((c + 1) * LANES)]
    }

    /// Folds the result slots into per-workload reports and the run's
    /// statistics.
    fn assemble(
        mut self,
        netlist: &Netlist,
        faults: &FaultList,
        busy: Vec<f64>,
        interrupted: bool,
        start: Instant,
    ) -> Result<CampaignReport, CampaignError> {
        let tally = &mut self.tally;
        let quarantined = std::mem::take(tally.quarantined.get_mut().expect("quarantine poisoned"));
        let writer = self.writer.as_ref();
        let mut stats = CampaignStats {
            threads: busy.len(),
            units: self.results.len(),
            units_in_shard: self.units_in_shard,
            units_from_checkpoint: self.units_from_checkpoint,
            units_quarantined: quarantined.len(),
            unit_retries: *tally.retries.get_mut(),
            checkpoint_write_retries: writer.map_or(0, |w| w.write_retries()),
            durability_degraded: self.checkpoint_lost || writer.is_some_and(|w| w.degraded()),
            dense_handoffs: *tally.dense_handoffs.get_mut(),
            ..CampaignStats::default()
        };
        let mut workload_reports = Vec::with_capacity(self.workloads.len());
        for (w, workload) in self.workloads.iter().enumerate() {
            let mut outcomes = vec![FaultOutcome::Benign; self.faults.len()];
            let mut first_divergence: Vec<Option<u32>> = vec![None; self.faults.len()];
            for c in 0..self.chunk_count {
                let unit = w * self.chunk_count + c;
                let Some(output) = self.results[unit].get() else {
                    // Another shard's unit keeps the Benign default until
                    // `fusa merge` unions the shard checkpoints; so does a
                    // quarantined one, which the report lists.
                    if !self.owns(unit) || quarantined.iter().any(|q| q.unit == unit) {
                        continue;
                    }
                    if interrupted {
                        stats.units_skipped += 1;
                        continue;
                    }
                    return Err(CampaignError::MissingUnit {
                        unit,
                        workload: workload.name.clone(),
                        chunk: c,
                    });
                };
                let base = c * LANES;
                outcomes[base..base + output.outcomes.len()].copy_from_slice(&output.outcomes);
                first_divergence[base..base + output.first_divergence.len()]
                    .copy_from_slice(&output.first_divergence);
                stats.fault_cycles += output.outcomes.len() as u64 * workload.len() as u64;
                stats.stepped_fault_cycles += output.stepped_fault_cycles;
                stats.gate_evals += output.gate_evals;
            }
            workload_reports.push(WorkloadReport {
                workload_name: workload.name.clone(),
                outcomes,
                first_divergence,
            });
        }
        // A full settle+clock evaluates every gate exactly once
        // (combinational evals plus flop updates), so the per-cycle
        // full-run cost is simply the gate count.
        stats.gate_evals_full = netlist.gate_count() as u64
            * self.chunk_count as u64
            * self.workloads.iter().map(|w| w.len() as u64).sum::<u64>();
        stats.wall_seconds = start.elapsed().as_secs_f64();
        stats.worker_busy_seconds = busy;
        stats.publish(fusa_obs::global());

        Ok(CampaignReport {
            faults: faults.clone(),
            gate_count: netlist.gate_count(),
            workload_reports,
            stats,
            interrupted,
            quarantined,
            shard: self.config.shard,
        })
    }
}

/// One worker: claims pending groups until none is left or a stop is
/// requested, and returns its busy seconds.
fn worker(work: &Work<'_>) -> f64 {
    let obs = fusa_obs::global();
    let mut sim = WideSim::<LANE_WORDS>::new(work.soa);
    let mut busy = 0.0;
    // Thread-local latency/work histograms, merged into the recorder
    // once per worker so the hot loop stays lock-free.
    let mut unit_seconds = fusa_obs::Histogram::new();
    let mut unit_gate_evals = fusa_obs::Histogram::new();
    while !work.stop.load(Ordering::Acquire) {
        let claimed = work.next.fetch_add(1, Ordering::Relaxed);
        let Some((w, members)) = work.plan.pending.get(claimed) else {
            break;
        };
        let begun = Instant::now();
        let trace = work.golden[*w]
            .lock()
            .expect("golden traces poisoned")
            .clone()
            .expect("traced before its groups run");
        let outputs = work.run_group(&mut sim, &work.plan.workloads[*w], members, &trace);
        // The workload's last group frees its trace; the count only
        // elects who takes the slot, the `Arc` keeps the trace alive for
        // any group still holding it.
        drop(trace);
        if work.groups_left[*w].fetch_sub(1, Ordering::AcqRel) == 1 {
            work.golden[*w]
                .lock()
                .expect("golden traces poisoned")
                .take();
        }
        let elapsed = begun.elapsed().as_secs_f64();
        busy += elapsed;
        work.progress.add_busy_seconds(elapsed);
        let per_member = elapsed / members.len() as f64;
        // Record the group member by member, in the checkpoint and the
        // result slots, until a stop is requested: members not yet
        // recorded stay pending, and a resume runs them again. One span
        // per group, not per record: a span takes the recorder's lock.
        let writer = work.plan.writer.as_ref();
        let _checkpoint = writer.map(|_| obs.span_rooted("campaign/checkpoint"));
        for (&unit, output) in members.iter().zip(outputs) {
            if let Some(output) = output {
                unit_gate_evals.observe(output.gate_evals as f64);
                work.progress.add_work(output.stepped_fault_cycles);
                if let Some(writer) = writer {
                    writer.record(unit, &output);
                }
                let stored = work.plan.results[unit].set(output);
                debug_assert!(stored.is_ok(), "unit {unit} simulated once");
                let done = work.done.fetch_add(1, Ordering::Relaxed) + 1;
                if work.injection.interrupt_after_units == Some(done) {
                    work.stop.store(true, Ordering::Release);
                }
                if work.injection.sigterm_after_units == Some(done) {
                    fusa_obs::raise_shutdown_signal();
                }
            } else {
                // The unit exhausted its retry budget and was
                // quarantined; surface it on the live status heartbeat.
                work.progress.add_quarantined(1);
            }
            unit_seconds.observe(per_member);
            work.progress.advance(1);
            if work.stop.load(Ordering::Acquire) {
                break;
            }
        }
    }
    if unit_seconds.count() > 0 {
        obs.observe_merged("campaign.unit_seconds", &unit_seconds);
        obs.observe_merged("campaign.unit_gate_evals", &unit_gate_evals);
    }
    busy
}

impl<'a> Work<'a> {
    /// Simulates the `members` of one chunk group of `workload` in one
    /// pass; `None` marks a quarantined member.
    ///
    /// A panic splits the group: each member is re-run alone, one chunk
    /// per pass, with its own fresh retry budget so one poisoned chunk
    /// cannot quarantine its groupmates. The group attempt is not a
    /// retry.
    fn run_group(
        &self,
        sim: &mut WideSim<'a, LANE_WORDS>,
        workload: &Workload,
        members: &[usize],
        trace: &GoldenTrace,
    ) -> Vec<Option<UnitOutput>> {
        let chunks: Vec<&[Fault]> = members.iter().map(|&unit| self.plan.chunk(unit)).collect();
        let inject = members
            .iter()
            .any(|&unit| self.injection.should_panic(unit, 1))
            .then(|| format!("injected unit fault (wide group, units {members:?})"));
        match self.attempt(sim, &chunks, workload, trace, inject) {
            Ok(outputs) => outputs.into_iter().map(Some).collect(),
            Err(_) => members
                .iter()
                .zip(&chunks)
                .map(|(&unit, chunk)| self.retry(sim, unit, chunk, workload, trace))
                .collect(),
        }
    }

    /// Runs `unit` alone until an attempt succeeds, or quarantines it
    /// (`None`) once `max_attempts` attempts have panicked.
    fn retry(
        &self,
        sim: &mut WideSim<'a, LANE_WORDS>,
        unit: usize,
        chunk: &[Fault],
        workload: &Workload,
        trace: &GoldenTrace,
    ) -> Option<UnitOutput> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let inject = self
                .injection
                .should_panic(unit, attempt)
                .then(|| format!("injected unit fault (unit {unit}, attempt {attempt})"));
            let payload = match self.attempt(sim, &[chunk], workload, trace, inject) {
                Ok(mut output) => return output.pop(),
                Err(payload) => payload,
            };
            if attempt >= self.max_attempts {
                let quarantined = QuarantinedUnit {
                    unit,
                    workload: workload.name.clone(),
                    chunk: unit % self.plan.chunk_count,
                    attempts: attempt,
                    panic_message: panic_message(payload.as_ref()),
                };
                self.plan
                    .tally
                    .quarantined
                    .lock()
                    .expect("quarantine poisoned")
                    .push(quarantined);
                return None;
            }
            self.plan.tally.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One pass over `chunks` under `catch_unwind`, after panicking with
    /// `inject` when it is set. A panic leaves the simulator in an
    /// unknown state, so it is rebuilt.
    fn attempt(
        &self,
        sim: &mut WideSim<'a, LANE_WORDS>,
        chunks: &[&[Fault]],
        workload: &Workload,
        trace: &GoldenTrace,
        inject: Option<String>,
    ) -> std::thread::Result<Vec<UnitOutput>> {
        let attempted = catch_unwind(AssertUnwindSafe(|| {
            if let Some(message) = inject {
                panic!("{message}");
            }
            // Rooted spans: workers run on fresh threads with empty span
            // stacks, so fixed paths keep the breakdown identical across
            // thread counts.
            let (outputs, dense_handoff) = fusa_obs::global().time_rooted("campaign/units", || {
                run_wide_group(sim, chunks, workload, trace, &self.plan.config)
            });
            let handoffs = &self.plan.tally.dense_handoffs;
            handoffs.fetch_add(u64::from(dense_handoff), Ordering::Relaxed);
            outputs
        }));
        if attempted.is_err() {
            *sim = WideSim::new(self.soa);
        }
        attempted
    }
}

/// Forces the faults of `chunks[i]` into word `i` of `sim`, one per
/// lane, and returns each word's mask of lanes that hold a fault.
fn force_chunks(sim: &mut WideSim<'_, LANE_WORDS>, chunks: &[&[Fault]]) -> [u64; LANE_WORDS] {
    sim.clear_forces();
    let mut valid = [0u64; LANE_WORDS];
    for (co, chunk) in chunks.iter().enumerate() {
        valid[co] = u64::MAX >> (LANES - chunk.len());
        for (lane, fault) in chunk.iter().enumerate() {
            let (value, lanes) = (fault.stuck_at.value(), 1u64 << lane);
            match fault.site {
                FaultSite::Output => sim.force_lanes(fault.net, value, co, lanes),
                FaultSite::InputPin(pin) => sim.force_pin_lanes(fault.gate, pin, value, co, lanes),
            }
        }
    }
    valid
}

/// Simulates up to `LANE_WORDS` 64-fault chunks of one workload in a
/// single wide pass: chunk `i` occupies word `i`, every word shares the
/// broadcast inputs and the golden trace, and each member's lanes are
/// classified exactly as [`crate::reference::stuck_at`] classifies
/// them. Returns one output per member, and whether the pass finished
/// on the full sweep.
///
/// With `restrict_to_cone` the pass steps differentially against the
/// golden snapshots and toggles, where a differing output net *is* a
/// mismatch, until the first cycle that evaluates more than
/// [`DENSE_HANDOFF_SHARE`] of the gates; from the next cycle on it
/// sweeps the full netlist, with register state loaded as golden XOR
/// difference. Cycle 0 reads no toggles, so a pass that hands off after
/// it never builds the workload's toggle trace.
///
/// Early exit fires only when *every* member is fully decided; a word
/// that is decided earlier keeps stepping harmlessly (its Dangerous
/// verdicts are monotone and its first-divergence cycles are already
/// fixed), so per-lane outcomes stay bit-identical to a single-chunk
/// pass.
fn run_wide_group(
    sim: &mut WideSim<'_, LANE_WORDS>,
    chunks: &[&[Fault]],
    workload: &Workload,
    trace: &GoldenTrace,
    config: &CampaignConfig,
) -> (Vec<UnitOutput>, bool) {
    let members = chunks.len();
    debug_assert!(0 < members && members <= LANE_WORDS);
    let output_count = sim.soa().output_count();
    let min_divergent_cycles =
        ((config.min_divergence_fraction * workload.len() as f64).ceil() as u32).max(1);
    let valid = force_chunks(sim, chunks);
    // Whether the pass still steps differentially.
    let mut differential = config.restrict_to_cone;
    if differential {
        sim.reset_diff();
    } else {
        sim.reset();
    }

    let full_evals = sim.soa().full_evals_per_cycle();
    let handoff_evals = (DENSE_HANDOFF_SHARE * full_evals as f64) as u64;
    let words = trace.packed_words;
    let mut dense_handoff = false;
    let mut diverged = [0u64; LANE_WORDS];
    let mut satisfied = [0u64; LANE_WORDS];
    let mut divergent_cycles = vec![0u32; members * LANES];
    let mut first_divergence: Vec<Vec<Option<u32>>> =
        chunks.iter().map(|chunk| vec![None; chunk.len()]).collect();
    let mut cycles_stepped = 0u64;
    let mut gate_evals = 0u64;

    for (cycle, vector) in workload.vectors.iter().enumerate() {
        let mut mismatch = [0u64; LANE_WORDS];
        if differential {
            let toggles = match cycle {
                0 => CycleToggles::default(),
                _ => trace.toggles(sim.soa()).cycle(cycle),
            };
            let golden = &trace.packed_nets[cycle * words..][..words];
            let mut evals = sim.settle_diff(golden, toggles);
            mismatch = sim.output_mismatch();
            evals += sim.clock_diff(golden);
            gate_evals += evals;
            if evals > handoff_evals && cycle + 1 < workload.len() {
                sim.end_diff(&trace.packed_nets[(cycle + 1) * words..][..words]);
                differential = false;
                dense_handoff = true;
            }
        } else {
            sim.set_vector_broadcast(vector);
            sim.settle();
            for o in 0..output_count {
                let golden = trace.output_lanes(cycle, o);
                for (co, word) in mismatch.iter_mut().enumerate().take(members) {
                    *word |= sim.output_word(o, co) ^ golden;
                }
            }
            sim.clock();
            gate_evals += full_evals;
        }
        cycles_stepped += 1;
        let mut all_satisfied = true;
        for co in 0..members {
            let mm = mismatch[co] & valid[co];
            if mm != 0 {
                let newly = mm & !diverged[co];
                let mut remaining = newly;
                while remaining != 0 {
                    let lane = remaining.trailing_zeros() as usize;
                    remaining &= remaining - 1;
                    first_divergence[co][lane] = Some(cycle as u32);
                }
                diverged[co] |= newly;
                let mut counting = mm;
                while counting != 0 {
                    let lane = counting.trailing_zeros() as usize;
                    counting &= counting - 1;
                    let cell = &mut divergent_cycles[co * LANES + lane];
                    *cell += 1;
                    if *cell == min_divergent_cycles {
                        satisfied[co] |= 1u64 << lane;
                    }
                }
            }
            all_satisfied &= satisfied[co] == valid[co];
        }
        if all_satisfied {
            break;
        }
    }

    // Latent sweep: one pass over the register words serves every
    // member, skipped when every member is fully Dangerous (Dangerous
    // takes priority). Differential state already is the difference
    // from the golden final state.
    let undecided = (0..members).any(|co| satisfied[co] != valid[co]);
    let state_differs = if config.classify_latent && undecided {
        sim.state_mismatch((!differential).then_some(trace.final_state()))
    } else {
        [0; LANE_WORDS]
    };
    let outputs = chunks
        .iter()
        .zip(first_divergence)
        .enumerate()
        .map(|(co, (chunk, first_divergence))| {
            let latent = diverged[co] | state_differs[co];
            let outcome = |lane: usize| match 1u64 << lane {
                mask if satisfied[co] & mask != 0 => FaultOutcome::Dangerous,
                mask if latent & mask != 0 => FaultOutcome::Latent,
                _ => FaultOutcome::Benign,
            };
            // Gate evaluations are shared by every word of the pass, so
            // they are attributed evenly (remainder to the first members,
            // keeping the sum exact and deterministic).
            let (share, extra) = (gate_evals / members as u64, gate_evals % members as u64);
            UnitOutput {
                outcomes: (0..chunk.len()).map(outcome).collect(),
                first_divergence,
                stepped_fault_cycles: chunk.len() as u64 * cycles_stepped,
                gate_evals: share + u64::from((co as u64) < extra),
            }
        })
        .collect();
    (outputs, dense_handoff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StuckAt;
    use fusa_logicsim::{WorkloadConfig, WorkloadKind};
    use fusa_netlist::{GateKind, NetlistBuilder};

    fn inverter_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("inv");
        let a = b.primary_input("a");
        let z = b.gate(GateKind::Inv, &[a]);
        b.primary_output("z", z);
        b.finish().unwrap()
    }

    fn tiny_suite(netlist: &Netlist, n: usize, len: usize) -> WorkloadSuite {
        WorkloadSuite::generate(
            netlist,
            &WorkloadConfig {
                num_workloads: n,
                vectors_per_workload: len,
                reset_cycles: 0,
                seed: 42,
            },
        )
    }

    /// One workload's trace from a broadcast `WideSim<1>` run of its own:
    /// outputs, packed net snapshots and final flop state.
    fn broadcast_trace(soa: &SoaNetlist, workload: &Workload) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let mut sim = WideSim::<1>::new(soa);
        let output_words = soa.output_count().div_ceil(64);
        let mut outputs = vec![0u64; workload.len() * output_words];
        let mut packed = vec![0u64; workload.len() * soa.packed_net_words()];
        for (cycle, vector) in workload.vectors.iter().enumerate() {
            sim.set_vector_broadcast(vector);
            sim.settle();
            for o in 0..soa.output_count() {
                outputs[cycle * output_words + (o >> 6)] |= (sim.output_word(o, 0) & 1) << (o & 63);
            }
            sim.snapshot_nets_packed(
                &mut packed[cycle * soa.packed_net_words()..][..soa.packed_net_words()],
            );
            sim.clock();
        }
        let mut final_state = vec![0u64; soa.seq_count().div_ceil(64)];
        for s in 0..soa.seq_count() {
            final_state[s >> 6] |= (sim.state_word(s, 0) & 1) << (s & 63);
        }
        (outputs, packed, final_state)
    }

    /// A batched golden pass records, for every workload, the trace a
    /// broadcast run of that workload alone records — across a batch
    /// boundary (65 workloads) and for unequal lengths, where each
    /// lane's final state must be taken at its own last cycle.
    #[test]
    fn batched_golden_traces_match_broadcast_runs() {
        use rand::prelude::*;
        let netlist =
            fusa_netlist::designs::random_netlist(&fusa_netlist::designs::RandomNetlistConfig {
                num_gates: 120,
                num_inputs: 7,
                sequential_fraction: 0.25,
                num_outputs: 70,
                seed: 13,
                ..Default::default()
            });
        let soa = SoaNetlist::new(&netlist);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let pi_count = netlist.primary_inputs().len();
        let workloads: Vec<Workload> = (0..65)
            .map(|i| Workload {
                name: format!("hand#{i}"),
                kind: WorkloadKind::UniformRandom,
                vectors: (0..1 + (i * 7) % 23)
                    .map(|_| (0..pi_count).map(|_| rng.gen()).collect())
                    .collect(),
            })
            .collect();
        let config = CampaignConfig::default();
        for count in [1, 64, 65] {
            let batch: Vec<&Workload> = workloads.iter().take(count).collect();
            let traces = GoldenTrace::compute_all(&soa, &batch, &config);
            assert_eq!(traces.len(), count);
            for (workload, trace) in batch.iter().zip(&traces) {
                let (outputs, packed, final_state) = broadcast_trace(&soa, workload);
                assert_eq!(trace.outputs, outputs, "{count}: {} outputs", workload.name);
                assert_eq!(trace.packed_nets, packed, "{count}: {} nets", workload.name);
                assert_eq!(
                    trace.final_state, final_state,
                    "{count}: {} state",
                    workload.name
                );
            }
        }
    }

    #[test]
    fn inverter_output_faults_always_dangerous() {
        let netlist = inverter_netlist();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 4, 32);
        let report = FaultCampaign::default()
            .run(&netlist, &faults, &workloads)
            .unwrap();
        // A stuck output on the only path must diverge in any workload
        // that exercises both input values; narrow kinds may freeze the
        // single input, so restrict the check to uniform-random ones.
        for (workload, wr) in workloads.workloads().iter().zip(report.workload_reports()) {
            if workload.kind == WorkloadKind::UniformRandom {
                assert_eq!(wr.dangerous_count(), 2, "{}", wr.workload_name);
            }
        }
        assert!(workloads
            .workloads()
            .iter()
            .any(|w| w.kind == WorkloadKind::UniformRandom));
    }

    #[test]
    fn unobservable_gate_is_never_dangerous() {
        let mut b = NetlistBuilder::new("dead");
        let a = b.primary_input("a");
        let live = b.gate_named("LIVE", GateKind::Buf, &[a]);
        let _dead = b.gate_named("DEAD", GateKind::Inv, &[a]);
        b.primary_output("z", live);
        let netlist = b.finish().unwrap();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 2, 16);
        let report = FaultCampaign::default()
            .run(&netlist, &faults, &workloads)
            .unwrap();
        let dead_gate = netlist.find_gate("DEAD").unwrap();
        for wr in report.workload_reports() {
            for (fault, outcome) in faults.iter().zip(&wr.outcomes) {
                if fault.gate == dead_gate {
                    assert_eq!(*outcome, FaultOutcome::Benign);
                }
            }
        }
    }

    #[test]
    fn latent_fault_detected_in_state() {
        // A register whose output is only ever observed as "unused":
        // q feeds a second register chain that never reaches an output.
        let mut b = NetlistBuilder::new("latent");
        let a = b.primary_input("a");
        let z = b.gate(GateKind::Buf, &[a]);
        let hidden = b.gate_named("HID", GateKind::Dff, &[a]);
        let _hidden2 = b.gate_named("HID2", GateKind::Dff, &[hidden]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 1, 16);
        let report = FaultCampaign::default()
            .run(&netlist, &faults, &workloads)
            .unwrap();
        let hid = netlist.find_gate("HID").unwrap();
        let wr = &report.workload_reports()[0];
        let mut saw_latent = false;
        for (fault, outcome) in faults.iter().zip(&wr.outcomes) {
            if fault.gate == hid {
                assert_ne!(*outcome, FaultOutcome::Dangerous);
                saw_latent |= *outcome == FaultOutcome::Latent;
            }
        }
        assert!(saw_latent, "hidden register fault should corrupt state");
    }

    #[test]
    fn first_divergence_cycle_is_recorded() {
        let netlist = inverter_netlist();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 1, 8);
        let report = FaultCampaign::default()
            .run(&netlist, &faults, &workloads)
            .unwrap();
        let wr = &report.workload_reports()[0];
        for (outcome, first) in wr.outcomes.iter().zip(&wr.first_divergence) {
            if *outcome == FaultOutcome::Dangerous {
                assert!(first.is_some());
            } else {
                assert!(first.is_none());
            }
        }
    }

    #[test]
    fn single_and_multi_thread_agree() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 4, 24);
        let serial = FaultCampaign::new(CampaignConfig {
            threads: 1,
            classify_latent: true,
            ..Default::default()
        })
        .run(&netlist, &faults, &workloads)
        .unwrap();
        let parallel = FaultCampaign::new(CampaignConfig {
            threads: 4,
            classify_latent: true,
            ..Default::default()
        })
        .run(&netlist, &faults, &workloads)
        .unwrap();
        for (a, b) in serial
            .workload_reports()
            .iter()
            .zip(parallel.workload_reports())
        {
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.first_divergence, b.first_divergence);
        }
    }

    /// Every acceleration (differential stepping, early exit) and thread
    /// count must produce the oracle's outcomes and first-divergence
    /// cycles.
    #[test]
    fn accelerations_are_bit_identical() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_sites(&netlist);
        let workloads = tiny_suite(&netlist, 2, 24);
        let reference =
            crate::reference::stuck_at(&netlist, &faults, &workloads, &CampaignConfig::default());
        for restrict_to_cone in [false, true] {
            for threads in [1, 4] {
                let candidate = FaultCampaign::new(CampaignConfig {
                    threads,
                    restrict_to_cone,
                    ..Default::default()
                })
                .run(&netlist, &faults, &workloads)
                .unwrap();
                for (a, b) in reference
                    .workload_reports()
                    .iter()
                    .zip(candidate.workload_reports())
                {
                    assert_eq!(
                        a.outcomes, b.outcomes,
                        "cone={restrict_to_cone} threads={threads}"
                    );
                    assert_eq!(a.first_divergence, b.first_divergence);
                }
            }
        }
    }

    /// Early exit must be invisible even with a nonzero Dangerous
    /// threshold (the satisfied mask tracks the threshold, not just the
    /// first divergence): the oracle never exits early.
    #[test]
    fn early_exit_never_changes_outcomes_with_threshold() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 2, 32);
        for min_divergence_fraction in [0.05, 0.25, 0.9] {
            let config = CampaignConfig {
                threads: 1,
                min_divergence_fraction,
                ..Default::default()
            };
            let reference = crate::reference::stuck_at(&netlist, &faults, &workloads, &config);
            let report = FaultCampaign::new(config)
                .run(&netlist, &faults, &workloads)
                .unwrap();
            for (a, b) in reference
                .workload_reports()
                .iter()
                .zip(report.workload_reports())
            {
                assert_eq!(a.outcomes, b.outcomes, "fraction {min_divergence_fraction}");
                assert_eq!(a.first_divergence, b.first_divergence);
            }
        }
    }

    #[test]
    fn stats_reflect_cone_savings() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 2, 24);
        let report = FaultCampaign::new(CampaignConfig {
            threads: 1,
            ..Default::default()
        })
        .run(&netlist, &faults, &workloads)
        .unwrap();
        let stats = report.stats();
        assert!(stats.wall_seconds > 0.0);
        assert_eq!(stats.threads, 1);
        assert_eq!(
            stats.units,
            workloads.workloads().len() * faults.len().div_ceil(64)
        );
        assert_eq!(
            stats.fault_cycles,
            (faults.len() * 2 * 24) as u64,
            "logical size: faults x workloads x cycles"
        );
        assert!(
            stats.gate_evals < stats.gate_evals_full,
            "differential stepping must save gate evaluations on a real design"
        );
        assert!(stats.gate_evals_saved_fraction() > 0.0);
        assert_eq!(stats.worker_busy_seconds.len(), 1);
        assert!(stats.fault_cycles_per_second() > 0.0);
    }

    #[test]
    fn more_than_64_faults_chunks_correctly() {
        // 40 gates -> 80 faults spanning two chunks.
        let netlist =
            fusa_netlist::designs::random_netlist(&fusa_netlist::designs::RandomNetlistConfig {
                num_gates: 40,
                num_inputs: 6,
                sequential_fraction: 0.1,
                num_outputs: 6,
                seed: 5,
                ..Default::default()
            });
        let faults = FaultList::all_gate_outputs(&netlist);
        assert!(faults.len() > 64);
        let workloads = tiny_suite(&netlist, 2, 24);
        let report = FaultCampaign::default()
            .run(&netlist, &faults, &workloads)
            .unwrap();
        assert_eq!(report.workload_reports()[0].outcomes.len(), faults.len());
        // The partial second chunk lines up with the oracle fault by
        // fault.
        let reference =
            crate::reference::stuck_at(&netlist, &faults, &workloads, &CampaignConfig::default());
        assert_eq!(report.workload_reports(), reference.workload_reports());
    }

    #[test]
    fn workload_kinds_produce_different_coverage() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = WorkloadSuite::generate(
            &netlist,
            &WorkloadConfig {
                num_workloads: 6,
                vectors_per_workload: 64,
                reset_cycles: 2,
                seed: 11,
            },
        );
        let report = FaultCampaign::default()
            .run(&netlist, &faults, &workloads)
            .unwrap();
        let coverages: Vec<f64> = report
            .workload_reports()
            .iter()
            .map(|w| w.coverage())
            .collect();
        let min = coverages.iter().cloned().fold(f64::MAX, f64::min);
        let max = coverages.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min > 0.02,
            "workload diversity should vary coverage: {coverages:?}"
        );
        // Sanity: narrow slice workloads exist in the suite.
        assert!(workloads
            .workloads()
            .iter()
            .any(|w| w.kind == WorkloadKind::SubsetActive));
        let _ = StuckAt::Zero;
    }

    #[test]
    fn empty_fault_list_yields_empty_reports() {
        let netlist = inverter_netlist();
        let faults: FaultList = Vec::<Fault>::new().into_iter().collect();
        let workloads = tiny_suite(&netlist, 2, 8);
        let report = FaultCampaign::default()
            .run(&netlist, &faults, &workloads)
            .unwrap();
        assert_eq!(report.workload_reports().len(), 2);
        for wr in report.workload_reports() {
            assert!(wr.outcomes.is_empty());
        }
        assert_eq!(report.stats().fault_cycles, 0);
    }

    fn temp_checkpoint(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fusa_campaign_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.jsonl"))
    }

    #[test]
    fn always_panicking_unit_is_quarantined_not_fatal() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 2, 16);
        let chunk_count = faults.len().div_ceil(64);
        let report = FaultCampaign::new(CampaignConfig {
            threads: 2,
            ..Default::default()
        })
        .with_injection(FaultInjection {
            panic_units: vec![1],
            ..Default::default()
        })
        .run(&netlist, &faults, &workloads)
        .unwrap();
        assert!(!report.interrupted());
        assert_eq!(report.quarantined().len(), 1);
        let q = &report.quarantined()[0];
        assert_eq!(q.unit, 1);
        assert_eq!(q.chunk, 1 % chunk_count);
        assert_eq!(q.attempts, 3, "default budget is 1 attempt + 2 retries");
        assert!(q.panic_message.contains("injected unit fault"));
        assert_eq!(report.stats().units_quarantined, 1);
        assert_eq!(report.stats().unit_retries, 2);
        // Quarantined faults keep the Benign default; everything else
        // matches a clean run.
        let clean = FaultCampaign::default()
            .run(&netlist, &faults, &workloads)
            .unwrap();
        let (w, c) = (q.unit / chunk_count, q.unit % chunk_count);
        for (wi, (a, b)) in clean
            .workload_reports()
            .iter()
            .zip(report.workload_reports())
            .enumerate()
        {
            for fi in 0..faults.len() {
                if wi == w && fi / 64 == c {
                    assert_eq!(b.outcomes[fi], FaultOutcome::Benign);
                } else {
                    assert_eq!(a.outcomes[fi], b.outcomes[fi]);
                }
            }
        }
        let summary = report.summary_opts(false);
        assert!(summary.contains("quarantined: 1 unit(s)"));
    }

    #[test]
    fn transient_panic_is_retried_to_a_clean_report() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 2, 16);
        let flaky = FaultCampaign::default()
            .with_injection(FaultInjection {
                panic_once_units: vec![0, 2],
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .unwrap();
        assert!(flaky.quarantined().is_empty());
        assert_eq!(flaky.stats().unit_retries, 2);
        let clean = FaultCampaign::default()
            .run(&netlist, &faults, &workloads)
            .unwrap();
        for (a, b) in clean
            .workload_reports()
            .iter()
            .zip(flaky.workload_reports())
        {
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.first_divergence, b.first_divergence);
        }
        assert_eq!(clean.summary_opts(false), flaky.summary_opts(false));
    }

    #[test]
    fn zero_retry_budget_quarantines_after_one_attempt() {
        let netlist = inverter_netlist();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 1, 8);
        let report = FaultCampaign::default()
            .with_durability(DurabilityConfig {
                max_unit_retries: 0,
                ..Default::default()
            })
            .with_injection(FaultInjection {
                panic_once_units: vec![0],
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .unwrap();
        assert_eq!(report.quarantined().len(), 1);
        assert_eq!(report.quarantined()[0].attempts, 1);
        assert_eq!(report.stats().unit_retries, 0);
    }

    #[test]
    fn interrupted_campaign_drains_and_reports_partial() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 4, 16);
        let report = FaultCampaign::new(CampaignConfig {
            threads: 1,
            ..Default::default()
        })
        .with_injection(FaultInjection {
            interrupt_after_units: Some(3),
            ..Default::default()
        })
        .run(&netlist, &faults, &workloads)
        .unwrap();
        assert!(report.interrupted());
        assert_eq!(report.stats().units_skipped, report.stats().units - 3);
        assert!(report.summary_opts(false).contains("interrupted: 3/"));
    }

    #[test]
    fn interrupt_resume_round_trip_is_bit_identical() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_sites(&netlist);
        let workloads = tiny_suite(&netlist, 2, 24);
        let reference = FaultCampaign::default()
            .run(&netlist, &faults, &workloads)
            .unwrap();
        let path = temp_checkpoint("resume_round_trip");
        let partial = FaultCampaign::new(CampaignConfig {
            threads: 2,
            ..Default::default()
        })
        .with_durability(DurabilityConfig {
            checkpoint: Some(path.clone()),
            ..Default::default()
        })
        .with_injection(FaultInjection {
            interrupt_after_units: Some(4),
            ..Default::default()
        })
        .run(&netlist, &faults, &workloads)
        .unwrap();
        assert!(partial.interrupted());
        assert!(partial.stats().units_skipped > 0);
        // Resume under a different thread count and acceleration mix:
        // both are bit-identical knobs, so the checkpoint stays valid.
        let resumed = FaultCampaign::new(CampaignConfig {
            threads: 1,
            restrict_to_cone: false,
            ..Default::default()
        })
        .with_durability(DurabilityConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            ..Default::default()
        })
        .run(&netlist, &faults, &workloads)
        .unwrap();
        assert!(!resumed.interrupted());
        assert!(resumed.stats().units_from_checkpoint >= 4);
        for (a, b) in reference
            .workload_reports()
            .iter()
            .zip(resumed.workload_reports())
        {
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.first_divergence, b.first_divergence);
        }
        assert_eq!(
            reference.summary_opts(false),
            resumed.summary_opts(false),
            "resumed summary must digest identically to an uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }

    /// The checkpoint unit is the 64-fault chunk, not the group of
    /// `LANE_WORDS` chunks a pass packs: interrupted after 3 units on
    /// one thread, the run leaves its first group with one member to
    /// simulate, and the resume runs that member alone.
    #[test]
    fn resume_of_a_partly_checkpointed_group_is_bit_identical() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_sites(&netlist);
        assert!(
            faults.len().div_ceil(LANES) >= LANE_WORDS,
            "a full first group"
        );
        let workloads = tiny_suite(&netlist, 2, 24);
        let reference =
            crate::reference::stuck_at(&netlist, &faults, &workloads, &CampaignConfig::default());
        let path = temp_checkpoint("partial_group_resume");
        let config = CampaignConfig {
            threads: 1,
            ..Default::default()
        };
        let partial = FaultCampaign::new(config)
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.clone()),
                ..Default::default()
            })
            .with_injection(FaultInjection {
                interrupt_after_units: Some(3),
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .unwrap();
        assert!(partial.interrupted());
        let resumed = FaultCampaign::new(config)
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.clone()),
                resume: true,
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .unwrap();
        assert!(!resumed.interrupted());
        assert_eq!(resumed.stats().units_from_checkpoint, 3);
        for (a, b) in reference
            .workload_reports()
            .iter()
            .zip(resumed.workload_reports())
        {
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.first_divergence, b.first_divergence);
        }
        assert_eq!(reference.summary_opts(false), resumed.summary_opts(false));
        std::fs::remove_file(&path).ok();
    }

    /// A chain of ten buffers from one input to one output, the last
    /// named `LAST`.
    fn buffer_chain() -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let mut net = b.primary_input("a");
        for _ in 0..9 {
            net = b.gate(GateKind::Buf, &[net]);
        }
        let last = b.gate_named("LAST", GateKind::Buf, &[net]);
        b.primary_output("z", last);
        b.finish().unwrap()
    }

    /// Runs `chunk` as one differential group over an 8-cycle workload
    /// and returns whether it handed off, and whether the workload's
    /// toggle trace was built.
    fn group_builds_toggles(netlist: &Netlist, chunk: &[Fault]) -> (bool, bool) {
        let soa = SoaNetlist::new(netlist);
        let workloads = tiny_suite(netlist, 1, 8);
        let workload = &workloads.workloads()[0];
        let config = CampaignConfig::default();
        let trace = GoldenTrace::compute_all(&soa, &[workload], &config).remove(0);
        let mut sim = WideSim::<LANE_WORDS>::new(&soa);
        let (_, dense_handoff) = run_wide_group(&mut sim, &[chunk], workload, &trace, &config);
        (dense_handoff, trace.toggles.get().is_some())
    }

    /// Cycle 0 reads no toggles: a group that hands off after it never
    /// builds the workload's toggle trace.
    #[test]
    fn a_group_that_hands_off_at_cycle_0_builds_no_toggle_trace() {
        // Every buffer forced: all ten evaluate in cycle 0, past 0.3.
        let netlist = buffer_chain();
        let faults = FaultList::all_gate_outputs(&netlist);
        assert_eq!(
            group_builds_toggles(&netlist, faults.faults()),
            (true, false)
        );
    }

    /// A group still stepping differentially after cycle 0 reads the
    /// toggles of cycle 1, so it builds the trace.
    #[test]
    fn a_group_that_stays_differential_builds_the_toggle_trace() {
        // Both faults of the last buffer: one evaluation a cycle, and
        // one of the two cannot diverge in cycle 0.
        let netlist = buffer_chain();
        let last = netlist.find_gate("LAST").unwrap();
        let chunk = [StuckAt::Zero, StuckAt::One].map(|v| Fault::at_output(&netlist, last, v));
        assert_eq!(group_builds_toggles(&netlist, &chunk), (false, true));
    }

    #[test]
    fn resume_rejects_checkpoint_from_different_campaign() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 2, 16);
        let path = temp_checkpoint("mismatch");
        FaultCampaign::default()
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.clone()),
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .unwrap();
        // Different workload suite (different seed) => workload_digest
        // mismatch must be a hard error.
        let other = WorkloadSuite::generate(
            &netlist,
            &WorkloadConfig {
                num_workloads: 2,
                vectors_per_workload: 16,
                reset_cycles: 0,
                seed: 999,
            },
        );
        let err = FaultCampaign::default()
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.clone()),
                resume: true,
                ..Default::default()
            })
            .run(&netlist, &faults, &other)
            .unwrap_err();
        assert!(matches!(
            err,
            CampaignError::Checkpoint(crate::checkpoint::CheckpointError::Mismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_without_checkpoint_path_is_an_error() {
        let netlist = inverter_netlist();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 1, 8);
        let err = FaultCampaign::default()
            .with_durability(DurabilityConfig {
                resume: true,
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .unwrap_err();
        assert_eq!(err, CampaignError::ResumeWithoutCheckpoint);
    }

    #[test]
    fn external_interrupt_flag_stops_before_any_unit() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = tiny_suite(&netlist, 2, 16);
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(true)));
        let report = FaultCampaign::default()
            .with_durability(DurabilityConfig {
                interrupt: Some(flag),
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .unwrap();
        assert!(report.interrupted());
        assert_eq!(report.stats().units_skipped, report.stats().units);
    }
}
