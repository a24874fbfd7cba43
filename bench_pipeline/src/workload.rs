//! The benchmark's workloads: which designs each loads and which
//! commands one repetition runs on them.

use crate::commands::Command;
use fusa_gcn::PipelineConfig;
use fusa_netlist::designs::{self, synthetic_design, SyntheticConfig};
use fusa_netlist::parser::parse_verilog;
use fusa_netlist::writer::write_verilog;
use fusa_netlist::Netlist;
use std::path::Path;

/// Campaign worker threads, fixed so that timings do not depend on the
/// host's core count; two is the reference host's.
pub const CAMPAIGN_THREADS: usize = 2;

/// Generator seed of the synthetic designs. It stays fixed whatever the
/// run's `--seed`: the gate count moves by up to 10% between generator
/// seeds, and the super-linear structural analysis turns that into ~25%
/// of `lint` wall time, more than any regression bound. The run's seed
/// drives every stochastic input of the commands instead (see
/// [`Workload::config`]).
const SYNTH_SEED: u64 = 1;

/// A design a workload loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// A built-in design, constructed in memory as `fusa <cmd> <name>` does.
    Builtin(&'static str),
    /// `designs::synth_10k`, which the harness writes out as Verilog and
    /// each repetition reads back and parses, as `fusa <cmd> file.v` does.
    Synth10k,
}

impl Design {
    /// The design's module name.
    pub fn name(self) -> &'static str {
        match self {
            Design::Builtin(name) => name,
            Design::Synth10k => "synth_10k",
        }
    }

    fn file(self, inputs: &Path) -> std::path::PathBuf {
        inputs.join(format!("{}.v", self.name()))
    }

    /// Loads the design the way the CLI's `load_design` does.
    pub fn load(self, inputs: &Path) -> Result<Netlist, String> {
        match self {
            Design::Builtin("sdram_ctrl") => Ok(designs::sdram_ctrl()),
            Design::Builtin("or1200_if") => Ok(designs::or1200_if()),
            Design::Builtin("or1200_icfsm") => Ok(designs::or1200_icfsm()),
            Design::Builtin(other) => Err(format!("no built-in design `{other}`")),
            Design::Synth10k => {
                let path = self.file(inputs);
                let source = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
                parse_verilog(&source)
                    .map_err(|e| format!("cannot parse `{}`: {e}", path.display()))
            }
        }
    }

    /// The design built in memory, plus a half-size companion from the
    /// same generator for synthetic designs: the points of the
    /// `lint.context_exp` scaling fit.
    pub fn scaling_probe(self) -> Result<Vec<Netlist>, String> {
        match self {
            Design::Builtin(_) => Ok(vec![self.load(Path::new(""))?]),
            Design::Synth10k => Ok(vec![
                designs::synth_10k(SYNTH_SEED),
                synthetic_design(&SyntheticConfig {
                    name: "synth_5k".to_string(),
                    datapath_width: 32,
                    pipeline_stages: 45,
                    banks: 4,
                    bank_counter_bits: 6,
                    seed: SYNTH_SEED,
                }),
            ]),
        }
    }
}

/// One workload: a closed loop of one client running `commands` on
/// `designs`, one repetition at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name used on the command line and in results.
    pub name: &'static str,
    /// Designs the repetition loads before its commands.
    pub designs: &'static [Design],
    /// `PipelineConfig::fast()` (`--fast`) instead of the default.
    pub fast: bool,
    /// Commands of one repetition, each with the index of its design.
    pub commands: &'static [(Command, usize)],
}

const PAPER_DESIGNS: &[Design] = &[
    Design::Builtin("sdram_ctrl"),
    Design::Builtin("or1200_if"),
    Design::Builtin("or1200_icfsm"),
];

/// Every workload, in the order of `BENCHMARK.json`.
pub const WORKLOADS: &[Workload] = &[
    // The paper's designs and configuration: training is ~90% of the
    // wall, structural analysis <2%.
    Workload {
        name: "paper",
        designs: PAPER_DESIGNS,
        fast: false,
        commands: &[
            (Command::Analyze, 0),
            (Command::Analyze, 1),
            (Command::Analyze, 2),
        ],
    },
    // Every layer present at once on ~10k gates: training, structural
    // analysis (lint report + fault-list exclusion) and the campaign.
    Workload {
        name: "analyze_10k",
        designs: &[Design::Synth10k],
        fast: true,
        commands: &[(Command::Analyze, 0)],
    },
    // Structural analysis alone, no campaign or training. `lint` reads
    // SCOAP and dominators, `rank` reads the centralities.
    Workload {
        name: "structure_10k",
        designs: &[Design::Synth10k],
        fast: false,
        commands: &[(Command::Lint, 0), (Command::Rank, 0)],
    },
    // The campaign layer both ways: a simulating run that writes its
    // checkpoint, then a resume that only reads and replays it.
    Workload {
        name: "faults_10k",
        designs: &[Design::Synth10k],
        fast: false,
        commands: &[(Command::Faults, 0), (Command::Resume, 0)],
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Result<Workload, String> {
        WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .copied()
            .ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}` (one of: {})", names.join(", "))
            })
    }

    /// The pipeline configuration for `seed`: the CLI's (default or
    /// `--fast`) with [`CAMPAIGN_THREADS`] workers and every RNG seed
    /// offset by `seed - 1`, so seed 1 reproduces the CLI exactly.
    pub fn config(&self, seed: u64) -> PipelineConfig {
        let mut config = if self.fast {
            PipelineConfig::fast()
        } else {
            PipelineConfig::default()
        };
        config.campaign.threads = CAMPAIGN_THREADS;
        let offset = seed.wrapping_sub(1);
        config.workloads.seed = config.workloads.seed.wrapping_add(offset);
        config.signal_stats.seed = config.signal_stats.seed.wrapping_add(offset);
        config.split_seed = config.split_seed.wrapping_add(offset);
        config.model.seed = config.model.seed.wrapping_add(offset);
        config
    }

    /// Writes the workload's file inputs into `inputs`.
    pub fn write_inputs(&self, inputs: &Path) -> Result<(), String> {
        for &design in self.designs {
            if design == Design::Synth10k {
                let path = design.file(inputs);
                std::fs::write(&path, write_verilog(&designs::synth_10k(SYNTH_SEED)))
                    .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            }
        }
        Ok(())
    }

    /// Loads every design of the workload.
    pub fn load(&self, inputs: &Path) -> Result<Vec<Netlist>, String> {
        self.designs.iter().map(|d| d.load(inputs)).collect()
    }

    /// Label of the `index`-th command of a repetition, e.g.
    /// `analyze sdram_ctrl`.
    pub fn label(&self, index: usize) -> String {
        let (command, design) = self.commands[index];
        format!("{} {}", command.name(), self.designs[design].name())
    }
}
