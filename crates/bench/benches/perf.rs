//! Criterion performance benches covering every substrate:
//! netlist construction, levelization, scalar and bit-parallel
//! simulation, fault campaigns, graph normalization, GCN training and
//! inference, the GCN's fused convolution passes, explainer iterations,
//! the structural analysis at 10k gates, and the static-analysis lint
//! passes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fusa_faultsim::{CampaignConfig, FaultCampaign, FaultList};
use fusa_gcn::pipeline::{FusaPipeline, PipelineConfig};
use fusa_gcn::{try_train_classifier, ExplainerConfig, GcnConfig, TrainConfig};
use fusa_graph::{normalized_adjacency, CircuitGraph, FeatureMatrix};
use fusa_logicsim::{
    BitSim, SignalStats, SignalStatsConfig, Simulator, WorkloadConfig, WorkloadSuite,
};
use fusa_netlist::designs::{or1200_icfsm, sdram_ctrl, synth_10k};
use fusa_netlist::structural::{betweenness, gate_adjacency};
use fusa_netlist::{Levelizer, TestabilityProfile};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_netlist(c: &mut Criterion) {
    c.bench_function("netlist/build_sdram_ctrl", |b| {
        b.iter(|| black_box(sdram_ctrl()))
    });
    let netlist = sdram_ctrl();
    c.bench_function("netlist/levelize_sdram_ctrl", |b| {
        b.iter(|| black_box(Levelizer::levelize(&netlist)))
    });
    let text = fusa_netlist::writer::write_verilog(&netlist);
    c.bench_function("netlist/parse_verilog_sdram_ctrl", |b| {
        b.iter(|| black_box(fusa_netlist::parser::parse_verilog(&text).expect("parses")))
    });
}

fn bench_simulation(c: &mut Criterion) {
    let netlist = sdram_ctrl();
    let pi = netlist.primary_inputs().len();
    let vector: Vec<bool> = (0..pi).map(|i| i % 3 == 0).collect();

    c.bench_function("sim/scalar_cycle_sdram", |b| {
        let mut sim = Simulator::new(&netlist);
        let logic: Vec<fusa_logicsim::Logic> = vector
            .iter()
            .map(|&v| fusa_logicsim::Logic::from_bool(v))
            .collect();
        b.iter(|| black_box(sim.step(&logic)))
    });

    c.bench_function("sim/bitparallel_cycle_sdram_64lanes", |b| {
        let mut sim = BitSim::new(&netlist);
        b.iter(|| black_box(sim.step_broadcast(&vector)))
    });

    c.bench_function("sim/signal_stats_icfsm_64cycles", |b| {
        let small = or1200_icfsm();
        let config = SignalStatsConfig {
            cycles: 64,
            warmup: 8,
            ..Default::default()
        };
        b.iter(|| black_box(SignalStats::estimate(&small, &config)))
    });
}

fn bench_fault_campaign(c: &mut Criterion) {
    let netlist = or1200_icfsm();
    let faults = FaultList::all_gate_outputs(&netlist);
    let workloads = WorkloadSuite::generate(
        &netlist,
        &WorkloadConfig {
            num_workloads: 2,
            vectors_per_workload: 64,
            ..Default::default()
        },
    );
    c.bench_function("fault/campaign_icfsm_2x64", |b| {
        let campaign = FaultCampaign::new(CampaignConfig {
            threads: 1,
            classify_latent: true,
            ..Default::default()
        });
        b.iter(|| black_box(campaign.run(&netlist, &faults, &workloads)))
    });
}

fn bench_graph(c: &mut Criterion) {
    let netlist = sdram_ctrl();
    c.bench_function("graph/from_netlist_sdram", |b| {
        b.iter(|| black_box(CircuitGraph::from_netlist(&netlist)))
    });
    let graph = CircuitGraph::from_netlist(&netlist);
    c.bench_function("graph/normalize_sdram", |b| {
        b.iter(|| black_box(normalized_adjacency(&graph)))
    });
    let stats = SignalStats::estimate(
        &netlist,
        &SignalStatsConfig {
            cycles: 64,
            warmup: 8,
            ..Default::default()
        },
    );
    c.bench_function("graph/extract_features_sdram", |b| {
        b.iter(|| black_box(FeatureMatrix::extract(&netlist, &stats)))
    });
}

fn gcn_inputs() -> (fusa_neuro::CsrMatrix, fusa_neuro::Matrix, Vec<bool>) {
    let netlist = or1200_icfsm();
    let graph = CircuitGraph::from_netlist(&netlist);
    let adj = normalized_adjacency(&graph);
    let stats = SignalStats::estimate(
        &netlist,
        &SignalStatsConfig {
            cycles: 64,
            warmup: 8,
            ..Default::default()
        },
    );
    let features = FeatureMatrix::extract(&netlist, &stats).into_matrix();
    let labels: Vec<bool> = (0..graph.node_count())
        .map(|i| graph.degree(i) >= 4)
        .collect();
    (adj, features, labels)
}

fn bench_gcn(c: &mut Criterion) {
    let (adj, features, labels) = gcn_inputs();
    let split = fusa_neuro::split::Split::stratified(&labels, 0.8, 1);

    c.bench_function("gcn/train_10_epochs_icfsm", |b| {
        b.iter_batched(
            || (),
            |_| {
                black_box(
                    try_train_classifier(
                        &adj,
                        &features,
                        &labels,
                        &split,
                        GcnConfig::default(),
                        &TrainConfig {
                            epochs: 10,
                            ..Default::default()
                        },
                    )
                    .expect("the split validates"),
                )
            },
            BatchSize::SmallInput,
        )
    });

    let (model, _, _) = try_train_classifier(
        &adj,
        &features,
        &labels,
        &split,
        GcnConfig::default(),
        &TrainConfig {
            epochs: 20,
            ..Default::default()
        },
    )
    .expect("the split validates");
    c.bench_function("gcn/inference_full_graph_icfsm", |b| {
        b.iter(|| black_box(model.predict_critical_probability(&adj, &features)))
    });

    let graph = CircuitGraph::from_netlist(&or1200_icfsm());
    c.bench_function("gcn/explain_one_node_20iter", |b| {
        let explainer = fusa_gcn::Explainer::new(
            &model,
            &graph,
            &features,
            ExplainerConfig { iterations: 20 },
        );
        b.iter(|| black_box(explainer.explain(3)))
    });
}

/// One graph convolution's fused passes on synth_10k's graph (9.7k
/// nodes), so a kernel regression shows without the pipeline: at the
/// shapes of Table 1's layer 3 (32 → 64 features, linear) and of its
/// classifier head (64 → 2, log-softmax), which takes the narrow path
/// (row-blocked product, weight gradient across the input dimension).
/// The forward pass gathers `Â·H`, multiplies it into `W` and adds the
/// bias; the backward pass streams the weight and bias gradients, writes
/// `G·Wᵀ` and gathers `Âᵀ·(G·Wᵀ)`, the input gradient. The input is
/// ReLU-like, about half zero.
fn bench_gcn_passes(c: &mut Criterion) {
    use fusa_neuro::conv::{ConvStack, GraphConv, Workspace};
    use fusa_neuro::layers::Dropout;

    let adj = normalized_adjacency(&CircuitGraph::from_netlist(&synth_10k(1)));
    let n = adj.rows();
    let mut rng = ChaCha8Rng::seed_from_u64(0x6C4);
    let mut dense = |rows: usize, cols: usize, relu: bool| {
        let data = (0..rows * cols)
            .map(|_| {
                let x: f64 = rng.gen_range(-1.0..1.0);
                if relu {
                    x.max(0.0)
                } else {
                    x
                }
            })
            .collect();
        fusa_neuro::Matrix::from_vec(rows, cols, data)
    };
    for (in_width, out_width, log_softmax) in [(32, 64, false), (64, 2, true)] {
        let h = dense(n, in_width, true);
        let grad = dense(n, out_width, false);
        let convs = vec![GraphConv::new(in_width, out_width, 0x6C4)];
        let mut stack = ConvStack::new(convs, Dropout::new(0.0, 0), 0, log_softmax);
        let mut workspace = Workspace::new(&adj);
        let shape = format!("10k_{in_width}x{out_width}");
        c.bench_function(&format!("gcn/conv_forward_{shape}"), |b| {
            b.iter(|| black_box(stack.forward(&mut workspace, &h, true).get(0, 0)))
        });
        c.bench_function(&format!("gcn/conv_backward_{shape}"), |b| {
            b.iter(|| black_box(stack.backward(&mut workspace, &grad)))
        });
    }
}

/// The zero-simulation layer on the ~10k-gate synthetic design: the
/// near-linear testability profile (SCOAP fixpoints, articulation,
/// post-dominance) that lint and the fault-list filter compute, and the
/// O(V·E) exact betweenness only `fusa rank` and the structural feature
/// channels pay for.
fn bench_structural(c: &mut Criterion) {
    let netlist = synth_10k(1);
    let adjacency = gate_adjacency(&netlist);
    let mut group = c.benchmark_group("structural");
    group.sample_size(5);
    group.bench_function("testability_synth_10k", |b| {
        b.iter(|| black_box(TestabilityProfile::analyze(&netlist)))
    });
    group.bench_function("betweenness_synth_10k", |b| {
        b.iter(|| black_box(betweenness(&adjacency)))
    });
    group.finish();
}

fn bench_lint(c: &mut Criterion) {
    let netlist = sdram_ctrl();
    c.bench_function("lint/all_passes_sdram_ctrl", |b| {
        b.iter(|| black_box(fusa_lint::lint_netlist(&netlist)))
    });
    c.bench_function("lint/untestable_sites_sdram_ctrl", |b| {
        b.iter(|| black_box(fusa_lint::untestable_stuck_at_sites(&netlist)))
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("end_to_end_icfsm_fast", |b| {
        let netlist = or1200_icfsm();
        let pipeline = FusaPipeline::new(PipelineConfig::fast());
        b.iter(|| black_box(pipeline.run(&netlist).expect("runs")))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_netlist, bench_simulation, bench_fault_campaign, bench_graph, bench_gcn, bench_gcn_passes, bench_structural, bench_lint, bench_pipeline
}
criterion_main!(benches);
