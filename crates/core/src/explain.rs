//! GNNExplainer-style interpretation of GCN predictions (§3.5).
//!
//! For a target node the explainer learns, by gradient descent against
//! the *trained, frozen* model:
//!
//! * a **feature mask** `σ(φ) ∈ (0,1)^F` multiplying every feature
//!   column, and
//! * an **edge mask** `σ(θ) ∈ (0,1)^E` multiplying every undirected
//!   edge's weight in the normalized adjacency (self-loops stay fixed),
//!
//! maximizing the model's log-probability of its original prediction
//! while size and entropy penalties push both masks towards sparse,
//! binary explanations — the mutual-information objective of
//! GNNExplainer (Ying et al., NeurIPS 2019).
//!
//! Aggregating per-node explanations yields the global feature ranking of
//! Equation 3 / Figure 5(b).

use crate::model::GcnClassifier;
use fusa_graph::{feature_names, masked_adjacency, CircuitGraph};
use fusa_neuro::conv::Workspace;
use fusa_neuro::layers::sigmoid;
use fusa_neuro::optim::Adam;
use fusa_neuro::{Matrix, Param};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Adam learning rate for the mask logits.
const LEARNING_RATE: f64 = 0.1;
/// Size penalty on the edge mask (λ · Σ σ(θ)).
const EDGE_SIZE_PENALTY: f64 = 0.005;
/// Size penalty on the feature mask.
const FEATURE_SIZE_PENALTY: f64 = 0.05;
/// Entropy penalty pushing masks towards 0/1.
const ENTROPY_PENALTY: f64 = 0.05;
/// Seed for mask initialization, mixed with the explained node.
const SEED: u64 = 0xE81A;

/// Parameters of the mask optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainerConfig {
    /// Gradient-descent iterations per node (the paper passes an
    /// iteration count when building the explainer object).
    pub iterations: usize,
}

impl Default for ExplainerConfig {
    fn default() -> Self {
        ExplainerConfig { iterations: 100 }
    }
}

/// The explanation of one node's classification.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The explained node (gate index).
    pub node: usize,
    /// The model's predicted class (0 = Non-critical, 1 = Critical).
    pub predicted_class: usize,
    /// Optimized feature mask values `σ(φ)` in `(0,1)`, one per feature.
    pub feature_mask: Vec<f64>,
    /// Feature importance scores scaled so that the average feature has
    /// score 1 (Table 2 / Figure 5(a) style): `F · σ(φ_c) / Σ σ(φ)`.
    pub feature_importance: Vec<f64>,
    /// Edges of the node's computation subgraph with their mask values,
    /// sorted by descending importance.
    pub edge_importance: Vec<(usize, usize, f64)>,
    /// Prediction-loss trace over the optimization.
    pub loss_trace: Vec<f64>,
}

impl Explanation {
    /// Features ranked most-important first, as `(name, score)` pairs.
    pub fn ranked_features(&self) -> Vec<(&'static str, f64)> {
        let mut ranked: Vec<(usize, f64)> = self
            .feature_importance
            .iter()
            .copied()
            .enumerate()
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN scores"));
        let names = feature_names(self.feature_importance.len());
        ranked.into_iter().map(|(i, s)| (names[i], s)).collect()
    }

    /// 1-based rank of each feature (rank 1 = most important), in
    /// feature-column order. Used by Equation 3.
    pub fn feature_ranks(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.feature_importance.len()).collect();
        order.sort_by(|&a, &b| {
            self.feature_importance[b]
                .partial_cmp(&self.feature_importance[a])
                .expect("no NaN scores")
        });
        let mut ranks = vec![0usize; self.feature_importance.len()];
        for (rank, &feature) in order.iter().enumerate() {
            ranks[feature] = rank + 1;
        }
        ranks
    }
}

/// Globally aggregated feature importance (Figure 5(b), Equation 3).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalFeatureImportance {
    /// Mean importance score per feature.
    pub mean_scores: Vec<f64>,
    /// Mean 1-based rank per feature (`Avg_FeatureRank` of Eq. 3 —
    /// lower is more important).
    pub mean_ranks: Vec<f64>,
    /// Number of nodes aggregated.
    pub nodes_explained: usize,
}

impl GlobalFeatureImportance {
    /// Features ordered most-important first by mean rank.
    pub fn ranking(&self) -> Vec<(&'static str, f64)> {
        let mut order: Vec<usize> = (0..self.mean_ranks.len()).collect();
        order.sort_by(|&a, &b| {
            self.mean_ranks[a]
                .partial_cmp(&self.mean_ranks[b])
                .expect("no NaN ranks")
        });
        let names = feature_names(self.mean_ranks.len());
        order
            .into_iter()
            .map(|i| (names[i], self.mean_ranks[i]))
            .collect()
    }
}

/// Post-hoc explainer bound to a trained model and its graph inputs.
pub struct Explainer<'a> {
    model: &'a GcnClassifier,
    graph: &'a CircuitGraph,
    features: &'a Matrix,
    config: ExplainerConfig,
    /// CSR entry index → undirected edge index (None for self-loops).
    entry_to_edge: Vec<Option<usize>>,
    /// Unmasked normalization value of every CSR entry.
    base_values: Vec<f64>,
}

impl<'a> Explainer<'a> {
    /// Builds an explainer for the given trained model.
    pub fn new(
        model: &'a GcnClassifier,
        graph: &'a CircuitGraph,
        features: &'a Matrix,
        config: ExplainerConfig,
    ) -> Explainer<'a> {
        // Precompute the CSR-entry → edge mapping on the fully-unmasked
        // adjacency (same sparsity pattern as every masked variant).
        let full = masked_adjacency(graph, &vec![1.0; graph.edge_count()]);
        let mut edge_index: HashMap<(usize, usize), usize> = HashMap::new();
        for (i, &(a, b)) in graph.edges().iter().enumerate() {
            edge_index.insert((a, b), i);
        }
        let mut entry_to_edge = Vec::with_capacity(full.nnz());
        let mut base_values = Vec::with_capacity(full.nnz());
        for (r, c, v) in full.triplets() {
            base_values.push(v);
            if r == c {
                entry_to_edge.push(None);
            } else {
                let key = (r.min(c), r.max(c));
                entry_to_edge.push(Some(edge_index[&key]));
            }
        }
        Explainer {
            model,
            graph,
            features,
            config,
            entry_to_edge,
            base_values,
        }
    }

    /// Explains the classification of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node >= graph.node_count()`.
    pub fn explain(&self, node: usize) -> Explanation {
        assert!(node < self.graph.node_count(), "node out of range");
        let obs = fusa_obs::global();
        let _span = obs.span("explain");
        obs.add("explain.nodes", 1);
        obs.add("explain.iterations", self.config.iterations as u64);
        let num_edges = self.graph.edge_count();
        let num_features = self.features.cols();
        let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ node as u64);

        // Mask logits initialized near σ≈0.5 (maximum gradient flow,
        // GNNExplainer's recommended regime) with slight noise so
        // symmetric edges can differentiate.
        let mut edge_logits = Param::new(Matrix::from_vec(
            1,
            num_edges.max(1),
            (0..num_edges.max(1))
                .map(|_| rng.gen_range(-0.1..0.1))
                .collect(),
        ));
        let mut feature_logits = Param::new(Matrix::from_vec(
            1,
            num_features,
            (0..num_features)
                .map(|_| rng.gen_range(-0.1..0.1))
                .collect(),
        ));
        let mut optimizer = Adam::new(LEARNING_RATE);
        let mut model = self.model.clone();

        // The explanation targets the model's own unmasked prediction.
        let baseline = masked_adjacency(self.graph, &vec![1.0; num_edges]);
        let predicted_class = model
            .forward_inference(&baseline, self.features)
            .argmax_rows()[node];

        let mut loss_trace = Vec::with_capacity(self.config.iterations);
        for _ in 0..self.config.iterations {
            let edge_mask: Vec<f64> = (0..num_edges)
                .map(|e| sigmoid(edge_logits.value.get(0, e)))
                .collect();
            let feature_mask: Vec<f64> = (0..num_features)
                .map(|c| sigmoid(feature_logits.value.get(0, c)))
                .collect();

            let adj = masked_adjacency(self.graph, &edge_mask);
            let mut masked_x = self.features.clone();
            for r in 0..masked_x.rows() {
                for (c, v) in masked_x.row_mut(r).iter_mut().enumerate() {
                    *v *= feature_mask[c];
                }
            }

            let mut workspace = Workspace::new(&adj);
            let log_probs = model.forward(&mut workspace, &masked_x, false);
            let prediction_loss = -log_probs.get(node, predicted_class);
            loss_trace.push(prediction_loss);

            let mut grad_lp = Matrix::zeros(log_probs.rows(), log_probs.cols());
            grad_lp.set(node, predicted_class, -1.0);
            let (grad_x, entry_grads) = model.backward_with_edge_grads(&mut workspace, &grad_lp);

            edge_logits.zero_grad();
            feature_logits.zero_grad();

            // Chain rule into the edge logits.
            for (k, entry_grad) in entry_grads.iter().enumerate() {
                if let Some(e) = self.entry_to_edge[k] {
                    let s = edge_mask[e];
                    let g = entry_grad * self.base_values[k] * s * (1.0 - s);
                    edge_logits.grad.set(0, e, edge_logits.grad.get(0, e) + g);
                }
            }
            // Regularizers on the edge mask.
            for (e, &s) in edge_mask.iter().enumerate().take(num_edges) {
                let ds = s * (1.0 - s);
                let mut g = edge_logits.grad.get(0, e);
                g += EDGE_SIZE_PENALTY * ds;
                g += ENTROPY_PENALTY * entropy_grad(s) * ds;
                edge_logits.grad.set(0, e, g);
            }

            // Chain rule into the feature logits.
            for (c, &s) in feature_mask.iter().enumerate().take(num_features) {
                let ds = s * (1.0 - s);
                let mut g = 0.0;
                for r in 0..grad_x.rows() {
                    g += grad_x.get(r, c) * self.features.get(r, c);
                }
                g *= ds;
                g += FEATURE_SIZE_PENALTY * ds;
                g += ENTROPY_PENALTY * entropy_grad(s) * ds;
                feature_logits.grad.set(0, c, g);
            }

            optimizer.step(&mut [&mut edge_logits, &mut feature_logits]);
        }

        let feature_mask: Vec<f64> = (0..num_features)
            .map(|c| sigmoid(feature_logits.value.get(0, c)))
            .collect();
        let mask_sum: f64 = feature_mask.iter().sum();
        let feature_importance: Vec<f64> = feature_mask
            .iter()
            .map(|&m| {
                if mask_sum > 0.0 {
                    m * num_features as f64 / mask_sum
                } else {
                    0.0
                }
            })
            .collect();

        // Restrict reported edges to the node's computation subgraph.
        let hops = self.model.config().hidden.len() + 1;
        let neighborhood: std::collections::HashSet<usize> = self
            .graph
            .k_hop_neighborhood(node, hops)
            .into_iter()
            .collect();
        let mut edge_importance: Vec<(usize, usize, f64)> = self
            .graph
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, (a, b))| neighborhood.contains(a) && neighborhood.contains(b))
            .map(|(e, &(a, b))| (a, b, sigmoid(edge_logits.value.get(0, e))))
            .collect();
        edge_importance.sort_by(|x, y| y.2.partial_cmp(&x.2).expect("no NaN"));

        Explanation {
            node,
            predicted_class,
            feature_mask,
            feature_importance,
            edge_importance,
            loss_trace,
        }
    }

    /// Explains every node in `nodes` and aggregates mean scores and the
    /// Equation-3 average feature ranks.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or contains an out-of-range node.
    pub fn global_importance(&self, nodes: &[usize]) -> GlobalFeatureImportance {
        assert!(!nodes.is_empty(), "need at least one node to aggregate");
        let num_features = self.features.cols();
        let mut score_sums = vec![0.0; num_features];
        let mut rank_sums = vec![0.0; num_features];
        for &node in nodes {
            let explanation = self.explain(node);
            for (s, &v) in score_sums.iter_mut().zip(&explanation.feature_importance) {
                *s += v;
            }
            for (r, &rank) in rank_sums.iter_mut().zip(&explanation.feature_ranks()) {
                *r += rank as f64;
            }
        }
        let n = nodes.len() as f64;
        GlobalFeatureImportance {
            mean_scores: score_sums.iter().map(|&s| s / n).collect(),
            mean_ranks: rank_sums.iter().map(|&r| r / n).collect(),
            nodes_explained: nodes.len(),
        }
    }
}

/// `dH/dσ` for the Bernoulli entropy `H(σ)` (pushes masks to 0/1).
fn entropy_grad(s: f64) -> f64 {
    let s = s.clamp(1e-6, 1.0 - 1e-6);
    ((1.0 - s) / s).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GcnConfig;
    use crate::train::{try_train_classifier, TrainConfig};
    use fusa_graph::{FEATURE_COUNT, FEATURE_NAMES};
    use fusa_neuro::split::Split;

    /// Builds a task where exactly one feature column determines the
    /// label, trains a GCN on it, and checks the explainer recovers that
    /// column.
    fn single_feature_task() -> (CircuitGraph, Matrix, GcnClassifier) {
        // A ring graph over 24 nodes.
        let netlist = ring_netlist(24);
        let graph = CircuitGraph::from_netlist(&netlist);
        let adj = fusa_graph::normalized_adjacency(&graph);

        let n = graph.node_count();
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let decisive = if i % 2 == 0 { 1.0 } else { -1.0 };
            let noise1 = ((i * 37) % 11) as f64 / 11.0 - 0.5;
            let noise2 = ((i * 53) % 7) as f64 / 7.0 - 0.5;
            // Feature layout: col 2 is decisive, others noise/constant.
            rows.push(vec![noise1, noise2, decisive, 0.3, noise1 * 0.1]);
            labels.push(i % 2 == 0);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&row_refs);

        let split = Split::stratified(&labels, 0.8, 4);
        let (model, _, eval) = try_train_classifier(
            &adj,
            &x,
            &labels,
            &split,
            GcnConfig {
                in_features: 5,
                hidden: vec![8],
                dropout: 0.0,
                seed: 6,
            },
            &TrainConfig {
                epochs: 150,
                learning_rate: 0.05,
                weight_decay: 0.0,
            },
        )
        .expect("the split validates");
        assert!(eval.accuracy > 0.9, "setup: model must learn the task");
        (graph, x, model)
    }

    fn ring_netlist(n: usize) -> fusa_netlist::Netlist {
        use fusa_netlist::{GateKind, NetlistBuilder};
        let mut b = NetlistBuilder::new("ring");
        let a = b.primary_input("a");
        let first = b.gate(GateKind::Buf, &[a]);
        let mut prev = first;
        for _ in 1..n {
            prev = b.gate(GateKind::Inv, &[prev]);
        }
        b.primary_output("z", prev);
        b.finish().unwrap()
    }

    #[test]
    fn explainer_finds_the_decisive_feature() {
        let (graph, x, model) = single_feature_task();
        let explainer = Explainer::new(&model, &graph, &x, ExplainerConfig { iterations: 80 });
        let explanation = explainer.explain(4);
        let top = explanation.ranked_features()[0];
        assert_eq!(
            top.0,
            FEATURE_NAMES[2],
            "decisive feature should rank first: {:?}",
            explanation.ranked_features()
        );
    }

    #[test]
    fn feature_ranks_are_a_permutation() {
        let (graph, x, model) = single_feature_task();
        let explainer = Explainer::new(&model, &graph, &x, ExplainerConfig { iterations: 10 });
        let explanation = explainer.explain(0);
        let mut ranks = explanation.feature_ranks();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn importance_scores_average_to_one() {
        let (graph, x, model) = single_feature_task();
        let explainer = Explainer::new(&model, &graph, &x, ExplainerConfig { iterations: 20 });
        let explanation = explainer.explain(2);
        let mean: f64 = explanation.feature_importance.iter().sum::<f64>() / FEATURE_COUNT as f64;
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_loss_decreases_or_stays_low() {
        let (graph, x, model) = single_feature_task();
        let explainer = Explainer::new(&model, &graph, &x, ExplainerConfig { iterations: 60 });
        let explanation = explainer.explain(6);
        let first = explanation.loss_trace[0];
        let last = *explanation.loss_trace.last().unwrap();
        // The masked prediction should remain at least as confident as it
        // started (the masks learn to keep what matters).
        assert!(last <= first + 0.1, "first {first}, last {last}");
    }

    #[test]
    fn edge_importance_is_restricted_to_neighborhood() {
        let (graph, x, model) = single_feature_task();
        let explainer = Explainer::new(&model, &graph, &x, ExplainerConfig { iterations: 5 });
        let node = 10;
        let explanation = explainer.explain(node);
        let hops = model.config().hidden.len() + 1;
        let hood: std::collections::HashSet<usize> =
            graph.k_hop_neighborhood(node, hops).into_iter().collect();
        for &(a, b, _) in &explanation.edge_importance {
            assert!(hood.contains(&a) && hood.contains(&b));
        }
    }

    #[test]
    fn global_importance_aggregates_ranks() {
        let (graph, x, model) = single_feature_task();
        let explainer = Explainer::new(&model, &graph, &x, ExplainerConfig { iterations: 40 });
        let global = explainer.global_importance(&[0, 3, 7, 12]);
        assert_eq!(global.nodes_explained, 4);
        // Ranks are averages of 1..=5.
        for &r in &global.mean_ranks {
            assert!((1.0..=5.0).contains(&r));
        }
        // The decisive feature should have the best (lowest) mean rank.
        let best = global
            .mean_ranks
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 2, "ranks {:?}", global.mean_ranks);
    }
}
