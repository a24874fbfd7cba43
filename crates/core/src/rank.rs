//! Zero-simulation static criticality ranking.
//!
//! Ranks every gate by structural measures alone — SCOAP testability
//! costs and graph centralities from
//! [`fusa_netlist::StructuralProfile`] — with no fault injection and no
//! training. This is the millisecond-latency triage baseline the
//! learned models are compared against: when campaign ground truth is
//! available, [`StaticRank::evaluate`] scores each channel and the
//! combined rank against it with Spearman's ρ.
//!
//! # Rank-score formula
//!
//! Each channel is oriented so *higher = more critical*:
//!
//! * `controllability` — `-ln(1 + max(CC0, CC1))`: cheap-to-control
//!   outputs see their stuck-at faults activated by many workloads;
//! * `observability` — `-ln(1 + CO)`: cheap-to-observe outputs
//!   propagate activated faults to an output before they decay;
//! * `testability` — the sum of the two (activation *and* propagation,
//!   the classic SCOAP D-score orientation inverted);
//! * `betweenness` — `ln(1 + Brandes betweenness)`: convergence
//!   corridors relay many source→sink paths;
//! * `pagerank` — gate-count-scaled PageRank (mean 1): influence flow;
//! * `dominance` — `ln(1 + post-dominated count)`: gates that shadow a
//!   whole cone's criticality.
//!
//! The combined score is a weighted mean of the *fractional ranks* of
//! the channels (rank-normalizing makes channels with wildly different
//! scales commensurable and is exactly the transform Spearman's ρ
//! applies anyway). Observability carries the largest weight, with
//! testability second: across the built-in designs the dominant failure
//! mode of a non-critical gate is an activated fault that never reaches
//! an output, which CO models directly.

use fusa_netlist::structural::cost_to_feature;
use fusa_netlist::{Netlist, StructuralProfile};
use fusa_neuro::metrics::spearman;
use std::fmt::Write as _;

/// Channel names, in the column order of [`StaticRank::channels`] and
/// [`StaticRank::to_csv`].
pub const RANK_CHANNEL_NAMES: [&str; 6] = [
    "controllability",
    "observability",
    "testability",
    "betweenness",
    "pagerank",
    "dominance",
];

/// Combined-rank weights, aligned with [`RANK_CHANNEL_NAMES`].
pub const CHANNEL_WEIGHTS: [f64; 6] = [0.5, 4.0, 2.0, 0.5, 1.0, 1.0];

/// The static criticality ranking of one design.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticRank {
    /// Raw channel values, `channels[c][gate]`, oriented so higher =
    /// more critical. Column order follows [`RANK_CHANNEL_NAMES`].
    pub channels: Vec<Vec<f64>>,
    /// Combined criticality score per gate in `[0, 1]`: the weighted
    /// mean of the channels' fractional ranks.
    pub combined: Vec<f64>,
}

/// Spearman correlation of every channel (and the combined rank)
/// against campaign ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct RankEvaluation {
    /// `(channel name, ρ)` per channel, in [`RANK_CHANNEL_NAMES`] order.
    pub channel_rho: Vec<(&'static str, f64)>,
    /// ρ of the combined rank.
    pub combined_rho: f64,
}

impl StaticRank {
    /// Computes the ranking for `netlist`, analyzing its structure.
    pub fn compute(netlist: &Netlist) -> StaticRank {
        let profile = StructuralProfile::analyze(netlist);
        StaticRank::from_profile(netlist, &profile)
    }

    /// Computes the ranking from an existing structural profile.
    pub fn from_profile(netlist: &Netlist, profile: &StructuralProfile) -> StaticRank {
        let n = netlist.gate_count();
        let mut control = Vec::with_capacity(n);
        let mut observe = Vec::with_capacity(n);
        let mut testability = Vec::with_capacity(n);
        for i in 0..n {
            let id = fusa_netlist::GateId(i as u32);
            let cc = -cost_to_feature(profile.gate_control_difficulty(netlist, id));
            let co = -cost_to_feature(profile.gate_co(netlist, id));
            control.push(cc);
            observe.push(co);
            testability.push(cc + co);
        }
        let betweenness: Vec<f64> = profile
            .betweenness
            .iter()
            .map(|&b| (1.0 + b).ln())
            .collect();
        let pagerank: Vec<f64> = profile.pagerank.iter().map(|&p| p * n as f64).collect();
        let dominance: Vec<f64> = profile
            .dominated
            .iter()
            .map(|&d| f64::from(1 + d).ln())
            .collect();
        let channels = vec![
            control,
            observe,
            testability,
            betweenness,
            pagerank,
            dominance,
        ];
        let weight_sum: f64 = CHANNEL_WEIGHTS.iter().sum();
        let mut combined = vec![0.0; n];
        for (channel, &weight) in channels.iter().zip(&CHANNEL_WEIGHTS) {
            for (c, &r) in combined.iter_mut().zip(&fractional_ranks(channel)) {
                *c += weight * r;
            }
        }
        for c in &mut combined {
            *c /= weight_sum;
        }
        StaticRank { channels, combined }
    }

    /// Gate indices sorted most-critical first (ties broken by index
    /// for determinism).
    pub fn ranking(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.combined.len()).collect();
        order.sort_by(|&a, &b| {
            self.combined[b]
                .partial_cmp(&self.combined[a])
                .expect("no NaN scores")
                .then(a.cmp(&b))
        });
        order
    }

    /// Spearman ρ of every channel and the combined rank against
    /// per-gate ground-truth criticality scores.
    ///
    /// # Panics
    ///
    /// Panics if `truth.len()` differs from the gate count.
    pub fn evaluate(&self, truth: &[f64]) -> RankEvaluation {
        assert_eq!(truth.len(), self.combined.len(), "score count mismatch");
        let channel_rho = RANK_CHANNEL_NAMES
            .iter()
            .zip(&self.channels)
            .map(|(&name, channel)| (name, spearman(channel, truth)))
            .collect();
        RankEvaluation {
            channel_rho,
            combined_rho: spearman(&self.combined, truth),
        }
    }

    /// Renders the ranking as CSV, most-critical gate first:
    /// `gate,combined,<channel columns>`.
    pub fn to_csv(&self, netlist: &Netlist) -> String {
        let mut out = String::from("gate,combined");
        for name in RANK_CHANNEL_NAMES {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');
        for i in self.ranking() {
            let _ = write!(out, "{},{:.6}", netlist.gates()[i].name, self.combined[i]);
            for channel in &self.channels {
                let _ = write!(out, ",{:.6}", channel[i]);
            }
            out.push('\n');
        }
        out
    }
}

/// Fractional ranks normalized to `[0, 1]`: the smallest value maps to
/// 0, the largest to 1, ties share their average rank.
fn fractional_ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    if n <= 1 {
        return vec![0.0; n];
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("no NaN values"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let average = (i + j) as f64 / 2.0;
        for &k in &order[i..=j] {
            ranks[k] = average / (n - 1) as f64;
        }
        i = j + 1;
    }
    ranks
}

/// Parses a `gate,score,label` CSV (the [`CriticalityDataset::to_csv`]
/// format, also written by `fusa faults --csv`) into per-gate scores
/// aligned with `netlist`'s gate order.
///
/// [`CriticalityDataset::to_csv`]: fusa_faultsim::CriticalityDataset::to_csv
///
/// # Errors
///
/// Returns a message naming the offending line or gate when the header
/// is missing, a row is malformed, a score is not a finite number, a
/// gate is unknown, or any gate has no score.
pub fn parse_ground_truth(netlist: &Netlist, csv: &str) -> Result<Vec<f64>, String> {
    let mut lines = csv.lines();
    match lines.next() {
        Some(header) if header.starts_with("gate,score") => {}
        other => {
            return Err(format!(
                "expected a 'gate,score,label' header, found {:?}",
                other.unwrap_or("")
            ))
        }
    }
    let mut scores: Vec<Option<f64>> = vec![None; netlist.gate_count()];
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let (name, score) = match (fields.next(), fields.next()) {
            (Some(name), Some(score)) => (name, score),
            _ => return Err(format!("line {}: malformed row {line:?}", lineno + 2)),
        };
        let gate = netlist
            .find_gate(name)
            .ok_or_else(|| format!("line {}: unknown gate {name:?}", lineno + 2))?;
        let value: f64 = score
            .trim()
            .parse()
            .ok()
            .filter(|value: &f64| value.is_finite())
            .ok_or_else(|| format!("line {}: bad score {score:?}", lineno + 2))?;
        scores[gate.index()] = Some(value);
    }
    scores
        .iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| format!("no score for gate {}", netlist.gates()[i].name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusa_netlist::designs;
    use fusa_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn channels_and_combined_have_gate_count_rows() {
        let netlist = designs::or1200_icfsm();
        let rank = StaticRank::compute(&netlist);
        assert_eq!(rank.channels.len(), RANK_CHANNEL_NAMES.len());
        for channel in &rank.channels {
            assert_eq!(channel.len(), netlist.gate_count());
            assert!(channel.iter().all(|v| v.is_finite()));
        }
        assert_eq!(rank.combined.len(), netlist.gate_count());
        assert!(rank.combined.iter().all(|&c| (0.0..=1.0).contains(&c)));
    }

    #[test]
    fn ranking_is_a_descending_permutation() {
        let netlist = designs::uart_ctrl();
        let rank = StaticRank::compute(&netlist);
        let order = rank.ranking();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..netlist.gate_count()).collect::<Vec<_>>());
        for pair in order.windows(2) {
            assert!(rank.combined[pair[0]] >= rank.combined[pair[1]]);
        }
    }

    #[test]
    fn csv_lists_most_critical_first() {
        let netlist = designs::or1200_icfsm();
        let rank = StaticRank::compute(&netlist);
        let csv = rank.to_csv(&netlist);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("gate,combined,controllability"));
        assert_eq!(lines.count(), netlist.gate_count());
    }

    #[test]
    fn fractional_ranks_normalize_and_average_ties() {
        let ranks = fractional_ranks(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(ranks[1], 0.0);
        assert_eq!(ranks[0], 1.0);
        assert!((ranks[2] - 0.5).abs() < 1e-12);
        assert_eq!(ranks[2], ranks[3]);
    }

    #[test]
    fn ground_truth_roundtrips_through_csv() {
        let mut b = NetlistBuilder::new("gt");
        let a = b.primary_input("a");
        let x = b.gate_named("X", GateKind::Inv, &[a]);
        let y = b.gate_named("Y", GateKind::Buf, &[x]);
        b.primary_output("z", y);
        let n = b.finish().unwrap();
        let scores = parse_ground_truth(&n, "gate,score,label\nY,0.7500,1\nX,0.2500,0\n").unwrap();
        assert_eq!(scores, vec![0.25, 0.75]);
        assert!(parse_ground_truth(&n, "nope\n").is_err());
        assert!(parse_ground_truth(&n, "gate,score,label\nZZZ,1.0,1\n").is_err());
        assert!(parse_ground_truth(&n, "gate,score,label\nX,0.25,0\n")
            .unwrap_err()
            .contains("no score"));
        for score in ["NaN", "inf", "-inf", "1e999"] {
            let csv = format!("gate,score,label\nY,0.75,1\nX,{score},0\n");
            let err = parse_ground_truth(&n, &csv).unwrap_err();
            assert!(err.contains("line 3") && err.contains(score), "{err}");
        }
    }

    #[test]
    fn evaluation_correlates_with_itself() {
        let netlist = designs::or1200_icfsm();
        let rank = StaticRank::compute(&netlist);
        let eval = rank.evaluate(&rank.combined);
        assert!((eval.combined_rho - 1.0).abs() < 1e-9);
        assert_eq!(eval.channel_rho.len(), RANK_CHANNEL_NAMES.len());
    }
}
