//! Differential test of row-restricted GCN inference.
//!
//! Training validates on a subset of nodes through an eval pass that
//! computes, layer by layer, only the rows the next layer reads. That pass
//! must reproduce the requested rows of the full pass bit for bit, on any
//! graph — including nodes with no stored entries at all — and for empty,
//! partial (unordered, repeated) and complete row sets.

use fusa_gcn::{GcnClassifier, GcnConfig};
use fusa_neuro::{CsrMatrix, Matrix};
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A random sparse adjacency on `n` nodes. Roughly one node in five is
/// isolated (no entries, not even a self-loop); the rest get a
/// self-loop and random weighted neighbours.
fn random_graph(rng: &mut ChaCha8Rng, n: usize) -> CsrMatrix {
    let isolated: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
    let mut triplets = Vec::new();
    for i in (0..n).filter(|&i| !isolated[i]) {
        triplets.push((i, i, rng.gen_range(0.1..1.0)));
        for j in (0..n).filter(|&j| j != i && !isolated[j]) {
            if rng.gen_bool(0.15) {
                triplets.push((i, j, rng.gen_range(-1.0..1.0)));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

fn random_features(rng: &mut ChaCha8Rng, n: usize, width: usize) -> Matrix {
    let data = (0..n * width)
        .map(|_| {
            if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect();
    Matrix::from_vec(n, width, data)
}

/// Row sets to request: empty, complete in order, and a random partial
/// set in arbitrary order with possible repeats.
fn row_sets(rng: &mut ChaCha8Rng, n: usize) -> Vec<Vec<usize>> {
    let partial_len = rng.gen_range(1..=n);
    let partial = (0..partial_len).map(|_| rng.gen_range(0..n)).collect();
    vec![Vec::new(), (0..n).collect(), partial]
}

fn assert_rows_bit_identical(full: &Matrix, restricted: &Matrix, rows: &[usize]) {
    assert_eq!(restricted.rows(), rows.len());
    for (k, &r) in rows.iter().enumerate() {
        let want: Vec<u64> = full.row(r).iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = restricted.row(k).iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "row {r} (position {k}) differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn restricted_inference_matches_full_inference(
        seed: u64,
        n in 1usize..40,
        in_features in 1usize..5,
        depth in 1usize..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let adj = random_graph(&mut rng, n);
        let x = random_features(&mut rng, n, in_features);
        let config = GcnConfig {
            in_features,
            hidden: (0..depth).map(|_| rng.gen_range(1..7)).collect(),
            dropout: 0.3,
            seed,
        };
        let classifier = GcnClassifier::new(config);
        let full = classifier.forward_inference(&adj, &x);
        for rows in row_sets(&mut rng, n) {
            let plan = classifier.row_plan(&adj, &rows);
            assert_rows_bit_identical(
                &full,
                &classifier.forward_inference_rows(&adj, &x, &plan),
                &rows,
            );
        }
    }
}
