//! An epoch allocates nothing as large as an activation.
//!
//! Training keeps every graph-sized buffer (activations, the `Â·H` caches,
//! masks, gradients, validation's restricted pass) for the whole run, so
//! once the first epoch has sized them, more epochs add no allocation of
//! `N × 16` `f64`s or more (16 is the narrowest hidden width of Table 1).
//! A counting global allocator checks this by training the same inputs
//! for one epoch and for three: both runs must make the same number of
//! such allocations.

use fusa_gcn::train::{train_regressor, try_train_classifier, TrainConfig};
use fusa_gcn::GcnConfig;
use fusa_neuro::split::Split;
use fusa_neuro::{CsrMatrix, Matrix};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts allocations of at least [`THRESHOLD`] bytes.
struct Counting;

/// Bytes from which an allocation counts; `usize::MAX` counts none.
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged; counting touches only two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A random graph on `n` nodes: self-loops plus about four random
/// neighbours each, symmetric, with positive weights.
fn random_graph(rng: &mut ChaCha8Rng, n: usize) -> CsrMatrix {
    let mut triplets: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 0.5)).collect();
    for i in 0..n {
        for _ in 0..2 {
            let j = rng.gen_range(0..n);
            let w = rng.gen_range(0.05..0.3);
            triplets.push((i, j, w));
            triplets.push((j, i, w));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// Large allocations made by `run`.
fn large_allocations(run: impl FnOnce()) -> usize {
    LARGE.store(0, Ordering::Relaxed);
    run();
    LARGE.load(Ordering::Relaxed)
}

#[test]
fn epochs_after_the_first_allocate_nothing_activation_sized() {
    let n = 3000;
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    let adj = random_graph(&mut rng, n);
    let features = Matrix::from_vec(n, 5, (0..n * 5).map(|_| rng.gen_range(-1.0..1.0)).collect());
    let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
    let scores: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.1 }).collect();
    let split = Split::stratified(&labels, 0.8, 3);
    let model = GcnConfig {
        in_features: 5,
        ..GcnConfig::default()
    };
    let config = |epochs| TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    THRESHOLD.store(n * 16 * std::mem::size_of::<f64>(), Ordering::Relaxed);

    let classifier = |epochs| {
        large_allocations(|| {
            try_train_classifier(
                &adj,
                &features,
                &labels,
                &split,
                model.clone(),
                &config(epochs),
            )
            .expect("the split validates");
        })
    };
    let (one, three) = (classifier(1), classifier(3));
    assert!(one > 0, "the first epoch sizes the buffers");
    assert_eq!(one, three, "classifier: 1 epoch vs 3 epochs");

    let regressor = |epochs| {
        large_allocations(|| {
            train_regressor(
                &adj,
                &features,
                &scores,
                &split,
                model.clone(),
                &config(epochs),
            );
        })
    };
    assert_eq!(regressor(1), regressor(3), "regressor: 1 epoch vs 3 epochs");
}
