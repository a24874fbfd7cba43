//! E3 — Table 1: the GCN network configuration.
//!
//! Usage: `cargo run -p fusa-bench --bin table1 [-- --smoke]`

use fusa_gcn::{GcnClassifier, GcnConfig};

fn main() {
    let model = GcnClassifier::new(GcnConfig::default());
    println!("Table 1. GCN Network configuration.");
    println!("{}", model.summary());
    println!("trainable parameters: {}", model.parameter_count());
    println!("\nRegression variant (§3.4): output dim 1, no LogSoftmax:");
    println!("{}", GcnConfig::default().summary(1, false));
}
