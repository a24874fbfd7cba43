//! `--check A B`: compares two sets of runs, as recorded with `--out`,
//! metric by metric and workload by workload, under the bounds of
//! `BENCHMARK.json`.

use crate::stats::{median, quartiles};
use fusa_obs::Json;
use std::path::Path;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
struct MetricSpec {
    name: String,
    lower_is_better: bool,
    /// Share of A's median by which B may be worse; per-layer metrics
    /// have none and are shown, not gated.
    bound: Option<f64>,
}

/// Prints the comparison; `Ok(false)` when B is worse than A by more
/// than a bound on some end-to-end metric, or when a count or digest of
/// the same workload and seed differs.
pub fn check(a: &Path, b: &Path, bench: &Path) -> Result<bool, String> {
    let specs = metric_specs(&read(bench)?)?;
    let runs_a = read_runs(a)?;
    let runs_b = read_runs(b)?;
    let mut workloads: Vec<&str> = Vec::new();
    for run in &runs_a {
        let name = str_field(run, "workload")?;
        if !workloads.contains(&name) {
            workloads.push(name);
        }
    }
    let mut ok = true;
    for workload in workloads {
        let of = |runs: &'_ [Json]| -> Vec<Json> {
            runs.iter()
                .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
                .cloned()
                .collect()
        };
        let (side_a, side_b) = (of(&runs_a), of(&runs_b));
        println!(
            "{workload}: A {} runs, B {} runs",
            side_a.len(),
            side_b.len()
        );
        if side_b.is_empty() {
            println!("  no B runs: not compared");
            ok = false;
            continue;
        }
        for spec in &specs {
            let (va, vb) = (values(&side_a, &spec.name), values(&side_b, &spec.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let (qa1, qa3) = quartiles(&va);
            let (qb1, qb3) = quartiles(&vb);
            let worse = match (ma == 0.0, spec.lower_is_better) {
                (true, _) => 0.0,
                (false, true) => (mb - ma) / ma,
                (false, false) => (ma - mb) / ma,
            };
            let delta = if (mb - ma).abs() < qa3 - qa1 {
                "below noise floor".to_string()
            } else if ma == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:+.2}%", (mb - ma) / ma * 100.0)
            };
            let verdict = match spec.bound {
                Some(bound) if worse > bound => {
                    ok = false;
                    format!("REGRESSION (bound {:.0}%)", bound * 100.0)
                }
                Some(bound) => format!("ok (bound {:.0}%)", bound * 100.0),
                None => String::new(),
            };
            println!(
                "  {:<30} A {ma:>12.6} [{qa1:.6}, {qa3:.6}] n={:<3} B {mb:>12.6} [{qb1:.6}, {qb3:.6}] n={:<3} {delta:>18}  {verdict}",
                spec.name,
                va.len(),
                vb.len(),
            );
        }
        for run in &side_a {
            let seed = run.get("seed").and_then(Json::as_u64);
            let twin = side_b
                .iter()
                .find(|r| r.get("seed").and_then(Json::as_u64) == seed);
            for key in ["counts", "digests"] {
                if let Some(twin) = twin {
                    if run.get(key) != twin.get(key) {
                        ok = false;
                        println!("  MISMATCH seed {}: {key} differ", seed.unwrap_or(0));
                    }
                }
            }
        }
    }
    Ok(ok)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))
}

/// One JSON record per non-empty line.
fn read_runs(path: &Path) -> Result<Vec<Json>, String> {
    read(path)?
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| Json::parse(line).map_err(|e| format!("`{}`: {e}", path.display())))
        .collect()
}

fn str_field<'a>(json: &'a Json, key: &str) -> Result<&'a str, String> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("record lacks string `{key}`"))
}

/// The end-to-end metrics, with bounds, then the per-layer ones.
fn metric_specs(bench: &str) -> Result<Vec<MetricSpec>, String> {
    let json = Json::parse(bench).map_err(|e| format!("bad BENCHMARK.json: {e}"))?;
    let mut specs = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let metrics = json
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json lacks `{section}`"))?;
        for metric in metrics {
            specs.push(MetricSpec {
                name: str_field(metric, "name")?.to_string(),
                lower_is_better: str_field(metric, "better")? == "lower",
                bound: if bounded {
                    Some(
                        metric
                            .get("bound")
                            .and_then(Json::as_f64)
                            .ok_or("end-to-end metric lacks `bound`")?,
                    )
                } else {
                    None
                },
            });
        }
    }
    Ok(specs)
}

/// The metric's value in every run that reported it.
fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_carry_bounds_only_for_end_to_end_metrics() {
        let bench = r#"{"end_to_end": [{"name": "command_norm_s", "unit": "s", "better": "lower", "bound": 0.1}],
                        "per_layer": [{"name": "core.gcn_auc", "unit": "frac", "better": "higher"}]}"#;
        let specs = metric_specs(bench).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].bound, Some(0.1));
        assert!(specs[0].lower_is_better);
        assert_eq!(specs[1].bound, None);
        assert!(!specs[1].lower_is_better);
    }

    #[test]
    fn bounds_counts_and_digests_gate_the_exit_status() {
        let dir = std::env::temp_dir().join(format!("bench_pipeline_check_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("BENCHMARK.json");
        std::fs::write(
            &bench,
            r#"{"end_to_end": [{"name": "command_norm_s", "unit": "s", "better": "lower", "bound": 0.1}], "per_layer": []}"#,
        )
        .unwrap();
        let runs = |name: &str, seconds: &[f64], cycles: u64| {
            let path = dir.join(name);
            let lines: String = seconds
                .iter()
                .enumerate()
                .map(|(seed, s)| {
                    format!(
                        "{{\"workload\":\"paper\",\"seed\":{seed},\"metrics\":{{\"command_norm_s\":{{\"value\":{s},\"unit\":\"s\"}}}},\"counts\":{{\"fault_cycles\":{cycles}}},\"digests\":{{}}}}\n"
                    )
                })
                .collect();
            std::fs::write(&path, lines).unwrap();
            path
        };
        let a = runs("a.jsonl", &[2.0, 2.1, 2.2], 7);
        let same = runs("same.jsonl", &[2.05, 2.15, 2.1], 7);
        let slow = runs("slow.jsonl", &[2.5, 2.6, 2.7], 7);
        let recounted = runs("recounted.jsonl", &[2.0, 2.1, 2.2], 8);
        assert!(check(&a, &same, &bench).unwrap());
        assert!(!check(&a, &slow, &bench).unwrap());
        assert!(check(&slow, &a, &bench).unwrap());
        assert!(!check(&a, &recounted, &bench).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
