//! End-to-end tests of the `fusa` command-line binary.

use std::process::Command;

fn fusa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fusa"))
}

#[test]
fn designs_lists_all_builtins() {
    let output = fusa().arg("designs").output().expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in ["sdram_ctrl", "or1200_if", "or1200_icfsm", "uart_ctrl"] {
        assert!(stdout.contains(name), "missing {name} in {stdout}");
    }
}

#[test]
fn stats_works_on_builtin_and_verilog_file() {
    let output = fusa().args(["stats", "or1200_icfsm"]).output().unwrap();
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("design or1200_icfsm"));

    // Round-trip through a Verilog file on disk.
    let netlist = fusa::netlist::designs::or1200_icfsm();
    let dir = std::env::temp_dir().join("fusa_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("icfsm.v");
    std::fs::write(&path, fusa::netlist::writer::write_verilog(&netlist)).unwrap();
    let output = fusa()
        .args(["stats", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);
    assert!(String::from_utf8_lossy(&output.stdout).contains("gates 187"));
}

#[test]
fn analyze_fast_produces_report_and_artifacts() {
    let dir = std::env::temp_dir().join("fusa_cli_analyze");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("report.txt");
    let csv = dir.join("nodes.csv");
    let model = dir.join("model.txt");
    let run_dir = dir.join("run");
    let output = fusa()
        .args([
            "analyze",
            "or1200_icfsm",
            "--fast",
            "--report",
            report.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
            "--save-model",
            model.to_str().unwrap(),
            "--run-dir",
            run_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("validation accuracy"));
    assert!(stdout.contains("run manifest:"));

    let report_text = std::fs::read_to_string(&report).unwrap();
    assert!(report_text.contains("Fault criticality report"));
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("node,predicted_critical"));
    // The saved model loads back.
    let file = std::fs::File::open(&model).unwrap();
    let restored = fusa::gcn::persist::load_classifier(file).expect("model loads");
    assert_eq!(restored.config().in_features, fusa::graph::FEATURE_COUNT);
}

#[test]
fn lint_passes_builtin_at_default_severity() {
    let output = fusa().args(["lint", "sdram_ctrl"]).output().unwrap();
    assert!(output.status.success(), "{:?}", output);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("lint sdram_ctrl: 11 passes"), "{stdout}");
    assert!(stdout.contains("0 errors"), "{stdout}");
    assert!(stdout.contains("0 warnings"), "{stdout}");
}

#[test]
fn lint_deny_info_fails_with_nonzero_exit() {
    let output = fusa()
        .args(["lint", "sdram_ctrl", "--deny", "info"])
        .output()
        .unwrap();
    assert!(!output.status.success(), "info findings must deny");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("lint failed:"), "{stderr}");
}

#[test]
fn lint_deny_warnings_passes_on_clean_builtins() {
    // Odd designs put the flag before the design.
    for (i, design) in ["sdram_ctrl", "or1200_if", "or1200_icfsm", "uart_ctrl"]
        .into_iter()
        .enumerate()
    {
        let args = match i % 2 {
            0 => ["lint", design, "--deny", "warnings"],
            _ => ["lint", "--deny", "warnings", design],
        };
        let output = fusa().args(args).output().unwrap();
        assert!(
            output.status.success(),
            "{design} not warning-clean: {output:?}"
        );
    }
}

#[test]
fn lint_json_and_csv_render() {
    let json = fusa()
        .args(["lint", "or1200_icfsm", "--json"])
        .output()
        .unwrap();
    assert!(json.status.success());
    let body = String::from_utf8_lossy(&json.stdout);
    assert!(body.trim_start().starts_with('{'), "{body}");
    assert!(body.contains("\"design\": \"or1200_icfsm\""), "{body}");
    assert!(body.contains("\"findings\": ["), "{body}");

    let csv = fusa()
        .args(["lint", "or1200_icfsm", "--csv"])
        .output()
        .unwrap();
    assert!(csv.status.success());
    let body = String::from_utf8_lossy(&csv.stdout);
    assert!(
        body.starts_with("design,pass,code,severity,gate,net,message"),
        "{body}"
    );
}

#[test]
fn lint_rejects_bad_deny_level() {
    let output = fusa()
        .args(["lint", "sdram_ctrl", "--deny", "fatal"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("bad --deny level"));
}

#[test]
fn faults_summarizes_campaign() {
    let dir = std::env::temp_dir().join("fusa_cli_faults");
    let run_dir = dir.join("run");
    let output = fusa()
        .args([
            "faults",
            "or1200_icfsm",
            "--fast",
            "--run-dir",
            run_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("campaign:"));
    assert!(stdout.contains("Algorithm 1:"));

    // The lint context's testability profile is split into its SCOAP
    // fixpoints and its graph passes.
    let manifest = fusa::obs::RunManifest::parse(
        &std::fs::read_to_string(run_dir.join("manifest.json")).unwrap(),
    )
    .expect("manifest parses");
    let has_stage = |manifest: &fusa::obs::RunManifest, path: &str| {
        assert!(
            manifest.stages.iter().any(|s| s.name == path),
            "stage `{path}` missing from {:?}",
            manifest.stages.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    };
    for child in ["structural.scoap", "structural.graph"] {
        has_stage(&manifest, &format!("lint/lint.testability/{child}"));
    }
    // Fingerprinting the campaign for its checkpoint header, writing the
    // checkpoint and replaying it on resume are timed.
    has_stage(&manifest, "campaign/header");
    has_stage(&manifest, "campaign/checkpoint");
    let output = fusa()
        .args([
            "faults",
            "or1200_icfsm",
            "--fast",
            "--resume",
            "--run-dir",
            run_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let resumed = fusa::obs::RunManifest::parse(
        &std::fs::read_to_string(run_dir.join("manifest.json")).unwrap(),
    )
    .expect("manifest parses");
    has_stage(&resumed, "campaign/header");
    has_stage(&resumed, "campaign/replay");
}

#[test]
fn analyze_writes_parseable_manifest_with_stage_coverage() {
    use fusa::obs::RunManifest;

    let dir = std::env::temp_dir().join("fusa_cli_manifest");
    let run_dir = dir.join("run");
    let trace = dir.join("trace.jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let output = fusa()
        .args([
            "analyze",
            "or1200_icfsm",
            "--fast",
            "--run-dir",
            run_dir.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);

    let manifest_path = run_dir.join("manifest.json");
    let manifest = RunManifest::parse(&std::fs::read_to_string(&manifest_path).unwrap())
        .expect("manifest parses");
    assert_eq!(manifest.design, "or1200_icfsm");
    assert_eq!(manifest.run_id, "analyze-or1200_icfsm");
    assert!(manifest.wall_seconds > 0.0);

    // Acceptance: per-stage wall times sum to within 10% of the total.
    assert!(
        manifest.stage_coverage() >= 0.9,
        "stage coverage {:.3} (top-level {:.3}s of {:.3}s)",
        manifest.stage_coverage(),
        manifest.top_level_stage_seconds(),
        manifest.wall_seconds,
    );
    for name in [
        "graph",
        "features",
        "fault-list",
        "workloads",
        "campaign",
        "train",
    ] {
        assert!(
            manifest.stages.iter().any(|s| s.name == name),
            "stage `{name}` missing from {:?}",
            manifest.stages.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
    // `--fast` trains 80 epochs and records the best epoch and the last
    // loss.
    assert!(manifest
        .counters
        .iter()
        .any(|(name, value)| name == "train.epochs" && *value == 80));
    for gauge in ["train.best_epoch", "train.final_loss"] {
        assert!(
            manifest.gauges.iter().any(|(name, _)| name == gauge),
            "gauge `{gauge}` missing from {:?}",
            manifest.gauges
        );
    }
    assert!(manifest.seeds.iter().any(|(name, _)| name == "split"));
    assert_eq!(manifest.digests.len(), 3); // report.txt, nodes.csv, lint.csv
    for (_, digest) in &manifest.digests {
        assert!(digest.starts_with("fnv1a64:"), "{digest}");
    }

    // Acceptance: the manifest carries the four pipeline histograms
    // with ordered quantile estimates.
    for name in [
        "campaign.unit_seconds",
        "campaign.unit_gate_evals",
        "train.epoch_seconds",
        "train.loss",
    ] {
        let summary = manifest
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
            .unwrap_or_else(|| panic!("histogram `{name}` missing"));
        assert!(summary.count > 0, "{name} empty");
        assert!(
            summary.p50 <= summary.p90 && summary.p90 <= summary.p99,
            "{name} quantiles out of order"
        );
    }
    // Build provenance is recorded (rustc is always probeable in CI).
    assert!(manifest.build.iter().any(|(key, _)| key == "rustc"));

    // The trace is line-delimited JSON with span and epoch events.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.lines().count() > 10);
    let mut kinds = std::collections::BTreeSet::new();
    for line in trace_text.lines() {
        let event = fusa::obs::Json::parse(line).expect("trace line parses");
        let kind = event
            .get("kind")
            .and_then(fusa::obs::Json::as_str)
            .expect("event has kind");
        if kind == "epoch" {
            for field in ["epoch", "loss", "val_accuracy", "seconds"] {
                assert!(
                    event.get(field).is_some(),
                    "epoch event without `{field}`: {line}"
                );
            }
        }
        kinds.insert(kind.to_string());
    }
    assert!(kinds.contains("span"), "{kinds:?}");
    assert!(kinds.contains("epoch"), "{kinds:?}");
    assert!(kinds.contains("campaign"), "{kinds:?}");
}

/// The `train` stage is accounted for by its per-epoch children, so
/// `fusa report` shows where training time goes.
#[test]
fn train_stage_children_cover_its_wall_time() {
    use fusa::obs::RunManifest;

    let run_dir = std::env::temp_dir().join("fusa_cli_train_spans");
    let output = fusa()
        .args(["analyze", "or1200_icfsm", "--fast", "--run-dir"])
        .arg(&run_dir)
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);
    let manifest =
        RunManifest::parse(&std::fs::read_to_string(run_dir.join("manifest.json")).unwrap())
            .expect("manifest parses");
    let seconds = |path: &str| {
        manifest
            .stages
            .iter()
            .find(|s| s.name == path)
            .map(|s| s.seconds)
            .unwrap_or_else(|| panic!("stage `{path}` missing"))
    };
    let train = seconds("train");
    let children: f64 = [
        "forward",
        "backward",
        "optimizer",
        "trunk",
        "validation",
        "snapshot",
    ]
    .iter()
    .map(|child| seconds(&format!("train/train.{child}")))
    .sum();
    assert!(
        children >= 0.9 * train,
        "train children cover {children:.4}s of {train:.4}s"
    );
}

/// Runtime failures print their one-line error; the usage text is for
/// argument errors only.
#[test]
fn runtime_error_prints_one_line_without_usage() {
    let tmp = std::env::temp_dir();
    let missing = tmp.join("fusa_cli_no_such_design.v");
    let missing = missing.to_str().unwrap();
    let run_dir = tmp.join("fusa_cli_bad_lanes");
    let run_dir = run_dir.to_str().unwrap();
    // A five-line netlist declaring ten million inputs.
    let wide = tmp.join(format!("fusa_cli_wide_range_{}.v", std::process::id()));
    std::fs::write(
        &wide,
        "module t (a, z);\n input [9999999:0] a;\n output z;\n assign z = a[0];\nendmodule\n",
    )
    .unwrap();
    let wide = wide.to_str().unwrap();
    // A 1.8 KB netlist whose one declaration lists 300 names of 2^16
    // bits each: every range is within its bound, the total is not.
    let many = tmp.join(format!("fusa_cli_many_names_{}.v", std::process::id()));
    let names: Vec<String> = (0..300).map(|i| format!("w{i}")).collect();
    std::fs::write(
        &many,
        format!(
            "module t (a, z);\n wire [65535:0] {};\n input a;\n output z;\n assign z = a;\nendmodule\n",
            names.join(", ")
        ),
    )
    .unwrap();
    let many = many.to_str().unwrap();
    // Ground truth whose score is not a number.
    let nan_truth = tmp.join(format!("fusa_cli_nan_truth_{}.csv", std::process::id()));
    std::fs::write(&nan_truth, "gate,score,label\nU0,NaN,1\n").unwrap();
    let nan_truth = nan_truth.to_str().unwrap();
    let cases: [(&[&str], &[&str]); 6] = [
        (&["analyze", missing, "--fast"], &["error: cannot read"]),
        (
            &["stats", wide],
            &["error: cannot parse", "line 2", "10000000 bits"],
        ),
        (
            &["stats", many],
            &["error: cannot parse", "line 2", "19660800 bits"],
        ),
        // A thread count that does not parse is an error, not the
        // one-per-CPU default.
        (
            &[
                "faults",
                "uart_ctrl",
                "--threads",
                "abc",
                "--run-dir",
                run_dir,
            ],
            &["error: bad --threads value `abc`"],
        ),
        (
            &[
                "faults",
                "uart_ctrl",
                "--threads",
                "-3",
                "--run-dir",
                run_dir,
            ],
            &["error: bad --threads value `-3`"],
        ),
        (
            &[
                "rank",
                "or1200_icfsm",
                "--ground-truth",
                nan_truth,
                "--run-dir",
                run_dir,
            ],
            &["error: bad ground truth", "line 2", "\"NaN\""],
        ),
    ];
    for (args, expected) in cases {
        let output = fusa().args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let lines: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
        assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
        assert!(lines[0].starts_with(expected[0]), "{args:?}: {stderr}");
        for text in expected {
            assert!(lines[0].contains(text), "{args:?}: {stderr}");
        }
        assert!(!stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(wide).ok();
    std::fs::remove_file(many).ok();
    std::fs::remove_file(nan_truth).ok();
}

/// The manifest names the commit the binary was built from: `build.rs`
/// reruns when a commit moves the branch, not only when HEAD changes.
#[test]
fn manifest_records_the_built_commit() {
    use fusa::obs::RunManifest;

    let root = env!("CARGO_MANIFEST_DIR");
    let head = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .output();
    let head = match head {
        Ok(out) if out.status.success() && std::path::Path::new(root).join(".git").exists() => {
            String::from_utf8(out.stdout).unwrap().trim().to_string()
        }
        _ => {
            eprintln!("skipped: no git checkout at {root}");
            return;
        }
    };
    let run_dir = std::env::temp_dir().join("fusa_cli_build_commit");
    let output = fusa()
        .args(["faults", "or1200_icfsm", "--fast", "--run-dir"])
        .arg(&run_dir)
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let text = std::fs::read_to_string(run_dir.join("manifest.json")).unwrap();
    let manifest = RunManifest::parse(&text).expect("manifest parses");
    let commit = manifest
        .build
        .iter()
        .find(|(key, _)| key == "git_commit")
        .map(|(_, value)| value.as_str());
    assert_eq!(commit, Some(head.as_str()));
}

#[test]
fn analyze_rejects_a_design_too_small_to_validate() {
    // One critical gate (g1 drives the output) and one benign gate (g2 is
    // unobservable): the labels are not degenerate, but the stratified
    // split puts both one-member classes in training.
    let dir = std::env::temp_dir().join("fusa_cli_two_gates");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("two_gates.v");
    std::fs::write(
        &path,
        "module two_gates (a, b, y);\n  input a, b;\n  output y;\n  wire n2;\n  \
         ND2 g1 (.A(a), .B(b), .Z(y));\n  IV g2 (.A(a), .Z(n2));\nendmodule\n",
    )
    .unwrap();
    for (mode, extra) in [("fast", Some("--fast")), ("default", None)] {
        let output = fusa()
            .arg("analyze")
            .arg(&path)
            .arg("--run-dir")
            .arg(dir.join(mode))
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{mode}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let lines: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
        assert_eq!(lines.len(), 1, "{mode}: {stderr}");
        assert!(
            lines[0].starts_with("error: no node left for validation"),
            "{mode}: {stderr}"
        );
    }
}

/// Every file under `dir`, recursively.
fn files_under(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.push(path);
        }
    }
    files
}

/// The degenerate-design matrix. Designs whose every node is critical (a
/// lone gate, a bare `assign`, a 41-inverter chain) stop `analyze` and
/// `explain` with one typed line, while `faults`, `rank` and `seu`, which
/// need no labels, run; none of their JSON, JSONL or CSV artifacts holds
/// a NaN number. A design without outputs and a net with two drivers are
/// rejected at parse.
#[test]
fn degenerate_designs_stop_on_one_line_or_run_without_nan() {
    let dir = std::env::temp_dir().join("fusa_cli_degenerate");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut chain = String::from("module chain (a, y);\n  input a;\n  output y;\n");
    for i in 1..=40 {
        chain += &format!("  wire n{i};\n");
    }
    chain += "  IV g0 (.A(a), .Z(n1));\n";
    for i in 1..40 {
        chain += &format!("  IV g{i} (.A(n{i}), .Z(n{}));\n", i + 1);
    }
    chain += "  IV g40 (.A(n40), .Z(y));\nendmodule\n";
    let designs = [
        (
            "one_gate",
            "module one_gate (a, b, y);\n  input a, b;\n  output y;\n  \
             ND2 g1 (.A(a), .B(b), .Z(y));\nendmodule\n"
                .to_string(),
            "g1",
            1,
        ),
        (
            "bare_assign",
            "module bare_assign (a, y);\n  input a;\n  output y;\n  assign y = a;\nendmodule\n"
                .to_string(),
            "ASSIGN0",
            1,
        ),
        ("chain", chain, "g20", 41),
    ];
    let one_line = |output: &std::process::Output| -> String {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let lines: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
        assert_eq!(lines.len(), 1, "{stderr}");
        lines[0].to_string()
    };
    for (name, source, gate, nodes) in designs {
        let path = dir.join(format!("{name}.v"));
        std::fs::write(&path, source).unwrap();
        let degenerate = format!("error: degenerate labels: {nodes}/{nodes} nodes critical;");
        for (command, gate) in [("analyze", None), ("explain", Some(gate))] {
            let output = fusa()
                .arg(command)
                .arg(&path)
                .args(gate)
                .arg("--fast")
                .arg("--run-dir")
                .arg(dir.join(format!("{name}-{command}")))
                .output()
                .unwrap();
            assert_eq!(
                output.status.code(),
                Some(1),
                "{name} {command}: {output:?}"
            );
            let line = one_line(&output);
            assert!(line.starts_with(&degenerate), "{name} {command}: {line}");
        }
        for (command, args) in [
            ("faults", vec!["--fast", "--csv"]),
            ("rank", vec!["--csv"]),
            ("seu", vec!["--fast"]),
        ] {
            let run_dir = dir.join("ok").join(format!("{name}-{command}"));
            std::fs::create_dir_all(&run_dir).unwrap();
            let mut cmd = fusa();
            cmd.arg(command).arg(&path).args(&args);
            if args.contains(&"--csv") {
                cmd.arg(run_dir.join(format!("{command}.csv")));
            }
            let output = cmd.arg("--run-dir").arg(&run_dir).output().unwrap();
            assert!(output.status.success(), "{name} {command}: {output:?}");
        }
    }
    // A NaN number is the token, whatever its case; `dominance` holds the
    // letters but is no such token.
    let artifacts: Vec<_> = files_under(&dir.join("ok"))
        .into_iter()
        .filter(|p| {
            p.extension()
                .is_some_and(|e| e == "json" || e == "jsonl" || e == "csv")
        })
        .collect();
    assert!(artifacts.len() >= 9, "{artifacts:?}");
    for path in artifacts {
        let text = std::fs::read_to_string(&path).unwrap();
        let nan = text
            .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .any(|token| token.eq_ignore_ascii_case("nan"));
        assert!(!nan, "{} holds a NaN: {text}", path.display());
    }
    for (name, source, message) in [
        (
            "no_outputs",
            "module no_outputs (a, b);\n  input a, b;\n  wire n1;\n  \
             ND2 g1 (.A(a), .B(b), .Z(n1));\nendmodule\n",
            "design has no primary outputs",
        ),
        (
            "two_drivers",
            "module two_drivers (a, b, y);\n  input a, b;\n  output y;\n  \
             IV g1 (.A(a), .Z(y));\n  IV g2 (.A(b), .Z(y));\nendmodule\n",
            "net `y` has multiple drivers",
        ),
    ] {
        let path = dir.join(format!("{name}.v"));
        std::fs::write(&path, source).unwrap();
        for command in ["analyze", "faults", "rank"] {
            let output = fusa()
                .arg(command)
                .arg(&path)
                .arg("--run-dir")
                .arg(dir.join(format!("{name}-{command}")))
                .output()
                .unwrap();
            assert_eq!(
                output.status.code(),
                Some(1),
                "{name} {command}: {output:?}"
            );
            let line = one_line(&output);
            assert!(
                line.starts_with("error: cannot parse") && line.ends_with(message),
                "{name} {command}: {line}"
            );
        }
    }
}

#[test]
fn same_seed_runs_produce_identical_digests() {
    use fusa::obs::RunManifest;

    let dir = std::env::temp_dir().join("fusa_cli_determinism");
    // Run "b" puts every flag before the design: the order of flags and
    // positionals must not matter.
    let manifests: Vec<RunManifest> = ["a", "b"]
        .iter()
        .map(|sub| {
            let run_dir = dir.join(sub);
            let flags = [
                "--fast",
                "--quiet-stats",
                "--run-dir",
                run_dir.to_str().unwrap(),
            ];
            let output = match *sub {
                "a" => fusa().args(["faults", "or1200_icfsm"]).args(flags).output(),
                _ => fusa()
                    .arg("faults")
                    .args(flags)
                    .arg("or1200_icfsm")
                    .output(),
            }
            .unwrap();
            assert!(output.status.success(), "{:?}", output);
            RunManifest::parse(&std::fs::read_to_string(run_dir.join("manifest.json")).unwrap())
                .expect("manifest parses")
        })
        .collect();
    assert!(!manifests[0].digests.is_empty());
    assert_eq!(
        manifests[0].digests, manifests[1].digests,
        "same-seed runs must produce identical artifact digests"
    );
    assert_eq!(manifests[0].seeds, manifests[1].seeds);
}

#[test]
fn compare_gates_same_seed_runs_and_detects_regressions() {
    use fusa::obs::{Json, RunManifest};

    // Two same-seed runs: digests identical, wall times within noise.
    let dir = std::env::temp_dir().join("fusa_cli_compare");
    for sub in ["a", "b"] {
        let run_dir = dir.join(sub);
        let output = fusa()
            .args([
                "faults",
                "or1200_icfsm",
                "--fast",
                "--quiet-stats",
                "--run-dir",
                run_dir.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(output.status.success(), "{:?}", output);
    }
    let baseline = dir.join("a");
    let candidate = dir.join("b");

    // Same-seed compare with a generous tolerance exits 0.
    let output = fusa()
        .args([
            "compare",
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            "--tolerance-pct",
            "200",
            "--min-seconds",
            "0.2",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}\n{:?}", output);
    assert!(stdout.contains("result: OK"), "{stdout}");
    assert!(stdout.contains("same-seed yes"), "{stdout}");

    // JSON output parses and reports no regression.
    let output = fusa()
        .args([
            "compare",
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            "--tolerance-pct",
            "200",
            "--min-seconds",
            "0.2",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);
    let doc = Json::parse(String::from_utf8_lossy(&output.stdout).trim()).expect("json parses");
    assert_eq!(doc.get("regression"), Some(&Json::Bool(false)));

    // Inject a >10% stage-time regression into a copy of the candidate
    // manifest: compare must exit nonzero and name the stage.
    let manifest_path = candidate.join("manifest.json");
    let mut slowed = RunManifest::parse(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    for stage in &mut slowed.stages {
        stage.seconds *= 2.0;
    }
    let slowed_dir = dir.join("slowed");
    std::fs::create_dir_all(&slowed_dir).unwrap();
    std::fs::write(slowed_dir.join("manifest.json"), slowed.to_json()).unwrap();
    let output = fusa()
        .args([
            "compare",
            baseline.to_str().unwrap(),
            slowed_dir.to_str().unwrap(),
            "--min-seconds",
            "0.001",
        ])
        .output()
        .unwrap();
    assert!(!output.status.success(), "doubled stage times must gate");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("result: REGRESSION"), "{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
}

#[test]
fn progress_flag_emits_heartbeat_lines() {
    let run_dir = std::env::temp_dir().join("fusa_cli_progress").join("run");
    let output = fusa()
        .args([
            "faults",
            "or1200_icfsm",
            "--fast",
            "--quiet-stats",
            "--progress",
            "--run-dir",
            run_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("[fusa] campaign:"), "{stderr}");
    assert!(stderr.contains("units"), "{stderr}");
}

#[test]
fn quiet_stats_suppresses_manifest_summary() {
    let run_dir = std::env::temp_dir().join("fusa_cli_quiet").join("run");
    let output = fusa()
        .args([
            "faults",
            "or1200_icfsm",
            "--fast",
            "--quiet-stats",
            "--run-dir",
            run_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("run manifest:"), "{stdout}");
    assert!(run_dir.join("manifest.json").exists());
}

#[test]
fn report_renders_a_manifest() {
    use fusa::obs::RunManifest;

    let dir = std::env::temp_dir().join("fusa_cli_report");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("manifest.json");
    let manifest = RunManifest::new("analyze-x", "fusa analyze x", "x");
    std::fs::write(&path, manifest.to_json()).unwrap();

    let output = fusa()
        .args(["report", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("=== fusa run manifest: analyze-x ==="));

    // Bad documents are rejected with a clean error.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{}").unwrap();
    let output = fusa()
        .args(["report", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("not a run manifest"));
}

#[test]
fn unknown_flag_is_rejected() {
    let output = fusa()
        .args(["analyze", "or1200_icfsm", "--frobnicate"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag `--frobnicate`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    // Value-taking flags must have a value.
    let output = fusa()
        .args(["faults", "or1200_icfsm", "--threads"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("needs a value"));
}

#[test]
fn usage_lists_every_command() {
    let output = fusa().output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    for name in [
        "designs", "stats", "lint", "analyze", "faults", "rank", "explain", "seu", "harden",
        "synth", "merge", "report", "compare", "top", "export", "trace",
    ] {
        assert!(stderr.contains(&format!("fusa {name}")), "missing {name}");
    }
    assert!(stderr.contains("--shard i/n"), "{stderr}");
    assert!(stderr.contains("--trace-out PATH"), "{stderr}");
    assert!(stderr.contains("--run-dir DIR"), "{stderr}");
    assert!(stderr.contains("--quiet-stats"), "{stderr}");
    assert!(stderr.contains("--progress"), "{stderr}");
    assert!(stderr.contains("--tolerance-pct"), "{stderr}");
    assert!(stderr.contains("--checkpoint PATH"), "{stderr}");
    assert!(stderr.contains("--resume"), "{stderr}");
    assert!(stderr.contains("--max-unit-retries N"), "{stderr}");
    assert!(stderr.contains("--strict"), "{stderr}");
    assert!(stderr.contains("--no-status"), "{stderr}");
    assert!(stderr.contains("--prometheus"), "{stderr}");
    assert!(stderr.contains("--stale SECS"), "{stderr}");
}

#[test]
fn sharded_campaigns_merge_into_a_digest_identical_run() {
    let dir = std::env::temp_dir().join("fusa_cli_shard_merge");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // One uninterrupted single-process run is the reference.
    let single_dir = dir.join("single");
    let output = fusa()
        .args([
            "faults",
            "or1200_icfsm",
            "--fast",
            "--run-dir",
            single_dir.to_str().unwrap(),
            "--quiet-stats",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);

    // Two shards, different thread counts: scheduling must not matter.
    for (index, threads) in [(1, "1"), (2, "2")] {
        let shard_dir = dir.join(format!("s{index}"));
        let output = fusa()
            .args([
                "faults",
                "or1200_icfsm",
                "--fast",
                "--shard",
                &format!("{index}/2"),
                "--threads",
                threads,
                "--run-dir",
                shard_dir.to_str().unwrap(),
                "--quiet-stats",
            ])
            .output()
            .unwrap();
        assert!(output.status.success(), "{:?}", output);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains(&format!("shard {index}/2:")),
            "summary marks the shard partial: {stdout}"
        );
        let manifest = std::fs::read_to_string(shard_dir.join("manifest.json")).unwrap();
        assert!(
            manifest.contains(&format!("\"shard\": {{\"index\": {index}, \"total\": 2}}")),
            "{manifest}"
        );
    }

    // Merge the shard checkpoints; the merged run must be digest-
    // identical to the single run, so the compare digest gate passes.
    let merged_dir = dir.join("merged");
    let output = fusa()
        .args([
            "merge",
            dir.join("s1/checkpoint.jsonl").to_str().unwrap(),
            dir.join("s2/checkpoint.jsonl").to_str().unwrap(),
            "--fast",
            "--run-dir",
            merged_dir.to_str().unwrap(),
            "--quiet-stats",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("merged 2 checkpoint(s)"), "{stdout}");
    assert!(stdout.contains("Algorithm 1:"), "{stdout}");

    let single_manifest = std::fs::read_to_string(single_dir.join("manifest.json")).unwrap();
    let merged_manifest = std::fs::read_to_string(merged_dir.join("manifest.json")).unwrap();
    let digest = |manifest: &str, name: &str| -> String {
        let needle = format!("\"{name}\": \"");
        let start = manifest.find(&needle).expect(name) + needle.len();
        manifest[start..].split('"').next().unwrap().to_string()
    };
    for name in ["summary.txt", "criticality.csv", "lint.csv"] {
        assert_eq!(
            digest(&single_manifest, name),
            digest(&merged_manifest, name),
            "{name} digest differs between single and merged run"
        );
    }
    assert!(
        merged_manifest.contains("\"merged_from\": ["),
        "{merged_manifest}"
    );

    // `fusa compare` agrees: same-seed digest gate passes on the merge.
    let output = fusa()
        .args([
            "compare",
            single_dir.to_str().unwrap(),
            merged_dir.to_str().unwrap(),
            "--tolerance-pct",
            "10000",
            "--min-seconds",
            "10",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);
    assert!(String::from_utf8_lossy(&output.stdout).contains("0 mismatched"));

    // A shard partial compared against the full run must not trip the
    // digest gate, and the note says why.
    let output = fusa()
        .args([
            "compare",
            single_dir.to_str().unwrap(),
            dir.join("s1").to_str().unwrap(),
            "--tolerance-pct",
            "10000",
            "--min-seconds",
            "10",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("shard partial (1/2)"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_a_bad_shard_spec_and_missing_coverage() {
    let dir = std::env::temp_dir().join("fusa_cli_merge_errors");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Malformed --shard specs are rejected up front.
    for bad in ["0/3", "4/3", "x/2", "2"] {
        let output = fusa()
            .args(["faults", "or1200_icfsm", "--fast", "--shard", bad])
            .output()
            .unwrap();
        assert!(!output.status.success(), "accepted --shard {bad}");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("invalid shard spec"),
            "{bad}"
        );
    }

    // Merging an incomplete shard set names the hole and the exact
    // re-run command.
    let shard_dir = dir.join("s1");
    let output = fusa()
        .args([
            "faults",
            "or1200_icfsm",
            "--fast",
            "--shard",
            "1/3",
            "--run-dir",
            shard_dir.to_str().unwrap(),
            "--quiet-stats",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);
    let output = fusa()
        .args([
            "merge",
            shard_dir.join("checkpoint.jsonl").to_str().unwrap(),
            "--fast",
            "--run-dir",
            dir.join("merged").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("missing"), "{stderr}");
    assert!(stderr.contains("--shard 2/3"), "{stderr}");
    assert!(stderr.contains("--shard 3/3"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rank_scores_builtin_against_campaign_ground_truth() {
    let dir = std::env::temp_dir().join("fusa_cli_rank");
    std::fs::create_dir_all(&dir).unwrap();
    let gt = dir.join("gt.csv");
    let output = fusa()
        .args([
            "faults",
            "or1200_icfsm",
            "--fast",
            "--csv",
            gt.to_str().unwrap(),
            "--run-dir",
            dir.join("faults").to_str().unwrap(),
            "--quiet-stats",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);

    // Static rank alone (no ground truth) is simulation-free and fast.
    let csv = dir.join("rank.csv");
    let run_dir = dir.join("rank");
    let output = fusa()
        .args([
            "rank",
            "or1200_icfsm",
            "--csv",
            csv.to_str().unwrap(),
            "--ground-truth",
            gt.to_str().unwrap(),
            "--min-rho",
            "0.5",
            "--run-dir",
            run_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("static criticality ranking"), "{stdout}");
    assert!(stdout.contains("Spearman rho"), "{stdout}");
    assert!(stdout.contains("combined"), "{stdout}");

    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(
        csv_text.starts_with("gate,combined,controllability"),
        "{csv_text}"
    );
    assert_eq!(csv_text.lines().count(), 188, "187 gates + header");

    let manifest = std::fs::read_to_string(run_dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("rank.rho.combined"), "{manifest}");
    assert!(manifest.contains("rank.rho.observability"), "{manifest}");
    assert!(manifest.contains("rank.csv"), "{manifest}");
    assert!(manifest.contains("rank.weight.testability"), "{manifest}");
}

#[test]
fn rank_min_rho_gate_fails_when_unreachable() {
    let dir = std::env::temp_dir().join("fusa_cli_rank_gate");
    std::fs::create_dir_all(&dir).unwrap();
    let gt = dir.join("gt.csv");
    let output = fusa()
        .args([
            "faults",
            "uart_ctrl",
            "--fast",
            "--csv",
            gt.to_str().unwrap(),
            "--run-dir",
            dir.join("faults").to_str().unwrap(),
            "--quiet-stats",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{:?}", output);

    let output = fusa()
        .args([
            "rank",
            "uart_ctrl",
            "--ground-truth",
            gt.to_str().unwrap(),
            "--min-rho",
            "1.01",
            "--run-dir",
            dir.join("rank").to_str().unwrap(),
            "--quiet-stats",
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("below --min-rho"), "{stderr}");

    // A gate no rho can fail, and a gate with nothing to compare
    // against, are rejected before any ranking is computed.
    let cases: [(&[&str], &str); 2] = [
        (
            &["--ground-truth", gt.to_str().unwrap(), "--min-rho", "nan"],
            "error: bad --min-rho value `nan`",
        ),
        (
            &["--min-rho", "0.5"],
            "error: --min-rho needs --ground-truth",
        ),
    ];
    for (flags, expected) in cases {
        let output = fusa()
            .args(["rank", "uart_ctrl", "--run-dir"])
            .arg(dir.join("rank_flags"))
            .args(flags)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{flags:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let lines: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
        assert_eq!(lines.len(), 1, "{flags:?}: {stderr}");
        assert!(lines[0].starts_with(expected), "{flags:?}: {stderr}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(!stdout.contains("ranking"), "{flags:?}: {stdout}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let output = fusa().arg("frobnicate").output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"));
    assert!(stderr.contains("unknown command"));
}

#[test]
fn missing_design_file_reports_cleanly() {
    let output = fusa()
        .args(["stats", "/nonexistent/path.v"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot read"));
}

/// A reader that closes the pipe after the first line (`fusa lint big.v
/// | head -1`) ends the run quietly: no panic, no backtrace, not the
/// panic status 101.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::io::BufRead as _;

    let dir = std::env::temp_dir().join("fusa_cli_closed_stdout");
    std::fs::create_dir_all(&dir).unwrap();
    // A thousand gates no output observes, three lint findings each: the
    // report is far larger than a pipe holds.
    let mut verilog = String::from("module dead(a, z);\n  input a;\n  output z;\n");
    for i in 0..1000 {
        verilog += &format!("  wire w{i};\n");
    }
    verilog += "  IV keep (.A(a), .Z(z));\n";
    for i in 0..1000 {
        verilog += &format!("  IV g{i} (.A(a), .Z(w{i}));\n");
    }
    verilog += "endmodule\n";
    let path = dir.join("dead.v");
    std::fs::write(&path, verilog).unwrap();

    let mut child = fusa()
        .args(["lint", path.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("lint dead:"), "{first}");
    let output = child.wait_with_output().unwrap();
    assert_eq!(output.status.code(), Some(141), "{output:?}");
    assert!(output.stderr.is_empty(), "{output:?}");
}

/// `fusa fsck` on a partial `--fast` checkpoint prints a resume command
/// that runs as printed: it carries `--fast`, without which the
/// checkpoint's workloads would not match.
#[test]
fn the_fsck_resume_hint_of_a_fast_checkpoint_runs() {
    let dir = std::env::temp_dir().join("fusa_cli_resume_hint");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run_dir = dir.join("partial");
    let output = fusa()
        .args(["faults", "or1200_icfsm", "--fast", "--quiet-stats"])
        .args(["--run-dir", run_dir.to_str().unwrap()])
        .env("FUSA_CAMPAIGN_INTERRUPT_AFTER_UNITS", "5")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(130), "{output:?}");

    let output = fusa()
        .args(["fsck", run_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let hint = stdout
        .lines()
        .map(str::trim)
        .find(|line| line.starts_with("fusa faults"))
        .unwrap_or_else(|| panic!("no resume hint in {stdout}"));
    assert!(hint.ends_with("--resume --fast"), "{hint}");

    // Run it verbatim; its default run directory lands under `dir`.
    let words: Vec<&str> = hint.split_whitespace().collect();
    let output = fusa().args(&words[1..]).current_dir(&dir).output().unwrap();
    assert!(output.status.success(), "{hint}: {output:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file design's checkpoint header holds only its module name, so
/// `fusa fsck` needs `--design` to make the resume hint of a partial
/// `--fast` campaign of a `fusa synth 10k` file runnable: the hint names
/// the file and ends in `--fast`, and it runs to exit 0.
#[test]
fn the_fsck_resume_hint_of_a_file_design_runs_with_design() {
    let dir = std::env::temp_dir().join("fusa_cli_resume_hint_file");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let design = dir.join("synth_10k.v");
    let output = fusa()
        .args(["synth", "10k", "--out", design.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let run_dir = dir.join("partial");
    let output = fusa()
        .args([
            "faults",
            design.to_str().unwrap(),
            "--fast",
            "--quiet-stats",
        ])
        .args(["--run-dir", run_dir.to_str().unwrap()])
        .env("FUSA_CAMPAIGN_INTERRUPT_AFTER_UNITS", "5")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(130), "{output:?}");

    let output = fusa()
        .args(["fsck", run_dir.to_str().unwrap()])
        .args(["--design", design.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let hint = stdout
        .lines()
        .map(str::trim)
        .find(|line| line.starts_with("fusa faults"))
        .unwrap_or_else(|| panic!("no resume hint in {stdout}"));
    let expected = format!("fusa faults {} ", design.display());
    assert!(hint.starts_with(&expected), "{hint}");
    assert!(hint.ends_with("--resume --fast"), "{hint}");

    // Run it verbatim; its default run directory lands under `dir`.
    let words: Vec<&str> = hint.split_whitespace().collect();
    let output = fusa().args(&words[1..]).current_dir(&dir).output().unwrap();
    assert!(output.status.success(), "{hint}: {output:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `--fast` campaign exercises the whole telemetry surface: the
/// final `status.json` snapshot, `report --json`, `trace` over the
/// `--trace-out` stream, `export --prometheus`, and the `--no-status`
/// opt-out.
#[test]
fn telemetry_surface_over_one_campaign() {
    use fusa::obs::StatusSnapshot;

    let dir = std::env::temp_dir().join("fusa_cli_telemetry");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run_dir = dir.join("run");
    let trace = dir.join("trace.jsonl");
    let output = fusa()
        .args([
            "faults",
            "or1200_icfsm",
            "--fast",
            "--run-dir",
            run_dir.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--quiet-stats",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");

    // The run left a finished, schema-valid status snapshot behind.
    let status = StatusSnapshot::read(&run_dir.join("status.json")).expect("status.json parses");
    assert_eq!(status.phase, "campaign");
    assert_eq!(status.run_id, "faults-or1200_icfsm");
    assert!(status.finished, "final beat published");
    assert_eq!(status.done, status.total, "complete run");
    assert!(status.total > 0);
    assert!(status.work > 0, "campaign reports fault-cycles");
    assert!(status.workers > 0);
    assert!(status.rate > 0.0);
    assert!((0.0..=1.0).contains(&status.busy_fraction));

    // The final heartbeat figures made it into the manifest gauges.
    let manifest_text = std::fs::read_to_string(run_dir.join("manifest.json")).unwrap();
    let manifest = fusa::obs::RunManifest::parse(&manifest_text).unwrap();
    let final_rate = manifest
        .gauges
        .iter()
        .find(|(name, _)| name == "campaign.final_rate")
        .map(|&(_, v)| v)
        .expect("campaign.final_rate gauge recorded");
    assert!(final_rate > 0.0);

    // `report --json` renders the machine-readable report.
    let output = fusa()
        .args([
            "report",
            run_dir.join("manifest.json").to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let report = fusa::obs::Json::parse(&String::from_utf8_lossy(&output.stdout))
        .expect("report --json is JSON");
    assert_eq!(
        report.get("schema").and_then(fusa::obs::Json::as_str),
        Some("fusa-obs/report/v1")
    );
    assert_eq!(
        report.get("run_id").and_then(fusa::obs::Json::as_str),
        Some("faults-or1200_icfsm")
    );
    assert!(report
        .get("gauges")
        .and_then(|g| g.get("campaign.final_rate"))
        .is_some());

    // `trace` aggregates the span stream; the campaign span is there.
    let output = fusa()
        .args(["trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("events by kind"), "{text}");
    assert!(text.contains("span tree"), "{text}");
    assert!(text.contains("campaign"), "{text}");
    let output = fusa()
        .args(["trace", trace.to_str().unwrap(), "--kind", "span", "--json"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let report = fusa::obs::Json::parse(&String::from_utf8_lossy(&output.stdout)).unwrap();
    assert_eq!(
        report.get("schema").and_then(fusa::obs::Json::as_str),
        Some("fusa-obs/trace/v1")
    );
    assert_eq!(
        report
            .get("kinds")
            .and_then(fusa::obs::Json::as_arr)
            .unwrap()
            .len(),
        1,
        "--kind span keeps only spans"
    );

    // `export --prometheus` renders status + manifest metrics.
    let metrics = dir.join("metrics.prom");
    let output = fusa()
        .args([
            "export",
            "--prometheus",
            run_dir.to_str().unwrap(),
            "--out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("# TYPE fusa_run_units_done gauge"), "{text}");
    assert!(text.contains("run=\"faults-or1200_icfsm\""), "{text}");
    assert!(text.contains("fusa_manifest_wall_seconds{"), "{text}");
    assert!(text.contains("fusa_run_finished{"), "{text}");

    // `--no-status` suppresses the snapshot file entirely.
    let quiet_dir = dir.join("no_status");
    let output = fusa()
        .args([
            "faults",
            "or1200_icfsm",
            "--fast",
            "--no-status",
            "--run-dir",
            quiet_dir.to_str().unwrap(),
            "--quiet-stats",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    assert!(!quiet_dir.join("status.json").exists());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden test for `fusa top --once --json` over a handcrafted fixture
/// fleet: two live shards of one family (one a straggler), one stale
/// shard, and a finished unsharded run of another design.
#[test]
fn top_once_json_over_fixture_fleet() {
    use fusa::obs::{Json, StatusSnapshot};

    let root = std::env::temp_dir().join("fusa_cli_top_fixture");
    let _ = std::fs::remove_dir_all(&root);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_secs_f64();
    let base = StatusSnapshot {
        run_id: String::new(),
        design: "demo".into(),
        shard: None,
        pid: 1,
        phase: "campaign".into(),
        unit: "units".into(),
        done: 0,
        total: 32,
        work: 0,
        rate: 50.0,
        eta_seconds: 10.0,
        elapsed_seconds: 4.0,
        quarantined: 0,
        workers: 2,
        busy_fraction: 0.8,
        peak_rss_bytes: None,
        updated_unix: now,
        finished: false,
        degraded: false,
    };
    let fixtures = [
        StatusSnapshot {
            run_id: "faults-demo-shard0of3".into(),
            shard: Some((0, 3)),
            done: 20,
            eta_seconds: 6.0,
            ..base.clone()
        },
        StatusSnapshot {
            run_id: "faults-demo-shard1of3".into(),
            shard: Some((1, 3)),
            done: 4,
            eta_seconds: 28.0, // > 1.5x the live median: straggler
            ..base.clone()
        },
        StatusSnapshot {
            run_id: "faults-demo-shard2of3".into(),
            shard: Some((2, 3)),
            done: 2,
            updated_unix: now - 1_000.0, // stale heartbeat: stalled
            ..base.clone()
        },
        StatusSnapshot {
            run_id: "analyze-other".into(),
            design: "other".into(),
            phase: "train".into(),
            done: 32,
            finished: true,
            ..base.clone()
        },
    ];
    for status in &fixtures {
        let dir = root.join(&status.run_id);
        std::fs::create_dir_all(&dir).unwrap();
        status.write_atomic(&dir.join("status.json")).unwrap();
    }

    let output = fusa()
        .args([
            "top",
            root.to_str().unwrap(),
            "--once",
            "--json",
            "--stale",
            "60",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let json = Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("top --json is JSON");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("fusa-obs/top/v1")
    );
    assert_eq!(json.get("runs_total").and_then(Json::as_u64), Some(4));
    assert_eq!(
        json.get("units_done").and_then(Json::as_u64),
        Some(20 + 4 + 2 + 32)
    );
    assert_eq!(json.get("units_total").and_then(Json::as_u64), Some(128));
    assert_eq!(json.get("live").and_then(Json::as_u64), Some(2));
    assert_eq!(json.get("finished").and_then(Json::as_u64), Some(1));
    assert_eq!(json.get("stalled").and_then(Json::as_u64), Some(1));
    assert_eq!(json.get("stragglers").and_then(Json::as_u64), Some(1));
    // demo campaign shards group into one family, the train run another.
    assert_eq!(json.get("families").and_then(Json::as_u64), Some(2));
    let runs = json.get("runs").and_then(Json::as_arr).unwrap();
    assert_eq!(runs.len(), 4, "rows sorted by run id");
    assert_eq!(
        runs[0].get("run_id").and_then(Json::as_str),
        Some("analyze-other")
    );
    let straggler = runs
        .iter()
        .find(|r| r.get("run_id").and_then(Json::as_str) == Some("faults-demo-shard1of3"))
        .unwrap();
    assert_eq!(straggler.get("straggler"), Some(&Json::Bool(true)));
    let stalled = runs
        .iter()
        .find(|r| r.get("run_id").and_then(Json::as_str) == Some("faults-demo-shard2of3"))
        .unwrap();
    assert_eq!(stalled.get("stalled"), Some(&Json::Bool(true)));

    // The human dashboard renders the same fleet.
    let output = fusa()
        .args(["top", root.to_str().unwrap(), "--once", "--stale", "60"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("fleet: 4 run(s)"), "{text}");
    assert!(text.contains("units: 58/128"), "{text}");
    assert!(text.contains("STALLED"), "{text}");
    assert!(text.contains("straggler"), "{text}");

    // And pointing top at nothing fails with a helpful error.
    let empty = root.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let output = fusa()
        .args(["top", empty.to_str().unwrap(), "--once"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("no status.json snapshots"),
        "{output:?}"
    );

    let _ = std::fs::remove_dir_all(&root);
}
