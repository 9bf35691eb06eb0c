//! Self-test of the benchmark command. Runs `perfbench/run.py` from the
//! repository root exactly as a user would, at smoke size:
//!
//! * every workload completes in both modes and prints exactly the
//!   metric names `BENCHMARK.json` lists;
//! * a tampered expected answer makes the command fail;
//! * a directory holding only the benchmark's own files fails to run.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo")
        .to_path_buf()
}

/// A scratch directory inside the build directory, emptied first.
fn scratch(name: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| repo_root().join(".bench_build"), PathBuf::from);
    let dir = repo_root()
        .join(target)
        .join("perfbench-selftest")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_in(dir: &Path, workload: &str, trace: u8, extra: &[&str]) -> Output {
    Command::new("python3")
        .current_dir(dir)
        .args([
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .args(extra)
        .output()
        .expect("python3 runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// Every `"name": "..."` value between `start` and `end` in `text`.
fn names_between(text: &str, start: &str, end: Option<&str>) -> Vec<String> {
    let from = text.find(start).expect("section present");
    let to = end.map_or(text.len(), |e| {
        text[from..].find(e).map_or(text.len(), |i| from + i)
    });
    text[from..to]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap_or_default().to_string())
        .collect()
}

/// Metric names of a result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    let chunks: Vec<&str> = metrics.split("\": {\"value\"").collect();
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| chunk[chunk.rfind('"').expect("quoted name") + 1..].to_string())
        .collect()
}

#[test]
fn smoke_runs_complete_and_print_the_declared_metrics() {
    let bench =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = names_between(&bench, "\"workloads\"", Some("\"end_to_end\""));
    let end_to_end = names_between(&bench, "\"end_to_end\"", Some("\"per_layer\""));
    let per_layer = names_between(&bench, "\"per_layer\"", None);
    assert!(!workloads.is_empty() && !end_to_end.is_empty() && !per_layer.is_empty());
    // memsim_sweep is left out of BENCHMARK.json but must keep running.
    let mut all = workloads.clone();
    all.push("memsim_sweep".to_string());
    for workload in &all {
        for (trace, declared) in [(0, &end_to_end), (1, &per_layer)] {
            let out = run_in(&repo_root(), workload, trace, &[]);
            let line = last_line(&out);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed: {}\n{line}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert_eq!(&metric_names(&line), declared, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn a_tampered_expected_answer_fails_the_run() {
    let dir = scratch("tampered");
    let source = repo_root().join("perfbench/expected");
    for entry in std::fs::read_dir(&source).expect("expected dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
    }
    // Bump the recorded SC outcome count of the first smoke-corpus seed
    // that has one.
    let cold = std::fs::read_to_string(dir.join("serve_cold.txt")).expect("serve_cold.txt");
    let mut tampered = false;
    let lines: Vec<String> = cold
        .lines()
        .map(|line| {
            let mut f: Vec<String> = line.split(' ').map(str::to_string).collect();
            if !tampered && !line.starts_with('#') && f.len() == 5 {
                if let Ok(count) = f[2].parse::<u64>() {
                    f[2] = (count + 1).to_string();
                    tampered = true;
                }
            }
            f.join(" ")
        })
        .collect();
    assert!(tampered, "no SC count to tamper with");
    std::fs::write(dir.join("serve_cold.txt"), lines.join("\n") + "\n").expect("write");

    let out = run_in(
        &repo_root(),
        "serve_cold",
        0,
        &["--expected-dir", dir.to_str().expect("utf-8 path")],
    );
    assert!(
        !out.status.success(),
        "tampered run passed: {}",
        last_line(&out)
    );
    assert!(
        last_line(&out).starts_with("{\"correct\": false"),
        "{}",
        last_line(&out)
    );
}

#[test]
fn a_directory_with_only_the_benchmark_fails() {
    let dir = scratch("bare");
    std::fs::copy(
        repo_root().join("BENCHMARK.json"),
        dir.join("BENCHMARK.json"),
    )
    .expect("copy");
    copy_tree(&repo_root().join("perfbench"), &dir.join("perfbench"));
    let out = Command::new("python3")
        .current_dir(&dir)
        .args([
            "perfbench/run.py",
            "--workload",
            "trace_check",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("CARGO_TARGET_DIR", dir.join(".bench_build"))
        .output()
        .expect("python3 runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}

/// Copies the benchmark's source files (not build output).
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().expect("file name");
        if path.is_dir() {
            if name != "target" {
                copy_tree(&path, &to.join(name));
            }
        } else {
            std::fs::copy(&path, to.join(name)).expect("copy");
        }
    }
}
