//! CLI argument validation for `halfgnn-train` and `halfgnn-serve`: every
//! unknown value must be rejected with exit code 2 and a message naming
//! the bad flag — never silently fall back to a default and train (or
//! serve) the wrong thing.

use std::process::{Command, Output, Stdio};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_halfgnn-train"))
        .args(args)
        .output()
        .expect("spawn halfgnn-train")
}

fn run_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_halfgnn-serve"))
        .args(args)
        .output()
        .expect("spawn halfgnn-serve")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_partition_strategy_is_rejected_with_a_clear_error() {
    let out = run(&["--dataset", "cora", "--shards", "2", "--partition", "zigzag"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown partition strategy"), "error must name the problem, got: {err}");
    assert!(err.contains("contiguous|balanced"), "error must list the valid values: {err}");
}

#[test]
fn replication_misuses_are_rejected_with_named_errors() {
    for (args, needle) in [
        // Not a number at all: flag-level parse failure.
        (
            vec!["--dataset", "cora", "--replication", "two"],
            "unknown replication value (want a positive integer)",
        ),
        // Parses, but zero replicates nothing.
        (
            vec!["--dataset", "cora", "--partition", "1p5d", "--replication", "0"],
            "--replication must be at least 1",
        ),
        // Replication only means something under the 1.5D partition.
        (
            vec!["--dataset", "cora", "--shards", "4", "--replication", "2"],
            "--replication requires --partition 1p5d",
        ),
        // Replication groups must be whole: 3 shards cannot hold c = 2.
        (
            vec!["--dataset", "cora", "--shards", "3", "--partition", "1p5d"],
            "--shards divisible by the replication factor",
        ),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?} missing {needle:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?} must not panic: {err}");
    }
}

#[test]
fn usage_lists_the_one5d_partition_and_replication() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--replication"), "usage must document --replication: {err}");
    assert!(err.contains("1p5d"), "usage must document the 1p5d partition: {err}");
}

#[test]
fn one5d_training_runs_and_reports_overlap_and_the_halo_cache() {
    let out = run(&[
        "--dataset",
        "cora",
        "--model",
        "gcn",
        "--precision",
        "halfgnn",
        "--epochs",
        "2",
        "--shards",
        "4",
        "--partition",
        "1p5d",
        "--replication",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("comms/epoch"), "missing comms line: {stdout}");
    assert!(stdout.contains("comms overlap"), "missing overlap line: {stdout}");
    assert!(stdout.contains("overlapped"), "missing overlapped time: {stdout}");
    assert!(stdout.contains("halo cache"), "missing halo-cache line: {stdout}");
}

#[test]
fn serve_rejects_indivisible_one5d_shards() {
    let out = run_serve(&["--dataset", "cora", "--shards", "3", "--partition", "1p5d"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("--shards divisible by the replication factor"),
        "must name the divisibility rule: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn unknown_topology_is_rejected_with_a_clear_error() {
    let out = run(&["--dataset", "cora", "--shards", "2", "--topology", "torus"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown topology"), "error must name the problem, got: {err}");
    assert!(err.contains("ring|alltoall"), "error must list the valid values: {err}");
}

#[test]
fn unknown_flags_models_and_zero_shards_are_rejected() {
    for (args, needle) in [
        (vec!["--dataset", "cora", "--frobnicate"], "unknown flag"),
        (vec!["--dataset", "cora", "--model", "transformer"], "unknown model"),
        (vec!["--dataset", "cora", "--precision", "f64"], "unknown precision"),
        (vec!["--dataset", "cora", "--shards", "0"], "--shards must be at least 1"),
        (vec!["--dataset", "cora", "--tuning", "maybe"], "unknown tuning policy"),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?} missing {needle:?}: {}", stderr(&out));
    }
}

#[test]
fn replay_with_batch_size_is_a_named_config_error_not_a_divergence_panic() {
    // Capture assumes a fixed epoch kernel sequence; mini-batch sampling
    // breaks that. The combination must die at config validation with a
    // message naming both flags and the capture-refusal reason — never
    // reach the ExecGraph replay machinery and panic on divergence.
    let out = run(&["--dataset", "cora", "--epochs", "2", "--replay", "--batch-size", "64"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("config error"), "must be a config error: {err}");
    assert!(
        err.contains("--replay") && err.contains("--batch-size"),
        "must name both flags: {err}"
    );
    assert!(err.contains("capture refused"), "must carry the capture-refusal reason: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn batch_flag_misuses_are_rejected_with_named_errors() {
    for (args, needle) in [
        (vec!["--dataset", "cora", "--batch-size", "0"], "--batch-size must be at least 1"),
        (vec!["--dataset", "cora", "--stream-edges", "50"], "--stream-edges requires --batch-size"),
        (
            vec!["--dataset", "cora", "--batch-size", "64", "--fanout", "0"],
            "--fanout must be at least 1",
        ),
        (
            vec!["--dataset", "cora", "--batch-size", "64", "--shards", "2"],
            "--shards > 1 is incompatible with --batch-size",
        ),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?} missing {needle:?}: {}", stderr(&out));
    }
}

#[test]
fn minibatch_training_runs_and_reports_sampling() {
    let out = run(&[
        "--dataset",
        "cora",
        "--model",
        "gcn",
        "--precision",
        "halfgnn",
        "--epochs",
        "2",
        "--batch-size",
        "256",
        "--fanout",
        "5",
        "--stream-edges",
        "50",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("sampling"), "missing sampling summary: {stdout}");
    assert!(stdout.contains("streamed edges"), "missing streaming line: {stdout}");
    assert!(stdout.contains("batches/epoch"), "missing batch count: {stdout}");
}

#[test]
fn usage_lists_the_batch_flags() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    for flag in ["--batch-size", "--fanout", "--stream-edges"] {
        assert!(err.contains(flag), "usage must document {flag}: {err}");
    }
}

#[test]
fn usage_lists_the_replay_flag() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--replay"), "usage must document --replay: {}", stderr(&out));
}

#[test]
fn bad_loss_scale_is_a_named_config_error() {
    for scale in ["0", "-2", "inf", "nan"] {
        let out = run(&["--dataset", "cora", "--loss-scale", scale]);
        assert_eq!(out.status.code(), Some(2), "--loss-scale {scale}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.contains("--loss-scale must be a positive, finite value"),
            "--loss-scale {scale} missing named error: {err}"
        );
        assert!(!err.contains("panicked"), "--loss-scale {scale} must not panic: {err}");
    }
}

#[test]
fn save_snapshot_writes_a_loadable_file_and_is_in_usage() {
    let out = run(&["--help"]);
    assert!(stderr(&out).contains("--save-snapshot"), "usage must document --save-snapshot");

    let path = std::env::temp_dir().join(format!("cli-args-snap-{}.snap", std::process::id()));
    let path_s = path.to_string_lossy().into_owned();
    let out =
        run(&["--dataset", "cora", "--model", "gcn", "--epochs", "2", "--save-snapshot", &path_s]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("snapshot"), "missing snapshot line: {stdout}");
    let text = std::fs::read_to_string(&path).expect("snapshot file exists");
    assert!(text.starts_with("halfgnn-snapshot v1"), "bad snapshot header");
    assert!(text.ends_with("end\n"), "snapshot not terminated");
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_rejects_illegal_configs_with_named_errors() {
    for (args, needle) in [
        (vec!["--dataset", "cora", "--hops", "0"], "--hops must be at least the model depth"),
        (vec!["--dataset", "cora", "--hops", "1"], "--hops must be at least the model depth"),
        (vec!["--dataset", "cora", "--batch-window", "0"], "--batch-window must be at least 1"),
        (vec!["--dataset", "cora", "--shards", "0"], "--shards must be at least 1"),
        (vec!["--dataset", "cora", "--precision", "halfnaive"], "training-only modes"),
        (vec!["--dataset", "cora", "--precision", "nodiscretize"], "training-only modes"),
        (vec!["--dataset", "cora", "--precision", "i8"], "training-only modes"),
        (
            vec!["--dataset", "cora", "--replay", "--batch-window", "4"],
            "--replay requires --batch-window 1",
        ),
        (vec!["--dataset", "cora", "--frobnicate"], "unknown flag"),
        (vec!["--dataset", "cora", "--precision", "f64"], "unknown precision"),
        (vec!["--dataset", "cora", "--cache-precision", "f8"], "unknown cache precision"),
        (vec!["--dataset", "cora", "--topology", "torus"], "unknown topology"),
        (vec!["--dataset", "cora", "--partition", "zigzag"], "unknown partition strategy"),
    ] {
        let out = run_serve(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?} missing {needle:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?} must not panic: {err}");
    }
}

#[test]
fn serve_replay_error_carries_the_capture_refusal_reason() {
    let out = run_serve(&["--dataset", "cora", "--replay", "--batch-window", "4"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("config error"), "must be a config error: {err}");
    assert!(err.contains("capture refused"), "must carry the refusal reason: {err}");
}

#[test]
fn serve_missing_snapshot_file_is_a_clean_error() {
    let out = run_serve(&["--dataset", "cora", "--snapshot", "/nonexistent/missing.snap"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("could not load snapshot"), "must name the failure: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn serve_quick_train_closed_loop_reports_latency_and_cache() {
    let out = run_serve(&[
        "--dataset",
        "cora",
        "--epochs",
        "2",
        "--requests",
        "120",
        "--cache-kb",
        "8",
        "--shards",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for line in ["throughput", "latency p99", "cache", "halo traffic", "inference plan"] {
        assert!(stdout.contains(line), "missing {line:?} in serve output: {stdout}");
    }
}

#[test]
fn serve_consumes_a_trainer_written_snapshot() {
    let path = std::env::temp_dir().join(format!("cli-args-handoff-{}.snap", std::process::id()));
    let path_s = path.to_string_lossy().into_owned();
    let out = run(&["--dataset", "cora", "--epochs", "2", "--save-snapshot", &path_s]);
    assert_eq!(out.status.code(), Some(0), "train stderr: {}", stderr(&out));
    let out = run_serve(&["--dataset", "cora", "--snapshot", &path_s, "--requests", "60"]);
    assert_eq!(out.status.code(), Some(0), "serve stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("throughput"), "serve must report throughput: {stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_usage_lists_the_serving_flags() {
    let out = run_serve(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    for flag in
        ["--snapshot", "--batch-window", "--cache-kb", "--cache-precision", "--hops", "--replay"]
    {
        assert!(err.contains(flag), "serve usage must document {flag}: {err}");
    }
}

#[test]
fn i8_precision_trains_but_is_rejected_by_serve_with_a_named_error() {
    // Training accepts the INT8 wire + kernel mode end-to-end.
    let out = run(&["--dataset", "cora", "--model", "gcn", "--precision", "i8", "--epochs", "2"]);
    assert_eq!(out.status.code(), Some(0), "train --precision i8 stderr: {}", stderr(&out));

    // Serving refuses it at config validation: stochastic rounding makes
    // repeated identical requests non-reproducible.
    let out = run_serve(&["--dataset", "cora", "--precision", "i8"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("training-only modes"), "must name the rejection class: {err}");
    assert!(err.contains("i8"), "must name the offending mode: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn i8_block_misuses_are_named_config_errors_not_panics() {
    for (args, needle) in [
        // The knob without the mode: the mode mismatch is the root cause.
        (vec!["--dataset", "cora", "--i8-block", "64"], "--i8-block requires --precision i8"),
        // Not a power of two.
        (
            vec!["--dataset", "cora", "--precision", "i8", "--i8-block", "48"],
            "--i8-block must be a power of two between 16 and 256",
        ),
        // Degenerate and out-of-range buckets.
        (
            vec!["--dataset", "cora", "--precision", "i8", "--i8-block", "0"],
            "--i8-block must be a power of two between 16 and 256",
        ),
        (
            vec!["--dataset", "cora", "--precision", "i8", "--i8-block", "512"],
            "--i8-block must be a power of two between 16 and 256",
        ),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("config error"), "{args:?} must die at config time: {err}");
        assert!(err.contains(needle), "{args:?} missing {needle:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?} must not panic: {err}");
    }
}

#[test]
fn usage_lists_the_i8_precision_and_block_flag() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("i8"), "train usage must document the i8 precision: {err}");
    assert!(err.contains("--i8-block"), "train usage must document --i8-block: {err}");
}

#[test]
fn replay_flag_trains_and_reports_the_captured_graph() {
    let out = run(&[
        "--dataset",
        "cora",
        "--model",
        "gcn",
        "--precision",
        "halfgnn",
        "--epochs",
        "3",
        "--replay",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("replay graph"), "missing replay summary: {stdout}");
    assert!(stdout.contains("arena plan"), "missing arena line: {stdout}");
}

#[test]
fn odd_hidden_width_trains_under_every_half_and_i8_mode() {
    // Half2 and INT8 kernels need even widths: the driver pads the hidden
    // width the way it pads classes (§4.1.2) instead of panicking. One
    // model's six runs go at a time.
    for model in ["gcn", "gat", "gin", "sage"] {
        let mut runs = Vec::new();
        for precision in ["halfgnn", "nodiscretize", "i8"] {
            for batch in [None, Some("64")] {
                let mut args = vec!["--dataset", "cora", "--model", model];
                args.extend(["--precision", precision, "--hidden", "7", "--epochs", "1"]);
                if let Some(b) = batch {
                    args.extend(["--batch-size", b]);
                }
                let child = Command::new(env!("CARGO_BIN_EXE_halfgnn-train"))
                    .args(&args)
                    .stdout(Stdio::null())
                    .stderr(Stdio::piped())
                    .spawn()
                    .expect("spawn halfgnn-train");
                runs.push((args, child));
            }
        }
        for (args, child) in runs {
            let out = child.wait_with_output().expect("wait for halfgnn-train");
            assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        }
    }
}
