//! End-to-end tests of the `netloc` command-line tool.

use std::process::{Command, Output};

fn netloc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netloc"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A well-formed empty 8-rank trace in the retired row-binary layout:
/// magic, app name, rank count, exec time 1.0, no communicators, no events.
const ROW_BINARY_TRACE: &[u8] = b"NLDUMPI\x01\x04demo\x08\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00";

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("netloc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn generate_stats_metrics_pipeline() {
    let path = tmp("lulesh64.nld");
    let gen = netloc(&["generate", "lulesh", "64", "-o", &path]);
    assert!(gen.status.success(), "{:?}", gen);

    let stats = netloc(&["stats", &path]);
    assert!(stats.status.success());
    let s = stdout(&stats);
    assert!(s.contains("EXMATEX LULESH"));
    assert!(s.contains("ranks:         64"));
    assert!(s.contains("100.00 %"), "{s}");

    let metrics = netloc(&["metrics", &path]);
    let m = stdout(&metrics);
    assert!(m.contains("peers:                26"), "{m}");
    assert!(m.contains("locality 100.0 %"), "{m}"); // 3D fold
}

#[test]
fn binary_and_text_formats_agree() {
    let text_path = tmp("cr100.nld");
    let col_path = tmp("cr100.col");
    assert!(netloc(&["generate", "crystal", "100", "-o", &text_path])
        .status
        .success());
    assert!(netloc(&["convert", &text_path, "-o", &col_path])
        .status
        .success());
    let a = stdout(&netloc(&["metrics", &text_path]));
    let b = stdout(&netloc(&["metrics", &col_path]));
    assert_eq!(a, b);
    // the columnar file is smaller
    let ts = std::fs::metadata(&text_path).unwrap().len();
    let cs = std::fs::metadata(&col_path).unwrap().len();
    assert!(cs < ts, "columnar {cs} vs text {ts}");
}

#[test]
fn replay_reports_topology_numbers() {
    let path = tmp("amg27.nld");
    assert!(netloc(&["generate", "amg", "27", "-o", &path])
        .status
        .success());
    let out = netloc(&["replay", &path, "--topology", "torus:3,3,3"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(
        s.contains("topology:        torus3d (27 nodes, 81 links)"),
        "{s}"
    );
    assert!(s.contains("avg hops:"));
    assert!(s.contains("TorusDim"));
}

#[test]
fn replay_rejects_too_small_topology() {
    let path = tmp("amg216.nld");
    assert!(netloc(&["generate", "amg", "216", "-o", &path])
        .status
        .success());
    let out = netloc(&["replay", &path, "--topology", "torus:3,3,3"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("27 nodes"), "{err}");
}

#[test]
fn simulate_runs_and_reports_slowdown() {
    let path = tmp("fft9.nld");
    assert!(netloc(&["generate", "bigfft", "9", "-o", &path])
        .status
        .success());
    let out = netloc(&["simulate", &path, "--topology", "auto"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("mean slowdown:"), "{s}");
    assert!(s.contains("makespan:"));
}

#[test]
fn scaled_generation_allows_off_catalog_sizes() {
    let strict = netloc(&["generate", "amg", "100", "-o", &tmp("x.nld")]);
    assert!(!strict.status.success());
    let scaled = netloc(&[
        "generate",
        "amg",
        "100",
        "--scaled",
        "-o",
        &tmp("amg100.nld"),
    ]);
    assert!(scaled.status.success(), "{scaled:?}");
    let m = stdout(&netloc(&["metrics", &tmp("amg100.nld")]));
    assert!(m.contains("peers:"), "{m}");
}

#[test]
fn heatmap_csv_has_header() {
    let path = tmp("mini18.nld");
    assert!(netloc(&["generate", "minife", "18", "-o", &path])
        .status
        .success());
    let out = netloc(&["heatmap", &path]);
    let s = stdout(&out);
    assert!(s.starts_with("src,dst,bytes,messages,packets"), "{s}");
    assert!(s.lines().count() > 18);
}

#[test]
fn timeline_reports_burstiness() {
    let path = tmp("snap.nld");
    assert!(netloc(&["generate", "snap", "168", "-o", &path])
        .status
        .success());
    let out = netloc(&["timeline", &path, "--bins", "8"]);
    let s = stdout(&out);
    assert!(s.contains("burstiness"), "{s}");
    assert_eq!(s.lines().filter(|l| l.contains('|')).count(), 8);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = netloc(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn malformed_trace_file_is_rejected() {
    let path = tmp("garbage.nld");
    std::fs::write(&path, "definitely not a trace").unwrap();
    let out = netloc(&["stats", &path]);
    assert!(!out.status.success());

    // The retired row-binary format falls through to the text parser,
    // which rejects it cleanly.
    let path = tmp("rowbinary.nld");
    std::fs::write(&path, ROW_BINARY_TRACE).unwrap();
    let out = netloc(&["stats", &path]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stderr(&out).contains("cannot parse"), "{out:?}");
    assert!(!stderr(&out).contains("panicked"), "{out:?}");
}

#[test]
fn count_flags_are_bounded() {
    let path = tmp("bounds64.nld");
    assert!(netloc(&["generate", "lulesh", "64", "-o", &path])
        .status
        .success());
    for args in [
        ["timeline", &path, "--bins", "0"],
        ["timeline", &path, "--bins", "4097"],
        ["stats", &path, "--windows", "0"],
        ["stats", &path, "--windows", "abc"],
        ["stats", &path, "--windows", "100000000"],
        ["simulate", &path, "--windows", "1000000000"],
        ["simulate", &path, "--windows", "-1"],
    ] {
        let out = netloc(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(stderr(&out).contains("usage"), "{args:?}: {out:?}");
    }
    // The bound itself is accepted.
    let out = netloc(&["stats", &path, "--windows", "4096"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("4096 windows"));
    // `simulate --windows 0` still means "no congestion profile".
    let fft = tmp("bounds-fft9.nld");
    assert!(netloc(&["generate", "bigfft", "9", "-o", &fft])
        .status
        .success());
    let out = netloc(&["simulate", &fft, "--windows", "0"]);
    assert!(out.status.success(), "{out:?}");
    assert!(!stdout(&out).contains("congestion profile"));
}

#[test]
fn replay_json_is_parseable() {
    let path = tmp("json64.nld");
    assert!(netloc(&["generate", "lulesh", "64", "-o", &path])
        .status
        .success());
    let out = netloc(&["replay", &path, "--topology", "torus:4,4,4", "--json"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.trim_start().starts_with('{'), "{s}");
    assert!(s.contains("\"avg_hops\""));
    assert!(s.contains("\"utilization_pct\""));

    let sim = netloc(&["simulate", &path, "--topology", "torus:4,4,4", "--json"]);
    let s = stdout(&sim);
    assert!(s.contains("\"makespan_s\""), "{s}");
}

#[test]
fn stats_and_metrics_json_match_service_payloads() {
    let path = tmp("jstats64.nld");
    assert!(netloc(&["generate", "lulesh", "64", "-o", &path])
        .status
        .success());
    let trace = netloc::mpi::parse_trace(&std::fs::read_to_string(&path).unwrap()).unwrap();

    // `netloc stats --json` must print the exact canonical bytes the
    // service's /v1/stats endpoint serves for the same trace.
    let stats = netloc(&["stats", &path, "--json"]);
    assert!(stats.status.success());
    let expected = netloc::core::canon::canonical_json(
        &netloc::service::payload::StatsResponse::from_trace(&trace),
    );
    assert_eq!(stdout(&stats), expected);

    let metrics = netloc(&["metrics", &path, "--json"]);
    assert!(metrics.status.success());
    let expected = netloc::core::canon::canonical_json(
        &netloc::service::payload::MetricsResponse::from_trace(&trace),
    );
    assert_eq!(stdout(&metrics), expected);

    // Both parse as strict JSON with the headline fields present.
    for out in [stdout(&stats), stdout(&metrics)] {
        let value = serde_json::from_str(&out).expect("canonical output is valid JSON");
        let serde::Value::Object(fields) = value else {
            panic!("expected a JSON object: {out}")
        };
        assert!(fields.iter().any(|(k, _)| k == "app"), "{out}");
        assert!(fields.iter().any(|(k, _)| k == "ranks"), "{out}");
    }
}

#[test]
fn torusnd_spec_is_accepted() {
    let path = tmp("nd64.nld");
    assert!(netloc(&["generate", "lulesh", "64", "-o", &path])
        .status
        .success());
    let out = netloc(&["replay", &path, "--topology", "torusnd:2,2,2,2,2,2"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("torus-nd (64 nodes"));
}
