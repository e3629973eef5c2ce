//! End-to-end CLI tests: drive the actual binary through its subcommands.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_medsen-cli"))
}

fn run(args: &[&str]) -> (i32, String) {
    let output = bin().args(args).output().expect("binary runs");
    let text = String::from_utf8_lossy(&output.stdout).into_owned()
        + &String::from_utf8_lossy(&output.stderr);
    (output.status.code().unwrap_or(-1), text)
}

#[test]
fn help_and_errors() {
    let (code, text) = run(&["help"]);
    assert_eq!(code, 0);
    assert!(text.contains("medsen-cli"));

    let (code, text) = run(&["nonsense"]);
    assert_eq!(code, 1);
    assert!(text.contains("unknown command"));

    let (code, _) = run(&[]);
    assert_eq!(code, 2);
}

#[test]
fn keylen_reproduces_the_paper_headline() {
    let (code, text) = run(&["keylen", "20000", "16", "4", "4"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("1040000 bits"), "{text}");
}

#[test]
fn enroll_assigns_passwords() {
    let (code, text) = run(&["enroll", "alice", "bob"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("enrolled alice"));
    assert!(text.contains("enrolled bob"));
    assert!(text.contains("password space"));
}

#[test]
fn synth_analyze_attack_round_trip() {
    let dir = std::env::temp_dir().join(format!("medsen-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("trace.csv");
    let csv_str = csv.to_str().expect("utf8 path");

    let (code, text) = run(&["synth", csv_str, "--seed", "9", "--particles", "6"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("wrote"), "{text}");
    assert!(csv.exists());

    let (code, text) = run(&["analyze", csv_str]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("peaks:"), "{text}");
    assert!(text.contains("noise floor"), "{text}");

    let (code, text) = run(&["attack", csv_str]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("amplitude-grouping estimate"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_runs_encrypted_mode() {
    let (code, text) = run(&["session", "--seed", "3", "--duration", "10"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("decoded"), "{text}");
    assert!(text.contains("verdict"), "{text}");
}

#[test]
fn session_validates_duration() {
    let (code, text) = run(&["session", "--duration", "100000"]);
    assert_eq!(code, 1);
    assert!(text.contains("--duration"), "{text}");
}

#[test]
fn analyze_rejects_missing_and_malformed_files() {
    let (code, text) = run(&["analyze", "/nonexistent/trace.csv"]);
    assert_eq!(code, 1);
    assert!(text.contains("cannot read"), "{text}");

    let dir = std::env::temp_dir().join(format!("medsen-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.csv");
    std::fs::write(&bad, "this is not a trace").expect("write");
    let (code, text) = run(&["analyze", bad.to_str().expect("utf8")]);
    assert_eq!(code, 1);
    assert!(text.contains("error"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn capability_demo_round_trips() {
    let (code, text) = run(&["capability", "--seed", "5", "--duration", "15"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("sealed capability"), "{text}");
    assert!(text.contains("practitioner decrypts"), "{text}");
    assert!(text.contains("wrong secret"), "{text}");
}

#[test]
fn gateway_serves_a_small_fleet() {
    let (code, text) = run(&[
        "gateway",
        "--sessions",
        "6",
        "--workers",
        "2",
        "--queue",
        "2",
        "--flaky",
        "0.2",
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("6 sessions via 2 workers"), "{text}");
    assert!(text.contains("6 accepted as themselves"), "{text}");
    assert!(text.contains("queue high-water"), "{text}");
}

#[test]
fn gateway_honors_the_shards_flag() {
    let (code, text) = run(&[
        "gateway",
        "--sessions",
        "4",
        "--workers",
        "4",
        "--shards",
        "4",
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(
        text.contains("cloud tier: 4 shard(s), 4 gateway lane(s)"),
        "{text}"
    );
    assert!(text.contains("4 accepted as themselves"), "{text}");

    // A single shard collapses to a single gateway lane.
    let (code, text) = run(&[
        "gateway",
        "--sessions",
        "4",
        "--workers",
        "4",
        "--shards",
        "1",
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(
        text.contains("cloud tier: 1 shard(s), 1 gateway lane(s)"),
        "{text}"
    );
}

#[test]
fn gateway_persists_to_a_data_dir_and_recovers_on_restart() {
    let dir = std::env::temp_dir().join(format!("medsen-cli-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_str = dir.to_str().expect("utf8 path");

    // First run: fresh directory, nothing to recover; the fleet's
    // enrollments and stored records land in the WAL.
    let (code, text) = run(&[
        "gateway",
        "--sessions",
        "4",
        "--workers",
        "2",
        "--flaky",
        "0",
        "--data-dir",
        dir_str,
        "--flush",
        "every:4",
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("durable store:"), "{text}");
    assert!(text.contains("flush policy every:4"), "{text}");
    assert!(text.contains("recovered 0 entries"), "{text}");
    assert!(text.contains("wal: appends"), "{text}");
    assert!(text.contains("drained"), "{text}");

    // Second run over the same directory: the first fleet's writes come
    // back (3 enrollments + 4 stored records at minimum).
    let (code, text) = run(&[
        "gateway",
        "--sessions",
        "4",
        "--workers",
        "2",
        "--flaky",
        "0",
        "--data-dir",
        dir_str,
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("recovered 7 entries"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gateway_validates_durability_options() {
    let (code, text) = run(&["gateway", "--flush", "every:4"]);
    assert_eq!(code, 1);
    assert!(text.contains("--flush needs --data-dir"), "{text}");

    let dir = std::env::temp_dir().join(format!("medsen-cli-badflush-{}", std::process::id()));
    let (code, text) = run(&[
        "gateway",
        "--data-dir",
        dir.to_str().expect("utf8"),
        "--flush",
        "sometimes",
    ]);
    assert_eq!(code, 1);
    assert!(text.contains("invalid flush policy 'sometimes'"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gateway_validates_options() {
    let (code, text) = run(&["gateway", "--sessions", "0"]);
    assert_eq!(code, 1);
    assert!(text.contains("--sessions"), "{text}");

    let (code, text) = run(&["gateway", "--flaky", "1.5"]);
    assert_eq!(code, 1);
    assert!(text.contains("--flaky"), "{text}");

    let (code, text) = run(&["gateway", "--shards", "0"]);
    assert_eq!(code, 1);
    assert!(text.contains("--shards must be in 1..=64"), "{text}");

    let (code, text) = run(&["gateway", "--shards", "65"]);
    assert_eq!(code, 1);
    assert!(text.contains("--shards must be in 1..=64"), "{text}");
}

#[test]
fn gateway_telemetry_text_emits_a_parseable_exposition() {
    let (code, text) = run(&[
        "gateway",
        "--sessions",
        "4",
        "--workers",
        "2",
        "--queue",
        "4",
        "--flaky",
        "0.0",
        "--telemetry",
        "text",
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("telemetry:"), "{text}");
    // Every exposition line between the `telemetry:` header and the final
    // metrics block obeys the `name value` grammar.
    let mut in_block = false;
    let mut lines = 0usize;
    for line in text.lines() {
        if line == "telemetry:" {
            in_block = true;
            continue;
        }
        if in_block {
            if line.starts_with("accepted ") {
                break;
            }
            let (name, value) = line.split_once(' ').expect("name value");
            assert!(
                name.split('.').all(|seg| {
                    !seg.is_empty()
                        && seg
                            .bytes()
                            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
                }),
                "bad name in {line:?}"
            );
            let parsed: f64 = value.parse().expect("numeric value");
            assert!(parsed >= 0.0 && parsed.is_finite(), "{line:?}");
            lines += 1;
        }
    }
    assert!(lines > 10, "exposition looks truncated:\n{text}");
    for name in [
        "gateway.accepted ",
        "gateway.completed ",
        "gateway.queue_wait.count ",
        "cache.misses ",
        "telemetry.spans_recorded ",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn gateway_telemetry_json_dumps_span_lines() {
    let (code, text) = run(&[
        "gateway",
        "--sessions",
        "3",
        "--workers",
        "2",
        "--queue",
        "4",
        "--flaky",
        "0.0",
        "--telemetry",
        "json",
    ]);
    assert_eq!(code, 0, "{text}");
    let spans: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"trace\":"))
        .collect();
    assert!(!spans.is_empty(), "{text}");
    assert!(
        spans.iter().any(|l| l.contains("\"stage\":\"service\"")),
        "{text}"
    );
    assert!(spans.iter().all(|l| l.ends_with('}')), "{text}");
}

#[test]
fn gateway_validates_telemetry_mode() {
    let (code, text) = run(&["gateway", "--telemetry", "xml"]);
    assert_eq!(code, 1);
    assert!(text.contains("expected `text`, `json`, or `off`"), "{text}");
}

#[test]
fn telemetry_subcommand_pretty_prints_a_snapshot() {
    let (code, text) = run(&["telemetry", "--requests", "12"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("instruments after 12 requests:"), "{text}");
    assert!(text.contains("gateway.accepted 12"), "{text}");
    assert!(text.contains("cache.hits"), "{text}");
    assert!(text.contains("slowest requests:"), "{text}");
    assert!(text.contains("trace 0x"), "{text}");
    assert!(text.contains("service"), "{text}");

    let (code, text) = run(&["telemetry", "--requests", "0"]);
    assert_eq!(code, 1);
    assert!(text.contains("--requests must be in 1..=512"), "{text}");

    let (code, text) = run(&["telemetry", "--bogus", "1"]);
    assert_eq!(code, 1);
    assert!(text.contains("unknown option --bogus"), "{text}");
}
