//! Implementation of the `medsen-cli` command set.
//!
//! Each subcommand is a pure function from parsed arguments to an exit
//! status plus output written to the supplied writer, so the integration
//! tests can drive commands without spawning processes and the binary stays
//! a thin shim.

pub mod commands;

use std::io::Write;

/// Command outcome: process exit code.
pub type ExitCode = i32;

/// Top-level usage text.
pub const USAGE: &str = "\
medsen-cli — secure point-of-care diagnostics (MedSen, DSN 2016 reproduction)

USAGE:
    medsen-cli <COMMAND> [ARGS]

COMMANDS:
    session   [--auth] [--seed N] [--duration SECS]   run one diagnostic session
    enroll    <user>...                                enroll users, print assignments
    synth     <out.csv> [--seed N] [--particles N]     synthesize a demo trace CSV
    analyze   <trace.csv>                              cloud-side peak analysis of a CSV
    attack    <trace.csv>                              run the Sec. IV-A attacks on a CSV
    keylen    <cells> <electrodes> <gainbits> <flowbits>   Eq. 2 key length
    capability [--seed N] [--secret N] [--duration S]  practitioner key-sharing demo
    gateway   [--sessions N] [--workers N] [--queue N] [--flaky RATE] [--seed N]
              [--shards N] [--data-dir PATH] [--flush write|every:N|interval:MS]
              [--telemetry text|json|off] [--replicas]
              [--uplink retry|fountain] [--symbol-budget FACTOR]
              [--wire binary|json]
                                                       serve a clinic fleet concurrently;
                                                       with --data-dir, persist through a
                                                       per-shard WAL and recover on restart;
                                                       --replicas pairs the durable service
                                                       with a warm standby (WAL shipping to
                                                       <data-dir>-standby) and routes through
                                                       the pair; --telemetry dumps the unified
                                                       metric exposition (text) or the span
                                                       ring (json) after the fleet drains;
                                                       --uplink fountain streams one-way
                                                       (ACK-free) fountain symbols instead of
                                                       retrying, with --symbol-budget coded
                                                       symbols per source symbol (1.0..=64.0);
                                                       --wire selects the request encoding
                                                       (compact binary by default, json for
                                                       debugging and legacy clients)
    wire-golden <dir> [--write]                        verify the checked-in golden wire frames
                                                       against the fixture corpus (byte-exact
                                                       binary + JSON equivalence); --write
                                                       regenerates them
    replica-status [--shards N] [--writes N] [--kill]  run a demo replicated pair, print its
                                                       shipping/lag/epoch status; with --kill,
                                                       crash the primary mid-run and show the
                                                       fenced failover
    telemetry [--requests N]                           drive a small workload and pretty-print
                                                       the telemetry snapshot (instruments +
                                                       slowest requests with stage breakdowns)
    soak      [--quick]                                 run the reconciling overload soak: a
                                                       scaled-clock storm (≥10⁶ attempts at
                                                       full size) through queue shed, rate
                                                       limiting, fountain eviction, and one
                                                       failover, then check every exposition
                                                       overload counter against the driver's
                                                       ledger; exits non-zero on any
                                                       reconciliation violation; --quick runs
                                                       the seconds-scale CI preset
    audit     [--seed N] [--quick]                     run the adversarial self-audit battery
                                                       (keying entropy vs Eq. 2, distinguishing
                                                       attack, auth-compare timing, keyspace
                                                       collisions) and print the scorecard;
                                                       exits non-zero if any section fails;
                                                       --quick runs the ~10x smaller preset
    help                                               show this text
";

/// Dispatches a full argument vector (excluding `argv[0]`).
pub fn run(args: &[String], out: &mut dyn Write) -> ExitCode {
    let Some((command, rest)) = args.split_first() else {
        let _ = writeln!(out, "{USAGE}");
        return 2;
    };
    let result = match command.as_str() {
        "session" => commands::session(rest, out),
        "enroll" => commands::enroll(rest, out),
        "synth" => commands::synth(rest, out),
        "analyze" => commands::analyze(rest, out),
        "attack" => commands::attack(rest, out),
        "keylen" => commands::keylen(rest, out),
        "capability" => commands::capability(rest, out),
        "gateway" => commands::gateway(rest, out),
        "replica-status" => commands::replica_status(rest, out),
        "telemetry" => commands::telemetry(rest, out),
        "audit" => commands::audit(rest, out),
        "soak" => commands::soak(rest, out),
        "wire-golden" => commands::wire_golden(rest, out),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => 0,
        Err(message) => {
            let _ = writeln!(out, "error: {message}");
            1
        }
    }
}

/// Parses `--flag value` style options out of an argument list, returning
/// `(positional, lookup)` where `lookup(name)` yields the last value given.
pub(crate) fn split_options(
    args: &[String],
) -> Result<(Vec<String>, std::collections::BTreeMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut options = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if name == "auth"
                || name == "full"
                || name == "replicas"
                || name == "kill"
                || name == "quick"
                || name == "write"
            {
                options.insert(name.to_owned(), "true".to_owned());
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| format!("option --{name} needs a value"))?;
                options.insert(name.to_owned(), value.clone());
            }
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, options))
}

pub(crate) fn parse<T: std::str::FromStr>(
    options: &std::collections::BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match options.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("option --{name} got unparsable value `{raw}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> (ExitCode, String) {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let mut buf = Vec::new();
        let code = run(&args, &mut buf);
        (code, String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn no_args_prints_usage() {
        let (code, text) = run_to_string(&[]);
        assert_eq!(code, 2);
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn help_succeeds() {
        let (code, text) = run_to_string(&["help"]);
        assert_eq!(code, 0);
        assert!(text.contains("session"));
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        let (code, text) = run_to_string(&["frobnicate"]);
        assert_eq!(code, 1);
        assert!(text.contains("unknown command"));
    }

    #[test]
    fn replica_status_reports_a_healthy_pair() {
        let (code, text) = run_to_string(&["replica-status", "--shards", "2", "--writes", "4"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("epoch 1 | promoted no"), "{text}");
        assert!(text.contains("lag 0 B"), "{text}");
        assert!(text.contains("attached"), "{text}");
    }

    #[test]
    fn gateway_replicas_requires_a_data_dir() {
        let (code, text) = run_to_string(&["gateway", "--replicas"]);
        assert_eq!(code, 1);
        assert!(text.contains("--replicas needs --data-dir"), "{text}");
    }

    #[test]
    fn gateway_uplink_validates_its_arguments() {
        let (code, text) = run_to_string(&["gateway", "--uplink", "carrier-pigeon"]);
        assert_eq!(code, 1);
        assert!(text.contains("expected `retry` or `fountain`"), "{text}");

        let (code, text) = run_to_string(&["gateway", "--symbol-budget", "4"]);
        assert_eq!(code, 1);
        assert!(
            text.contains("--symbol-budget needs --uplink fountain"),
            "{text}"
        );

        let (code, text) =
            run_to_string(&["gateway", "--uplink", "fountain", "--symbol-budget", "900"]);
        assert_eq!(code, 1);
        assert!(
            text.contains("--symbol-budget must be in 1.0..=64.0"),
            "{text}"
        );
    }

    #[test]
    fn gateway_fountain_uplink_serves_the_fleet_one_way() {
        let (code, text) = run_to_string(&[
            "gateway",
            "--sessions",
            "4",
            "--workers",
            "2",
            "--flaky",
            "0.3",
            "--uplink",
            "fountain",
            "--telemetry",
            "text",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("fountain uplink"), "{text}");
        assert!(text.contains("one-way stream:"), "{text}");
        assert!(text.contains("0 gave up"), "{text}");
        assert!(text.contains("fountain.sessions_completed 4"), "{text}");
    }

    #[test]
    fn audit_prints_a_passing_scorecard() {
        let (code, text) = run_to_string(&["audit", "--quick", "--seed", "9"]);
        assert_eq!(code, 0, "{text}");
        for needle in [
            "seed 9",
            "[1/4] keying entropy vs Eq. 2",
            "[2/4] distinguishing attack",
            "[3/4] auth compare timing",
            "[4/4] keyspace collisions",
            "overall: PASS",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn soak_quick_reconciles_and_prints_the_report() {
        let (code, text) = run_to_string(&["soak", "--quick"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("reconciled exactly"), "{text}");
        assert!(text.contains("ledger"), "{text}");
        assert!(text.contains("sampler"), "{text}");
    }

    #[test]
    fn soak_rejects_stray_arguments() {
        let (code, text) = run_to_string(&["soak", "now"]);
        assert_eq!(code, 1);
        assert!(text.contains("unexpected argument"), "{text}");
    }

    #[test]
    fn audit_rejects_stray_arguments() {
        let (code, text) = run_to_string(&["audit", "now"]);
        assert_eq!(code, 1);
        assert!(text.contains("unexpected argument"), "{text}");
    }

    #[test]
    fn option_splitting() {
        let args: Vec<String> = ["a", "--seed", "7", "b", "--auth"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let (positional, options) = split_options(&args).unwrap();
        assert_eq!(positional, vec!["a", "b"]);
        assert_eq!(options.get("seed").map(String::as_str), Some("7"));
        assert_eq!(options.get("auth").map(String::as_str), Some("true"));
    }

    #[test]
    fn option_missing_value_errors() {
        let args: Vec<String> = vec!["--seed".to_owned()];
        assert!(split_options(&args).is_err());
    }

    #[test]
    fn parse_falls_back_to_default() {
        let options = std::collections::BTreeMap::new();
        assert_eq!(parse(&options, "seed", 42u64).unwrap(), 42);
    }
}
