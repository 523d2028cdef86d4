//! `critic`'s argument errors: each case is rejected before any workload
//! is generated or simulated, so the whole file runs in well under a
//! second. The exit codes are the CLI's documented contract.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `critic ARGS`, killing it after a few seconds: an argument the
/// parser wrongly accepts would otherwise start a campaign or a server
/// and hang the test instead of failing it.
fn critic(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_critic"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn critic");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll critic").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect critic output")
}

/// Asserts `critic ARGS` exits with `code` and returns its stderr.
fn expect_exit(args: &[&str], code: i32) -> String {
    let out = critic(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "critic {args:?} should exit {code}; stderr:\n{stderr}"
    );
    stderr
}

#[test]
fn no_arguments_print_the_top_level_usage_line() {
    let stderr = expect_exit(&[], 2);
    assert_eq!(
        stderr,
        "critic: usage: critic <list|profile|compile|run|validate|disasm|campaign|stats|chaos|\
         drill|serve|router|loadgen|soak> [app] [options]\n"
    );
}

#[test]
fn unknown_command_is_a_usage_error() {
    expect_exit(&["frobnicate"], 2);
}

#[test]
fn unknown_app_exits_3() {
    expect_exit(&["run", "nosuchapp"], 3);
}

#[test]
fn unknown_scheme_exits_4() {
    expect_exit(&["run", "Maps", "--scheme", "bogus"], 4);
}

#[test]
fn zero_apps_is_a_usage_error() {
    expect_exit(&["campaign", "--apps", "0"], 2);
}

#[test]
fn misspelled_flag_is_named_in_the_usage_error() {
    let stderr = expect_exit(&["campaign", "--trace_len", "5000"], 2);
    assert!(stderr.contains("--trace_len"), "{stderr}");
    assert!(stderr.contains("usage: critic campaign"), "{stderr}");
}

#[test]
fn value_flag_at_the_end_of_argv_is_a_usage_error() {
    let stderr = expect_exit(&["campaign", "--journal"], 2);
    assert!(stderr.contains("--journal"), "{stderr}");
}

#[test]
fn repeated_single_value_flag_is_a_usage_error() {
    let stderr = expect_exit(&["chaos", "--seed", "1", "--seed", "2"], 2);
    assert!(stderr.contains("--seed"), "{stderr}");
}

#[test]
fn sharded_soak_refuses_single_server_flags() {
    let stderr = expect_exit(&["soak", "--shards", "3", "--no-kill"], 2);
    assert!(stderr.contains("--no-kill"), "{stderr}");
}

#[test]
fn router_refuses_systemic_faults() {
    // Scratch paths, in case a router that wrongly accepts `--sys` starts.
    let journals = format!("{}/cli_args_journals", env!("CARGO_TARGET_TMPDIR"));
    let stores = format!("{}/cli_args_stores", env!("CARGO_TARGET_TMPDIR"));
    let stderr = expect_exit(
        &[
            "router",
            "--journal-dir",
            &journals,
            "--store-dir",
            &stores,
            "--sys",
            "store-read@1",
        ],
        2,
    );
    assert!(stderr.contains("--sys"), "{stderr}");
}
