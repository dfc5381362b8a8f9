//! Command-line contract of the `sim` and `figures` binaries: invalid
//! input exits 2 with a message, and a closed stdout ends a run quietly.
//! No input may end in a panic (exit 101).

use std::process::{Command, Output, Stdio};

fn run(bin: &str, args: &[&str]) -> Output {
    run_with_env(bin, args, &[])
}

/// Runs `bin` with `env` set on the child process only.
fn run_with_env(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("STTCACHE_INVARIANTS")
        .env_remove("STTCACHE_TELEMETRY")
        .envs(env.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

/// Asserts `out` is a usage failure: exit 2, a message on stderr that
/// contains every one of `needles`, no panic and no results.
fn assert_rejected(out: &Output, what: &str, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(!stderr.trim().is_empty(), "{what}: no message");
    for needle in needles {
        assert!(stderr.contains(needle), "{what}: no '{needle}' in {stderr}");
    }
    assert!(out.stdout.is_empty(), "{what} printed results");
}

#[test]
fn sim_rejects_bank_counts_that_are_not_powers_of_two() {
    for banks in ["0", "3", "6"] {
        let out = run(
            env!("CARGO_BIN_EXE_sim"),
            &["--cores", "2", "--l2-banks", banks],
        );
        assert_rejected(&out, &format!("--l2-banks {banks}"), &[]);
    }
}

#[test]
fn figures_ends_quietly_when_stdout_is_closed() {
    // The read end of the child's stdout pipe is closed before the child
    // starts, so its very first line fails with EPIPE, as the rest of
    // `figures all | head -1` does once `head` has exited. `table1`
    // shares the printers with `all` and needs no simulation.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("table1")
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("cannot run figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.is_empty(),
        "a closed stdout is not an error: {stderr}"
    );
}

#[test]
fn sim_rejects_vwb_bits_without_the_vwb_organization() {
    for args in [
        &["--bench", "gemm", "--size", "mini", "--vwb-bits", "4096"][..],
        &["--bench", "gemm", "--org", "l0", "--vwb-bits", "4096"][..],
    ] {
        let out = run(env!("CARGO_BIN_EXE_sim"), args);
        assert_rejected(&out, &args.join(" "), &["--vwb-bits", "--org vwb"]);
    }
    let out = run(
        env!("CARGO_BIN_EXE_sim"),
        &["--bench", "trisolv", "--org", "vwb", "--vwb-bits", "4096"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "--org vwb --vwb-bits: {stderr}");
}

#[test]
fn sim_rejects_a_vwb_size_that_holds_no_line() {
    for bits in ["0", "3"] {
        let out = run(
            env!("CARGO_BIN_EXE_sim"),
            &["--bench", "gemm", "--org", "vwb", "--vwb-bits", bits],
        );
        assert_rejected(
            &out,
            &format!("--vwb-bits {bits}"),
            &["invalid configuration", "512-bit line"],
        );
    }
}

#[test]
fn sim_reports_an_overflowing_mix_offset_as_such() {
    let out = run(
        env!("CARGO_BIN_EXE_sim"),
        &["--cores", "2", "--mix", "gemm@99999999999999999999+mvt"],
    );
    assert_rejected(&out, "overflowing --mix offset", &["overflows"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("unknown workload"), "{stderr}");
}

#[test]
fn malformed_env_knobs_exit_2_naming_the_variable_and_value() {
    let figures = (env!("CARGO_BIN_EXE_figures"), &["table1"][..]);
    let sim = (env!("CARGO_BIN_EXE_sim"), &["--bench", "gemm"][..]);
    for (var, value) in [
        ("STTCACHE_THREADS", "-1"),
        ("STTCACHE_THREADS", "0"),
        ("STTCACHE_TRACE_CACHE_BYTES", "abc"),
        ("STTCACHE_TRACE_CHECK", "yes"),
        ("STTCACHE_INVARIANTS", "maybe"),
        ("STTCACHE_TELEMETRY", "maybe"),
    ] {
        for (bin, args) in [figures, sim] {
            let out = run_with_env(bin, args, &[(var, value)]);
            assert_rejected(&out, &format!("{var}={value} {bin}"), &[var, value]);
        }
    }
}

#[test]
fn boolean_env_knobs_accept_every_documented_spelling() {
    for value in ["", "0", "1", "false", "true"] {
        let out = run_with_env(
            env!("CARGO_BIN_EXE_figures"),
            &["table1"],
            &[("STTCACHE_TRACE_CHECK", value)],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "'{value}': {stderr}");
    }
}
