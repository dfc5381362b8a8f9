//! Command-line contract of the `sim` and `figures` binaries: invalid
//! input exits 2 with a message, and a closed stdout ends a run quietly.
//! No input may end in a panic (exit 101).

use std::process::{Command, Output, Stdio};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("STTCACHE_INVARIANTS")
        .env_remove("STTCACHE_TELEMETRY")
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

#[test]
fn sim_rejects_bank_counts_that_are_not_powers_of_two() {
    for banks in ["0", "3", "6"] {
        let out = run(
            env!("CARGO_BIN_EXE_sim"),
            &["--cores", "2", "--l2-banks", banks],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--l2-banks {banks}: {stderr}");
        assert!(!stderr.contains("panicked"), "--l2-banks {banks}: {stderr}");
        assert!(!stderr.trim().is_empty(), "--l2-banks {banks}: no message");
        assert!(out.stdout.is_empty(), "--l2-banks {banks} printed results");
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
