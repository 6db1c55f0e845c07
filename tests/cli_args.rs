//! Argument errors on the `snails` binary are usage errors: exit code 2
//! with a message, never a panic.

use std::process::Command;

#[test]
fn bad_database_names_and_question_ids_exit_2_without_panicking() {
    for args in [
        &["sql", "NOPE", "SELECT 1"][..],
        &["ask", "NOPE", "1"],
        &["ask", "CWO", "abc"],
        &["explain", "NOPE", "1"],
        &["audit", "NOPE"],
        &["serve", "--socket", "unused.sock", "--dbs", "NOPE"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_snails"))
            .args(args)
            .output()
            .expect("snails binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
}
