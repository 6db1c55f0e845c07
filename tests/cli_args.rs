//! Argument errors on the `snails` and `experiments` binaries are usage
//! errors: exit code 2 with a message, never a panic.

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

#[test]
fn experiments_argument_errors_exit_2_and_write_nothing() {
    // Run in an empty directory: a `--write` that slipped through would
    // leave an EXPERIMENTS.md here instead of replacing the committed one.
    let dir = std::env::temp_dir().join(format!("snails-cli-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    for args in [
        &["--seed", "x"][..],
        &["--seed"],
        &["--threads"],
        &["--threads", "0"],
        &["--shard", "2/2"],
        &["--shard"],
        &["--fault-profile", "bogus"],
        &["--telemetry"],
        &["--fgi8"],
        &["stray"],
        &["--write", "--fgi8"],
        &["--write", "--fig8"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("experiments binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.contains("fig8") && stderr.contains("tau-tables"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote a document");
    }
    assert!(!dir.join("EXPERIMENTS.md").exists());
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}
