//! The experiment binaries end with a named error, not a panic, when
//! their output cannot be written, and they find out before the
//! experiment runs.

use std::process::Command;

#[test]
fn an_unwritable_out_path_exits_1_with_one_error_line() {
    let dir = std::env::temp_dir().join(format!("rdse_bench_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A regular file where the CSV's directory should be.
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, "").unwrap();
    let out = blocker.join("fig3.csv");

    let run = Command::new(env!("CARGO_BIN_EXE_fig3"))
        .args(["--runs", "1", "--iters", "200", "--out"])
        .arg(&out)
        .output()
        .expect("fig3 starts");
    std::fs::remove_dir_all(&dir).unwrap();

    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "stderr: {stderr}");
    assert!(errors[0].contains(&*out.to_string_lossy()), "{}", errors[0]);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn an_unwritable_out_path_fails_before_the_experiment_runs() {
    let dir = std::env::temp_dir().join(format!("rdse_bench_cli_early_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, "").unwrap();

    let run = Command::new(env!("CARGO_BIN_EXE_fig3"))
        .args(["--runs", "1", "--iters", "200", "--out"])
        .arg(blocker.join("x.csv"))
        .output()
        .expect("fig3 starts");
    std::fs::remove_dir_all(&dir).unwrap();

    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        !stderr.lines().any(|l| l.starts_with("size ")),
        "a sweep point ran before the output was checked: {stderr}"
    );
    assert!(run.stdout.is_empty(), "plots were printed before the error");
}
