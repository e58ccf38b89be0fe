//! Command-line boundary of the `figures` binary.

use std::process::{Command, Stdio};

/// A misspelt scale or a stray argument must fail fast with the usage
/// text, not fall back to a paper-scale run that takes minutes.
#[test]
fn bad_arguments_exit_2_without_simulating() {
    let cases: [(&[&str], &str); 2] = [
        (&["fig8", "smal"], "smal"),
        (&["fig8", "tiny", "--cvs"], "--cvs"),
    ];
    for (line, bad) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(line)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{line:?}");
        assert!(out.stdout.is_empty(), "no figure rendered for {line:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bad), "names the bad input: {stderr}");
        assert!(stderr.contains("usage: figures"), "prints usage: {stderr}");
    }
}

/// `figures ... | head` closes the pipe early; that ends the run
/// successfully instead of panicking on the next write.
#[test]
fn a_closed_stdout_pipe_is_success() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("table1")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// `--csv` applies to every figure of a multi-figure id, not only to a
/// single figure.
#[test]
fn extras_honour_csv() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["extras", "tiny", "--csv"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let headers = stdout.lines().filter(|l| l.starts_with("label,")).count();
    assert_eq!(headers, 7, "one CSV header per extras figure:\n{stdout}");
    assert!(!stdout.contains("=="), "no text-table titles:\n{stdout}");
}
