//! Command-line boundary of the `figures` binary.

use std::process::Command;

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
