//! `gaasx-cli` argument handling: options may come before or after the
//! graph file, and an option the command does not read is an error rather
//! than silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gaasx-cli"))
        .args(args)
        .output()
        .expect("gaasx-cli runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Generates a small RMAT edge list through the CLI itself.
fn graph_file(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("gaasx-cli-{}-{name}.txt", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = cli(&[
        "generate",
        "rmat",
        "--vertices",
        "64",
        "--edges",
        "300",
        "--seed",
        "3",
        "--out",
        path_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));
    path
}

#[test]
fn options_may_precede_the_graph_file() {
    let path = graph_file("before");
    let file = path.to_str().expect("utf-8 temp path");
    for args in [
        ["pagerank", "--iters", "3", file],
        ["bfs", "--source", "0", file],
        ["sssp", "--source", "1", file],
        ["compare", "--iters", "2", file],
    ] {
        let out = cli(&args);
        assert!(out.status.success(), "{args:?} failed: {}", stderr(&out));
        assert!(String::from_utf8_lossy(&out.stdout).contains("engine=gaasx"));
    }
    let out = cli(&["pagerank", file, "--iters", "3", "--top", "2"]);
    assert!(out.status.success(), "file first failed: {}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn unread_options_and_missing_values_fail_loudly() {
    let path = graph_file("reject");
    let file = path.to_str().expect("utf-8 temp path");
    let cases: [(&[&str], &str); 5] = [
        (
            &["pagerank", file, "--search-mode", "auto"],
            "unknown option '--search-mode'",
        ),
        (&["cc", "--source", "0", file], "unknown option '--source'"),
        (&["bfs", file, "--source"], "--source requires a value"),
        (&["bfs", "--iters", "3"], "unknown option '--iters'"),
        (&["info", file, file], "unexpected argument"),
    ];
    for (args, want) in cases {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr(&out).contains(want), "{args:?}: {}", stderr(&out));
    }
    let out = cli(&["bfs", "--source", "0"]);
    assert!(
        stderr(&out).contains("missing <file> argument"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_file(&path).ok();
}
