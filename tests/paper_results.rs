//! The paper's registered experiments and their committed answers in
//! `results/` stay in step: every artifact has a committed answer for
//! `./ci` to diff against, and every committed answer has an artifact that
//! regenerates it.

use apple_nfv::sim::paper::EXPERIMENTS;
use std::collections::BTreeSet;
use std::process::{Command, Stdio};

#[test]
fn registry_names_equal_the_committed_results() {
    let registered: BTreeSet<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(registered.len(), EXPERIMENTS.len(), "duplicate name");
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let committed: BTreeSet<String> = std::fs::read_dir(dir)
        .expect("results/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let committed: BTreeSet<&str> = committed.iter().map(String::as_str).collect();
    assert_eq!(registered, committed);
}

#[test]
fn unknown_or_extra_paper_arguments_fail() {
    for args in [
        &["paper", "nosuch"][..],
        &["paper"],
        &["paper", "fig6", "fig7"],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_apple"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("apple runs");
        assert!(!status.success(), "`apple {}` exited 0", args.join(" "));
    }
}
