//! The `wht-wisdom` command line on a store that holds one intact and one
//! damaged shard: `inspect` and `fsck` report without touching the store,
//! and only `fsck --quarantine` moves the damaged shard. A store path
//! that does not exist is an error that names it, and is never created.

use std::fs;
use std::path::{Path, PathBuf};
use wht_search::encode_shard;

const INTACT: &str = "n04-instruction-model-00000000-host.shard";
/// Seven bytes: cut off inside the shard header.
const DAMAGED: &str = "n04-x-00000000-h.shard";

/// A fresh store: one intact version-8 shard for n = 4 and one damaged
/// shard.
fn store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wht_wisdom_cli_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let payload = "{\"version\":8,\"entries\":[{\"n\":4,\"backend\":\"instruction-model\",\
                   \"plan\":\"split[small[2],small[2]]\"}]}";
    fs::write(dir.join(INTACT), encode_shard(1, payload.as_bytes())).unwrap();
    fs::write(dir.join(DAMAGED), b"WHTSHRD").unwrap();
    dir
}

/// Run `wht-wisdom <command> <dir> <flags>`: exit success, stdout, stderr.
fn wht_wisdom(command: &str, dir: &Path, flags: &[&str]) -> (bool, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_wht-wisdom"))
        .arg(command)
        .arg(dir)
        .args(flags)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.success(), stdout, stderr)
}

fn assert_left_in_place(dir: &Path) {
    assert!(dir.join(INTACT).exists());
    assert!(dir.join(DAMAGED).exists(), "damaged shard moved");
    assert!(!dir.join("quarantine").exists(), "store was modified");
}

#[test]
fn inspect_lists_the_intact_entry_and_leaves_the_damaged_shard() {
    let dir = store("inspect");
    let (ok, stdout, stderr) = wht_wisdom("inspect", &dir, &[]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("1 intact shard(s), 1 damaged"), "{stdout}");
    assert!(
        stdout.contains("n=4  backend=instruction-model: split[small[2],small[2]]"),
        "{stdout}"
    );
    assert!(stderr.contains(DAMAGED), "{stderr}");
    assert_left_in_place(&dir);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsck_fails_on_damage_and_leaves_the_damaged_shard() {
    let dir = store("fsck");
    let (ok, stdout, stderr) = wht_wisdom("fsck", &dir, &[]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("1 intact shard(s), 1 damaged"), "{stdout}");
    assert!(stderr.contains(DAMAGED), "{stderr}");
    assert_left_in_place(&dir);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsck_quarantine_moves_the_damaged_shard() {
    let dir = store("quarantine");
    let (ok, stdout, _) = wht_wisdom("fsck", &dir, &["--quarantine"]);
    assert!(!ok, "{stdout}");
    assert!(
        stdout.contains("1 damaged shard(s) moved to quarantine/"),
        "{stdout}"
    );
    assert!(dir.join(INTACT).exists());
    assert!(!dir.join(DAMAGED).exists());
    assert!(dir.join("quarantine").join(DAMAGED).exists());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_missing_store_is_an_error_that_names_it_and_creates_nothing() {
    let root = std::env::temp_dir().join(format!("wht_wisdom_cli_{}_missing", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let missing = root.join("no-such-store");
    for (command, flags) in [
        ("inspect", &[][..]),
        ("fsck", &[]),
        ("fsck", &["--quarantine"]),
    ] {
        let (ok, stdout, stderr) = wht_wisdom(command, &missing, flags);
        assert!(!ok, "{command} {flags:?} succeeded: {stdout}");
        assert!(
            stderr.contains(&*missing.to_string_lossy()),
            "{command} {flags:?}: {stderr}"
        );
        assert!(
            !root.exists(),
            "{command} {flags:?} created {}",
            root.display()
        );
    }
    // merge: the missing input is refused before the output is opened.
    let out = root.join("out");
    let (ok, stdout, stderr) = wht_wisdom("merge", &out, &[&*missing.to_string_lossy()]);
    assert!(!ok, "merge succeeded: {stdout}");
    assert!(stderr.contains(&*missing.to_string_lossy()), "{stderr}");
    assert!(!root.exists(), "merge created {}", root.display());
}
