//! Embeds the build fingerprint: compiler version, the checkout's git
//! commit when it is a git checkout, and a content hash of the sources
//! the benchmark builds, which identifies the build either way.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest =
        PathBuf::from(env::var("CARGO_MANIFEST_DIR").expect("cargo sets the manifest dir"));
    let root = manifest
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf();
    let rustc = env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let commit = git_head(&root.join(".git")).unwrap_or_else(|| "none".into());

    let mut files = Vec::new();
    for dir in ["crates", "shims", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
        println!("cargo:rerun-if-changed={}", root.join(dir).display());
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        let path = root.join(file);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
            files.push(path);
        }
    }
    if root.join(".git/HEAD").exists() {
        println!(
            "cargo:rerun-if-changed={}",
            root.join(".git/HEAD").display()
        );
    }
    files.sort();
    // FNV-1a over relative paths and contents: stable across toolchains
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let bytes = fs::read(path).unwrap_or_default();
        for b in rel.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_HASH={hash:016x}");
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// The commit `HEAD` names, read from the files of `git_dir`.
fn git_head(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git_dir.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
