//! Embeds build metadata for `GET /v1/version` and the `/metrics`
//! `build_info` block: the short git hash and the rustc version string.
//! Both are best-effort — a tarball build without `.git` or an exotic
//! toolchain simply reports "unknown" — and both can be overridden by
//! setting `AMPC_GIT_HASH` / `AMPC_RUSTC_VERSION` in the environment
//! (the code reads them with `option_env!`, so the override wins at
//! compile time).

use std::process::Command;

fn capture(cmd: &mut Command) -> Option<String> {
    let output = cmd.output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    // Re-run when HEAD moves so the embedded hash stays honest. Without a
    // `.git` (tarball or `git archive` copy) a rerun-if-changed path that
    // does not exist would make cargo rerun this script, and rebuild
    // everything above it, on every build; watch the script itself.
    let head = std::path::Path::new("../../.git/HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
    println!("cargo:rerun-if-env-changed=AMPC_GIT_HASH");
    println!("cargo:rerun-if-env-changed=AMPC_RUSTC_VERSION");

    if std::env::var("AMPC_GIT_HASH").is_err() {
        let hash = capture(Command::new("git").args(["rev-parse", "--short=12", "HEAD"]))
            .unwrap_or_else(|| "unknown".to_string());
        println!("cargo:rustc-env=AMPC_GIT_HASH={hash}");
    }
    if std::env::var("AMPC_RUSTC_VERSION").is_err() {
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
        let version =
            capture(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".to_string());
        println!("cargo:rustc-env=AMPC_RUSTC_VERSION={version}");
    }
}
