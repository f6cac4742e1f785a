//! Exports the target triple so every result can name the platform it ran on.

fn main() {
    let target = std::env::var("TARGET").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_TARGET={target}");
    println!("cargo:rerun-if-changed=build.rs");
}
