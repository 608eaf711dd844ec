//! The unified `rcbench` command-line interface.
//!
//! One binary, one subcommand per experiment. Every scenario registered
//! in [`workload::ScenarioRegistry`] — the paper's tables and figures,
//! the ablations, and the tenant-isolation experiments — shares a single
//! generic driver ([`driver`]) with uniform flags (`--reduced`,
//! `--check`, `--out`, `--ncpus`, `--seed`, `--clients`, `--nodes`),
//! headline printing, text-report writing, and artifact
//! validation/writing. Three subcommands keep bespoke drivers because
//! their flags are not the uniform set: [`trace`] (a positional scenario
//! run under kernel-wide tracing), [`ab`] (same-seed policy A/B diff over
//! `--arms`), and [`perf`] (simulator self-benchmark).

mod ab;
mod driver;
mod perf;
mod trace;

use std::process::ExitCode;

use workload::ScenarioRegistry;

type Run = fn(&[String]) -> Result<(), String>;

/// The bespoke subcommands as `(name, usage, runner)`. [`dispatch`]
/// matches these before the registry, so no registry scenario may share
/// one of their names.
const BESPOKE: &[(&str, &str, Run)] = &[
    (
        "trace",
        "run a named scenario traced (baseline | fig11 | fig14 | disk_tenants)",
        trace::run,
    ),
    (
        "ab",
        "same-seed policy A/B diff (--scenario span|qos --arms A,B ...)",
        ab::run,
    ),
    (
        "perf",
        "simulator self-benchmark (--reduced --floor N --check)",
        perf::run,
    ),
    ("help", "this list", help),
];

/// Runs one subcommand with already-split arguments.
pub fn dispatch(cmd: &str, args: &[String]) -> Result<(), String> {
    let cmd = match cmd {
        "--help" | "-h" => "help",
        other => other,
    };
    if let Some((_, _, run)) = BESPOKE.iter().find(|(name, _, _)| *name == cmd) {
        return run(args);
    }
    match ScenarioRegistry::standard().get(cmd) {
        Some(spec) => driver::run(spec, args),
        None => Err(format!(
            "unknown subcommand '{cmd}' (run `rcbench help` for the list)"
        )),
    }
}

/// Entry point for the `rcbench` binary: the first argument selects the
/// subcommand.
pub fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        let _ = help(&[]);
        return ExitCode::FAILURE;
    };
    match dispatch(&cmd, &args.collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{cmd} run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn help(_: &[String]) -> Result<(), String> {
    println!("rcbench <subcommand> [flags]\n");
    println!("registry scenarios (uniform flags: --reduced --check --out NAME");
    println!("  --ncpus N --seed N --clients N --nodes N):");
    for spec in ScenarioRegistry::standard().iter() {
        println!("  {:<15} {}", spec.name, spec.about);
    }
    println!("\nbespoke subcommands:");
    for (name, usage, _) in BESPOKE {
        println!("  {name:<15} {usage}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registry scenario whose name collides with another, or with a
    /// bespoke subcommand (which `dispatch` matches first), could never
    /// be run.
    #[test]
    fn registry_names_are_unique_and_unshadowed() {
        let registry = ScenarioRegistry::standard();
        let mut seen = std::collections::BTreeSet::new();
        for spec in registry.iter() {
            assert!(seen.insert(spec.name), "duplicate scenario {}", spec.name);
            assert!(
                !BESPOKE.iter().any(|(name, _, _)| *name == spec.name),
                "scenario {} is shadowed by a bespoke subcommand",
                spec.name
            );
        }
    }
}
