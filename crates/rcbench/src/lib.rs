//! The `rcbench` command-line interface ([`cli`]) every experiment runs
//! behind, plus the crate's JSON emitter and parser ([`json`]).
//!
//! `rcbench <subcommand>` regenerates one table or figure from the
//! paper's evaluation (or runs one of the tenant-isolation experiments),
//! prints it with the paper's reported values alongside, and writes its
//! artifacts under `results/`. Every experiment is an entry in
//! [`workload::ScenarioRegistry`]; `rcbench help` lists them.

pub mod cli;
pub mod json;
