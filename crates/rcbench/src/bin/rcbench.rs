//! The unified benchmark CLI: `rcbench <subcommand> [flags]`.
//!
//! ```sh
//! cargo run --release -p rcbench -- help
//! cargo run --release -p rcbench -- fig11 --check
//! cargo run --release -p rcbench -- cluster --reduced --check
//! cargo run --release -p rcbench -- ab --scenario span --arms decay,edf
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    rcbench::cli::main()
}
