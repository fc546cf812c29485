//! `healthmon` — command-line workflow for concurrent test of ReRAM NN
//! accelerators.
//!
//! ```text
//! healthmon train    --arch lenet5 --out model.json [--epochs 4] [--seed 7]
//! healthmon inject   --arch lenet5 --model model.json --fault pv:0.3 --out faulty.json [--seed 2020]
//! healthmon generate --arch lenet5 --model model.json --method ctp --out patterns.json [--count 50]
//! healthmon check    --arch lenet5 --model model.json --target faulty.json \
//!                    --patterns patterns.json [--threshold 0.03]
//! healthmon lifetime --arch lenet5 --model model.json --epochs 20 \
//!                    [--checkpoint cp.json] [--report report.txt]
//! ```
//!
//! Every artifact is a JSON file: models are state dicts
//! ([`healthmon_nn::Network::save_weights`]), pattern sets are image
//! tensors. Exit code of `check` is 0 for healthy, 2 for faulty, so it
//! can gate a maintenance cron job directly.

#[macro_use]
mod output;
mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(code) => code,
        Err(message) => {
            errln!("error: {message}");
            errln!();
            errln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
