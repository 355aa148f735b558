//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale F]`
//!
//! Prints a summary on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).  Run from the
//! repository root: scratch files, recorded counts and traces go to
//! `perfbench/out`.

use perfbench::run::{run, Args};
use perfbench::workload::NAMES;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale F]";

fn usage(message: &str) -> ! {
    eprintln!(
        "perfbench: {message}\n{USAGE}\nworkloads: {}",
        NAMES.join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let bad = |what: &str| -> ! { usage(&format!("{flag}: `{value}` is not {what}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad("an integer")),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| bad("a positive number"));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("0 or 1"),
                };
            }
            "--scale" => {
                args.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 1.0)
                    .unwrap_or_else(|| bad("a number in (0, 1]"));
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload `{}`", args.workload));
    }
    args
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(outcome) => println!("{}", outcome.render_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
