//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints the host/build fingerprint and one gate line
//! per timed unit, and ends with the result line: one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. Exits 1 when
//! any unit failed its correctness checks, 2 on bad arguments and 3 when
//! a unit missed its deadline.

use perfbench::{host, run, Opts, Size, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: Workload::HeteroDist,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut named = false;
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            usage("every flag takes a value")
        };
        match key.as_str() {
            "--workload" => {
                opts.workload = Workload::parse(value).unwrap_or_else(|| usage("unknown workload"));
                named = true;
            }
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage("bad seed")),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("bad seconds"))
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage("unknown flag"),
        }
    }
    if !named {
        usage("--workload is required");
    }
    println!(
        "# fingerprint {}",
        host::fingerprint(opts.workload.name(), opts.seed)
    );
    let outcome = run(&opts);
    println!("{}", outcome.to_json());
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
