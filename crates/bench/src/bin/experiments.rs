//! The experiment harness: regenerates every table of the paper
//! reproduction.
//!
//! Usage:
//! ```text
//! experiments [--quick] [--trials N] [--seed S] [--csv] <id>... | all | list
//! ```
//!
//! Experiment ids are listed in the README's "The experiment suite"
//! section (e1..e12, a1..a3b, r1). `all` runs the whole suite in order;
//! `list` prints the ids. Output is markdown by default (`--csv` switches
//! the table body to CSV).

use crn_workloads::experiments::{run_experiment, ExpConfig, ALL_EXPERIMENTS};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--quick] [--trials N] [--seed S] [--csv] <id>... | all | list\n\
         ids: {}",
        ALL_EXPERIMENTS.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ExpConfig::default();
    let mut csv = false;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                cfg.quick = true;
                cfg.trials = cfg.trials.min(3);
            }
            "--trials" => {
                let n = args.next().unwrap_or_else(|| usage());
                cfg.trials = n.parse().unwrap_or_else(|_| usage());
            }
            "--seed" => {
                let s = args.next().unwrap_or_else(|| usage());
                cfg.seed = s.parse().unwrap_or_else(|_| usage());
            }
            "--csv" => csv = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
    }
    if ids.iter().any(|i| i == "list") {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<String> = if ids.iter().any(|i| i == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        ids
    };
    for id in &ids {
        if !ALL_EXPERIMENTS.contains(&id.as_str()) {
            eprintln!("unknown experiment {id:?}");
            usage();
        }
    }
    println!(
        "<!-- generated by `experiments {}{}` -->\n",
        if cfg.quick { "--quick " } else { "" },
        ids.join(" ")
    );
    for id in &ids {
        let start = Instant::now();
        let tables = run_experiment(id, &cfg);
        let elapsed = start.elapsed();
        for t in &tables {
            if csv {
                println!("### {}\n\n```csv\n{}```\n", t.title, t.csv());
            } else {
                println!("{}", t.markdown());
            }
        }
        println!("_({id} completed in {:.1}s)_\n", elapsed.as_secs_f64());
    }
}
