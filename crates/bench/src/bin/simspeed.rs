//! `mssr-simspeed` — emits and gates the committed sim-speed
//! trajectory (`BENCH_simspeed.json`). All aggregation and comparison
//! logic lives in `mssr_bench::harness::simspeed`; this binary only
//! parses arguments, reads files, and maps failures to the exit code.

use mssr_bench::harness::simspeed::{check, measure, parse, render};

const USAGE: &str = "usage: mssr-simspeed emit TRAJECTORY PROFILE [--experiment NAME]
       mssr-simspeed check CURRENT BASELINE [--min-ratio PCT]

  emit        aggregate a harness --json --profile trajectory plus its
              profile stderr stream into the BENCH_simspeed.json body
              (per-engine min/median/max sim MIPS and stage shares) on
              stdout
  check       compare two emitted bodies; prints one greppable
              `SIMSPEED engine=...` line per baseline engine and exits 1
              when any engine's median throughput falls below
              --min-ratio percent of the baseline (default 30 — the
              gate tolerates machine noise, not collapses)";

fn fail(msg: &str) -> ! {
    eprintln!("mssr-simspeed: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut experiment = "table1".to_string();
    let mut min_ratio: u64 = 30;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| fail(&format!("{name} requires a value")));
        match arg.as_str() {
            "--experiment" => experiment = value("--experiment"),
            "--min-ratio" => {
                min_ratio = value("--min-ratio")
                    .parse()
                    .unwrap_or_else(|e| fail(&format!("--min-ratio: {e}")));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            s if s.starts_with('-') => fail(&format!("unknown argument `{s}`")),
            _ => positional.push(arg),
        }
    }
    match positional.first().map(String::as_str) {
        Some("emit") => {
            let [_, traj, prof] = positional.as_slice() else {
                fail("emit needs TRAJECTORY and PROFILE files");
            };
            let s = measure(&read(traj), &read(prof), &experiment)
                .unwrap_or_else(|e| fail(&format!("{traj}: {e}")));
            print!("{}", render(&s));
        }
        Some("check") => {
            let [_, cur, base] = positional.as_slice() else {
                fail("check needs CURRENT and BASELINE files");
            };
            let current = parse(&read(cur)).unwrap_or_else(|e| fail(&format!("{cur}: {e}")));
            let baseline = parse(&read(base)).unwrap_or_else(|e| fail(&format!("{base}: {e}")));
            let checks = check(&current, &baseline, min_ratio);
            let mut bad = false;
            for c in &checks {
                println!("{}", c.line);
                bad |= !c.ok;
            }
            if checks.is_empty() {
                println!("SIMSPEED status=EMPTY_BASELINE");
                bad = true;
            }
            if bad {
                std::process::exit(1);
            }
        }
        _ => fail("first argument must be `emit` or `check`"),
    }
}
