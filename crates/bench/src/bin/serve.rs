//! `mssr-serve` — the long-running simulation job server (ROADMAP
//! item 2) and its client-side modes. All protocol, caching, and pool
//! logic lives in `mssr_bench::harness::serve`; this binary only parses
//! arguments and maps failures to the exit code.
//!
//! Server mode (the default) prints a `{"type":"listening",...}` line
//! once bound — scripts parse the address from it (`--addr 127.0.0.1:0`
//! picks a free port) — and runs until a client sends `shutdown`.

use mssr_bench::harness::serve::{
    fetch_all, fetch_metrics, load_gen, Client, LoadOpts, ServeOpts, Server,
};
use mssr_workloads::Scale;

const USAGE: &str = "usage: mssr-serve [server options]
       mssr-serve --fetch ADDR [--sample N] [--ffwd N]
       mssr-serve --load ADDR [--clients N] [--requests N] [--dup PCT] [--sample N] [--seed S]
       mssr-serve --metrics ADDR
       mssr-serve --shutdown ADDR

server options:
  --addr HOST:PORT   bind address (default 127.0.0.1:0; prints the bound port)
  --jobs N           worker threads (default: all cores)
  --queue-bound N    queued cells before `busy` rejections (default 64)
  --timeout-ms N     per-request wait budget (default 60000)
  --scale S          cell universe scale: test|medium|large (default: medium)
  --seed S           root seed for default per-cell seeds (default 0x4d535352)
  --experiments A,B  experiment list forming the cell universe (default: all)
  --ckpt-dir DIR     reuse/save per-cell checkpoints in DIR
  --bpred NAME       branch predictor for every cell:
                     tage|tagescl|ittage|alwayswrong|oracle (default: per-cell config)
  --cache-cap N      result-cache entries before FIFO eviction (default 4096)
  --delay-ms N       artificial per-cell delay (load-shaping for tests)

client modes:
  --fetch ADDR       request every cell in id order; stdout carries the
                     batch-identical cell/event trajectory lines
  --load ADDR        drive concurrent load; stdout carries the BENCH_serve.json body
  --metrics ADDR     scrape the server; stdout carries Prometheus text exposition
  --shutdown ADDR    drain the server and wait for its `bye`";

fn fail(msg: &str) -> ! {
    eprintln!("mssr-serve: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_u64_arg(name: &str, v: &str) -> u64 {
    let t = v.trim();
    let r = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(h) => u64::from_str_radix(h, 16),
        None => t.parse(),
    };
    r.unwrap_or_else(|e| fail(&format!("{name}: {e}")))
}

/// The `--shutdown` client mode: one request, print the reply.
fn shutdown(addr: &str) {
    let mut c = Client::connect(addr, 600_000).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    if !c.send("{\"type\":\"shutdown\"}") {
        fail("send failed");
    }
    match c.recv() {
        Some(line) => println!("{line}"),
        None => fail("no reply"),
    }
}

fn main() {
    let mut mode: Option<(String, String)> = None; // (mode flag, server addr)
    let mut opts = ServeOpts::new(Scale::Medium);
    let mut load = LoadOpts::new("");
    let mut fetch_sample = 0u64;
    let mut fetch_ffwd = 0u64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| fail(&format!("{name} requires a value")));
        match arg.as_str() {
            "--fetch" | "--load" | "--metrics" | "--shutdown" => {
                if mode.is_some() {
                    fail("one client mode at a time");
                }
                mode = Some((arg.clone(), value(&arg)));
            }
            "--addr" => opts.addr = value("--addr"),
            "--jobs" => opts.jobs = parse_u64_arg("--jobs", &value("--jobs")).max(1) as usize,
            "--queue-bound" => {
                opts.queue_bound = parse_u64_arg("--queue-bound", &value("--queue-bound")) as usize;
            }
            "--timeout-ms" => {
                opts.timeout_ms = parse_u64_arg("--timeout-ms", &value("--timeout-ms"))
            }
            "--scale" => {
                opts.scale = match value("--scale").as_str() {
                    "test" => Scale::Test,
                    "medium" => Scale::Medium,
                    "large" => Scale::Large,
                    s => fail(&format!("--scale: unknown scale `{s}`")),
                };
            }
            "--seed" => {
                opts.root_seed = parse_u64_arg("--seed", &value("--seed"));
                load.seed = opts.root_seed;
            }
            "--experiments" => {
                opts.experiments =
                    value("--experiments").split(',').map(|s| s.trim().to_string()).collect();
            }
            "--ckpt-dir" => opts.ckpt_dir = Some(value("--ckpt-dir").into()),
            "--bpred" => {
                let name = value("--bpred");
                opts.bpred = Some(mssr_sim::BpredKind::parse(&name).unwrap_or_else(|| {
                    fail(&format!(
                        "--bpred: unknown predictor `{name}` (tage|tagescl|ittage|alwayswrong|oracle)"
                    ))
                }));
            }
            "--cache-cap" => {
                opts.cache_cap =
                    parse_u64_arg("--cache-cap", &value("--cache-cap")).max(1) as usize;
            }
            "--delay-ms" => opts.delay_ms = parse_u64_arg("--delay-ms", &value("--delay-ms")),
            "--clients" => {
                load.clients = parse_u64_arg("--clients", &value("--clients")).max(1) as usize;
            }
            "--requests" => {
                load.requests = parse_u64_arg("--requests", &value("--requests")).max(1) as usize;
            }
            "--dup" => load.dup_pct = parse_u64_arg("--dup", &value("--dup")).min(100),
            "--sample" => {
                let n = parse_u64_arg("--sample", &value("--sample"));
                load.sample = n;
                fetch_sample = n;
            }
            "--ffwd" => fetch_ffwd = parse_u64_arg("--ffwd", &value("--ffwd")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            s => fail(&format!("unknown argument `{s}`")),
        }
    }
    match mode {
        None => {
            let server = Server::start(opts).unwrap_or_else(|e| fail(&e));
            println!(
                "{{\"type\":\"listening\",\"addr\":\"{}\",\"cells\":{}}}",
                server.addr(),
                server.cells()
            );
            // Scripts wait on this line before connecting; without the
            // flush it can sit in the pipe buffer past the bind.
            use std::io::Write;
            let _ = std::io::stdout().flush();
            server.wait();
        }
        Some((m, addr)) => match m.as_str() {
            "--fetch" => match fetch_all(&addr, fetch_sample, fetch_ffwd) {
                Ok(out) => print!("{out}"),
                Err(e) => fail(&e),
            },
            "--load" => {
                load.addr = addr;
                match load_gen(&load) {
                    Ok(report) => println!("{report}"),
                    Err(e) => fail(&e),
                }
            }
            "--metrics" => match fetch_metrics(&addr) {
                Ok(body) => print!("{body}"),
                Err(e) => fail(&e),
            },
            "--shutdown" => shutdown(&addr),
            _ => unreachable!(),
        },
    }
}
