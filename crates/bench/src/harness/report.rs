//! Trajectory reader and report renderer behind the `mssr-report`
//! binary.
//!
//! Consumes the JSON-lines trajectories the harness emits under
//! `--json` (see the module docs in [`super`]) and renders:
//!
//! * per-engine **CPI stacks** — every commit slot of every cycle
//!   attributed to one `mssr_sim::Category`, shown as percentages per
//!   (workload × engine) row;
//! * a **speedup table** — cycles vs the `BASE` cell of the same
//!   workload, with the reuse-coverage breakdown (grant rate, coverage
//!   of squashed instructions, credited cycles);
//! * per-interval **IPC sparklines** from `--sample N` records;
//! * a **regression comparison** against a baseline trajectory, used by
//!   CI to fail the build when IPC or reuse-grant rate degrades.
//!
//! Everything here is integer arithmetic over the simulator's
//! deterministic counters (fixed-point thousandths where a ratio is
//! shown), so rendered reports are byte-identical across machines and
//! `--jobs` values, like the trajectories themselves.

use std::fmt;

use mssr_sim::Sample;

// ---------------------------------------------------------------------
// A minimal JSON reader for the trajectory subset: objects, arrays,
// strings, unsigned integers, booleans, null. Counters are exact u64s —
// the harness never emits floats, signs, or exponents, and rejecting
// them keeps every downstream computation integer-deterministic.
// ---------------------------------------------------------------------

/// A parsed trajectory JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form trajectories carry).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value.
    ///
    /// # Errors
    ///
    /// Returns a byte-positioned message on malformed input, trailing
    /// data, or number forms outside the trajectory subset.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { b: s.as_bytes(), i: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn num(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn str_val(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric member of an object, defaulting to 0 when absent (older
    /// trajectories predate some counters; missing means "not counted").
    pub fn field_u64(&self, key: &str) -> u64 {
        self.get(key).and_then(Json::num).unwrap_or(0)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\r' | b'\n') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(b'-') => Err(format!(
                "negative number at byte {} (trajectory counters are unsigned)",
                self.i
            )),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at byte {start} (trajectory counters are unsigned integers)"
            ));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("number out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            self.i += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape `\\{}`", c as char)),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let s = &self.b[self.i..];
                    let ch = std::str::from_utf8(s)
                        .map_err(|_| "invalid utf-8".to_string())?
                        .chars()
                        .next()
                        .expect("peeked non-empty");
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            kv.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Trajectory model
// ---------------------------------------------------------------------

/// One cell of a trajectory: a (workload × engine) run with the
/// counters the report needs, the CPI account, and any sample series.
#[derive(Clone, Debug, Default)]
pub struct CellRecord {
    /// Cell id within the trajectory.
    pub id: u64,
    /// Workload name.
    pub workload: String,
    /// Benchmark suite.
    pub suite: String,
    /// Engine label (`BASE`, `RCVG_N_P`, `RI_SxW`, plus ablation tags).
    pub engine: String,
    /// Branch-predictor name (`"tage"` unless the cell record carries an
    /// explicit `"bpred"` field — the default predictor is omitted from
    /// trajectories to keep them byte-stable).
    pub bpred: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub insts: u64,
    /// Architectural branch mispredictions.
    pub mispredictions: u64,
    /// Squashed instructions.
    pub squashed: u64,
    /// Reuse tests issued by the engine.
    pub reuse_tests: u64,
    /// Reuse grants (instructions whose results were reused).
    pub reuse_grants: u64,
    /// CPI-stack categories in trajectory order: (name, commit slots).
    pub account: Vec<(String, u64)>,
    /// Cycles' worth of execution latency recovered by reuse.
    pub credit_reuse_cycles: u64,
    /// Fetches skipped via the reconvergence fast path.
    pub credit_recon_fetches: u64,
    /// Instructions executed functionally during fast-forward (not part
    /// of `insts`; zero for straight-through runs).
    pub ffwd_insts: u64,
    /// Cycles the fast-forward skipped (nominal 1 IPC; zero for
    /// straight-through runs).
    pub skipped_cycles: u64,
    /// `--sample` time series (empty without `--sample`).
    pub samples: Vec<Sample>,
    /// `--simpoint` sampling record (plan + per-representative
    /// measurements); `None` for whole-program runs.
    pub simpoint: Option<SimpointRecord>,
}

/// One representative interval of a cell's `--simpoint` record.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimpointRepRecord {
    /// Interval index in the BBV trace.
    pub index: u64,
    /// First instruction of the interval.
    pub start_inst: u64,
    /// Instructions the plan assigned to the interval.
    pub planned_insts: u64,
    /// Cluster weight in instructions.
    pub weight_insts: u64,
    /// Mean normalized-L1 BBV distance of cluster members to this
    /// representative, in thousandths.
    pub spread_milli: u64,
    /// Detailed warmup instructions run before the measured region
    /// (excluded from `cycles`/`insts`, counted in the detailed budget).
    pub warmup_insts: u64,
    /// Detailed cycles simulated in the measured region.
    pub cycles: u64,
    /// Detailed instructions committed in the measured region.
    pub insts: u64,
}

/// A cell's `--simpoint` record: the sampling plan plus each
/// representative's detailed measurement, from which whole-program CPI
/// is reconstructed.
#[derive(Clone, Debug, Default)]
pub struct SimpointRecord {
    /// Interval length in instructions.
    pub interval: u64,
    /// Total instructions of the functional pass.
    pub total_insts: u64,
    /// Number of intervals clustered.
    pub n_intervals: u64,
    /// Chosen cluster count.
    pub k: u64,
    /// Per-representative records, in interval order.
    pub reps: Vec<SimpointRepRecord>,
}

impl SimpointRecord {
    /// Detailed instructions actually simulated across representatives,
    /// warmup included (the ≤20% budget the acceptance gate tracks).
    pub fn detailed_insts(&self) -> u64 {
        self.reps.iter().map(|r| r.insts + r.warmup_insts).sum()
    }

    /// Reconstructed whole-program cycles, in thousandths: each
    /// representative's CPI extrapolated over its cluster's instruction
    /// weight, `Σᵢ weightᵢ · cyclesᵢ · 1000 / instsᵢ` (u128 internally,
    /// so the fixed-point product never overflows).
    pub fn recon_cycles_milli(&self) -> u64 {
        let mut total: u128 = 0;
        for r in &self.reps {
            if r.insts > 0 {
                total += r.weight_insts as u128 * r.cycles as u128 * 1000 / r.insts as u128;
            }
        }
        u64::try_from(total).unwrap_or(u64::MAX)
    }

    /// Reconstructed whole-program IPC in thousandths.
    pub fn recon_ipc_milli(&self) -> u64 {
        let cycles_milli = self.recon_cycles_milli();
        if cycles_milli == 0 {
            return 0;
        }
        u64::try_from(self.total_insts as u128 * 1_000_000 / cycles_milli as u128)
            .unwrap_or(u64::MAX)
    }

    /// Reconstructed whole-program CPI in thousandths.
    pub fn recon_cpi_milli(&self) -> u64 {
        if self.total_insts == 0 {
            return 0;
        }
        self.recon_cycles_milli() / self.total_insts
    }

    /// The sampling-error bound in thousandths (relative): the
    /// instruction-weighted mean of each cluster's BBV spread around its
    /// representative, halved — total-variation distance between the
    /// cluster's true block mix and the representative's. Zero spread
    /// (perfectly homogeneous phases) bounds the phase-mix error at
    /// zero; residual error then comes only from boundary effects and
    /// warmup, which the e2e gate measures directly.
    pub fn bound_milli(&self) -> u64 {
        if self.total_insts == 0 {
            return 0;
        }
        let s: u128 =
            self.reps.iter().map(|r| r.weight_insts as u128 * r.spread_milli as u128).sum();
        u64::try_from(s / (2 * self.total_insts as u128)).unwrap_or(u64::MAX)
    }
}

impl CellRecord {
    /// IPC in fixed-point thousandths (integer-deterministic).
    pub fn ipc_milli(&self) -> u64 {
        (self.insts * 1000).checked_div(self.cycles).unwrap_or(0)
    }

    /// Reuse-grant rate (grants per test) in thousandths.
    pub fn grant_rate_milli(&self) -> u64 {
        (self.reuse_grants * 1000).checked_div(self.reuse_tests).unwrap_or(0)
    }

    /// Mispredictions per kilo-instruction, in fixed-point thousandths
    /// (u128 internally so huge counters cannot wrap the multiply).
    pub fn mpki_milli(&self) -> u64 {
        if self.insts == 0 {
            return 0;
        }
        u64::try_from(u128::from(self.mispredictions) * 1_000_000 / u128::from(self.insts))
            .unwrap_or(u64::MAX)
    }

    /// Total commit slots across all CPI categories.
    pub fn total_slots(&self) -> u64 {
        self.account.iter().map(|(_, v)| v).sum()
    }
}

/// A parsed JSON-lines trajectory.
#[derive(Clone, Debug, Default)]
pub struct Trajectory {
    /// Workload scale recorded in the meta line.
    pub scale: String,
    /// Root seed recorded in the meta line (`0x…`).
    pub root_seed: String,
    /// The cells, in trajectory (= cell id) order.
    pub cells: Vec<CellRecord>,
}

impl Trajectory {
    /// Parses a JSON-lines trajectory (the harness's `--json` output).
    ///
    /// Pipeline `"event"` records other than samples and the
    /// `"experiment"` index records are skipped — the report works from
    /// cells, accounts and samples.
    ///
    /// # Errors
    ///
    /// Returns a line-positioned message on malformed lines or records.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let mut t = Trajectory::default();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            match v.get("type").and_then(Json::str_val) {
                Some("meta") => {
                    t.scale = v.get("scale").and_then(Json::str_val).unwrap_or("").to_string();
                    t.root_seed =
                        v.get("root_seed").and_then(Json::str_val).unwrap_or("").to_string();
                }
                Some("cell") => t.cells.push(Self::cell(&v, n + 1)?),
                Some("event") => Self::event(&mut t, &v),
                Some("simpoint") => Self::simpoint(&mut t, &v),
                Some("experiment") => {}
                other => {
                    return Err(format!("line {}: unknown record type {other:?}", n + 1));
                }
            }
        }
        Ok(t)
    }

    fn cell(v: &Json, line: usize) -> Result<CellRecord, String> {
        let stats = v.get("stats").ok_or_else(|| format!("line {line}: cell without stats"))?;
        let engine = stats.get("engine").cloned().unwrap_or(Json::Obj(Vec::new()));
        let mut c = CellRecord {
            id: v.field_u64("id"),
            workload: v.get("workload").and_then(Json::str_val).unwrap_or("?").to_string(),
            suite: v.get("suite").and_then(Json::str_val).unwrap_or("?").to_string(),
            engine: v.get("engine").and_then(Json::str_val).unwrap_or("?").to_string(),
            bpred: v.get("bpred").and_then(Json::str_val).unwrap_or("tage").to_string(),
            cycles: stats.field_u64("cycles"),
            insts: stats.field_u64("committed_instructions"),
            mispredictions: stats.field_u64("mispredictions"),
            squashed: stats.field_u64("squashed_instructions"),
            reuse_tests: engine.field_u64("reuse_tests"),
            reuse_grants: engine.field_u64("reuse_grants"),
            ffwd_insts: stats.field_u64("ffwd_insts"),
            skipped_cycles: stats.field_u64("skipped_cycles"),
            ..CellRecord::default()
        };
        if let Some(Json::Obj(kv)) = stats.get("account") {
            for (k, val) in kv {
                let n = val.num().unwrap_or(0);
                match k.as_str() {
                    "credit_reuse_cycles" => c.credit_reuse_cycles = n,
                    "credit_recon_fetches" => c.credit_recon_fetches = n,
                    _ => c.account.push((k.clone(), n)),
                }
            }
        }
        Ok(c)
    }

    fn simpoint(t: &mut Trajectory, v: &Json) {
        let cell = v.field_u64("cell");
        let mut rec = SimpointRecord {
            interval: v.field_u64("interval"),
            total_insts: v.field_u64("total_insts"),
            n_intervals: v.field_u64("intervals"),
            k: v.field_u64("k"),
            reps: Vec::new(),
        };
        if let Some(Json::Arr(reps)) = v.get("reps") {
            for r in reps {
                rec.reps.push(SimpointRepRecord {
                    index: r.field_u64("index"),
                    start_inst: r.field_u64("start_inst"),
                    planned_insts: r.field_u64("planned_insts"),
                    weight_insts: r.field_u64("weight_insts"),
                    spread_milli: r.field_u64("spread_milli"),
                    warmup_insts: r.field_u64("warmup_insts"),
                    cycles: r.field_u64("cycles"),
                    insts: r.field_u64("insts"),
                });
            }
        }
        if let Some(c) = t.cells.iter_mut().rev().find(|c| c.id == cell) {
            c.simpoint = Some(rec);
        }
    }

    fn event(t: &mut Trajectory, v: &Json) {
        let Some(ev) = v.get("ev") else { return };
        if ev.get("ev").and_then(Json::str_val) != Some("sample") {
            return;
        }
        let cell = v.field_u64("cell");
        // Events follow their cell record, so the match is normally the
        // last cell; search anyway so reordered input still parses.
        if let Some(c) = t.cells.iter_mut().rev().find(|c| c.id == cell) {
            let mut s = Sample { cycle: ev.field_u64("cycle"), ..Sample::default() };
            for (k, v) in s.counters_mut() {
                *v = ev.field_u64(k);
            }
            c.samples.push(s);
        }
    }
}

// ---------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------

/// Fixed-point thousandths formatted as `D.DDD`.
fn milli(v: u64) -> String {
    format!("{}.{:03}", v / 1000, v % 1000)
}

/// Fixed-point tenths of a percent formatted as `D.D%`.
fn pct10(part: u64, total: u64) -> String {
    if total == 0 {
        return "-".to_string();
    }
    let p = part * 1000 / total;
    format!("{}.{}%", p / 10, p % 10)
}

/// Renders rows as an aligned ASCII table: the first column
/// left-aligned, the rest right-aligned, a `-` rule under the header.
fn table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut w: Vec<usize> = header.iter().map(String::len).collect();
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            w[i] = w[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = |cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                out.push_str(&format!("{cell:<width$}", width = w[0]));
            } else {
                out.push_str(&format!("{cell:>width$}", width = w[i]));
            }
        }
        out.push('\n');
    };
    line(header);
    let rule: Vec<String> = (0..cols).map(|i| "-".repeat(w[i])).collect();
    line(&rule);
    for r in rows {
        line(r);
    }
    out
}

/// Renders the per-cell CPI stacks: one row per (workload × engine),
/// IPC plus each category's share of all commit slots, and the reuse
/// credits.
pub fn cpi_stack_table(t: &Trajectory) -> String {
    let Some(first) = t.cells.iter().find(|c| !c.account.is_empty()) else {
        return "(no CPI accounts in trajectory)\n".to_string();
    };
    let mut header: Vec<String> =
        ["workload", "engine", "IPC"].iter().map(|s| s.to_string()).collect();
    for (name, _) in &first.account {
        header.push(name.clone());
    }
    header.push("credit_cycles".to_string());
    header.push("credit_fetches".to_string());
    let rows: Vec<Vec<String>> = t
        .cells
        .iter()
        .map(|c| {
            let total = c.total_slots();
            let mut r = vec![c.workload.clone(), c.engine.clone(), milli(c.ipc_milli())];
            for (name, _) in &first.account {
                let v = c.account.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v);
                r.push(pct10(v, total));
            }
            r.push(c.credit_reuse_cycles.to_string());
            r.push(c.credit_recon_fetches.to_string());
            r
        })
        .collect();
    table(&header, &rows)
}

/// Renders the speedup table: cycles and speedup vs the `BASE` cell of
/// the same workload, with the reuse-coverage breakdown (grant rate per
/// test, coverage of squashed instructions, credited cycles). When any
/// cell was fast-forwarded, two extra columns report the functionally
/// executed instruction count and the skipped cycles — `cycles`, `IPC`
/// and `speedup` always measure the detailed region only.
pub fn speedup_table(t: &Trajectory) -> String {
    let ffwd = t.cells.iter().any(|c| c.ffwd_insts > 0);
    let mut header: Vec<String> =
        ["workload", "engine", "cycles", "speedup", "MPKI", "grants", "grant_rate", "coverage"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    if ffwd {
        header.push("ffwd_insts".to_string());
        header.push("skipped_cycles".to_string());
    }
    let rows: Vec<Vec<String>> = t
        .cells
        .iter()
        .map(|c| {
            // The BASE reference must share the predictor: a predictor-lab
            // trajectory carries one BASE cell per bpred kind.
            let base = t
                .cells
                .iter()
                .find(|b| b.workload == c.workload && b.engine == "BASE" && b.bpred == c.bpred)
                .map(|b| b.cycles);
            let speedup = match base {
                Some(b) if c.cycles > 0 => format!("{}x", milli(b * 1000 / c.cycles)),
                _ => "-".to_string(),
            };
            let mut r = vec![
                c.workload.clone(),
                c.engine.clone(),
                c.cycles.to_string(),
                speedup,
                milli(c.mpki_milli()),
                c.reuse_grants.to_string(),
                pct10(c.reuse_grants, c.reuse_tests),
                pct10(c.reuse_grants, c.squashed),
            ];
            if ffwd {
                r.push(c.ffwd_insts.to_string());
                r.push(c.skipped_cycles.to_string());
            }
            r
        })
        .collect();
    table(&header, &rows)
}

/// Renders the predictor lab: one row per cell with its predictor,
/// conditional MPKI, and reuse speedup vs the `BASE` cell of the same
/// (workload, predictor) — the reuse-benefit-vs-MPKI relation the
/// `bpred` experiment sweeps. Empty unless the trajectory carries at
/// least one non-default-predictor cell.
pub fn bpred_table(t: &Trajectory) -> String {
    if t.cells.iter().all(|c| c.bpred == "tage") {
        return "(no predictor-lab cells in trajectory — rerun the bpred experiment or --bpred)\n"
            .to_string();
    }
    let rows: Vec<Vec<String>> = t
        .cells
        .iter()
        .map(|c| {
            let base = t
                .cells
                .iter()
                .find(|b| b.workload == c.workload && b.engine == "BASE" && b.bpred == c.bpred)
                .map(|b| b.cycles);
            let speedup = match base {
                Some(b) if c.cycles > 0 => format!("{}x", milli(b * 1000 / c.cycles)),
                _ => "-".to_string(),
            };
            vec![
                c.workload.clone(),
                c.bpred.clone(),
                c.engine.clone(),
                c.cycles.to_string(),
                milli(c.mpki_milli()),
                speedup,
                c.reuse_grants.to_string(),
            ]
        })
        .collect();
    let header: Vec<String> =
        ["workload", "predictor", "engine", "cycles", "MPKI", "speedup", "grants"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    table(&header, &rows)
}

const SPARK: [char; 8] = [
    '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}',
];

/// Renders one sparkline per sampled cell: instructions committed per
/// interval, scaled to the cell's own maximum.
pub fn sparklines(t: &Trajectory) -> String {
    let mut out = String::new();
    let label_w = t.cells.iter().map(|c| c.workload.len() + 1 + c.engine.len()).max().unwrap_or(0);
    for c in &t.cells {
        if c.samples.is_empty() {
            continue;
        }
        let max = c.samples.iter().map(|s| s.insts).max().unwrap_or(0);
        // A cell whose every interval committed zero instructions draws
        // a flat baseline. Scaling goes through u128: `insts * 7` wraps
        // u64 once a counter passes u64::MAX / 7 (merged or hand-built
        // trajectories can carry such values), which would panic in
        // debug builds and pick the wrong glyph in release.
        let line: String = c
            .samples
            .iter()
            .map(|s| match max {
                0 => SPARK[0],
                m => SPARK[(u128::from(s.insts) * 7 / u128::from(m)) as usize],
            })
            .collect();
        let label = format!("{}/{}", c.workload, c.engine);
        out.push_str(&format!("{label:<label_w$}  {line}\n"));
    }
    if out.is_empty() {
        out.push_str("(no samples in trajectory — rerun with --sample N)\n");
    }
    out
}

/// Renders the SimPoint reconstruction table: one row per sampled cell
/// with the plan shape (intervals, k), the detailed-instruction budget
/// actually spent, the reconstructed whole-program IPC/CPI, and the
/// clustering-derived sampling-error bound.
pub fn simpoint_table(t: &Trajectory) -> String {
    let rows: Vec<Vec<String>> = t
        .cells
        .iter()
        .filter_map(|c| {
            let sp = c.simpoint.as_ref()?;
            Some(vec![
                c.workload.clone(),
                c.engine.clone(),
                sp.n_intervals.to_string(),
                sp.k.to_string(),
                sp.detailed_insts().to_string(),
                pct10(sp.detailed_insts(), sp.total_insts),
                milli(sp.recon_ipc_milli()),
                milli(sp.recon_cpi_milli()),
                format!("±{}", pct10(sp.bound_milli(), 1000)),
            ])
        })
        .collect();
    if rows.is_empty() {
        return "(no simpoint records in trajectory — rerun with --simpoint I,K)\n".to_string();
    }
    let header: Vec<String> = [
        "workload",
        "engine",
        "intervals",
        "k",
        "detailed",
        "det_share",
        "recon_IPC",
        "recon_CPI",
        "bound",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    table(&header, &rows)
}

// ---------------------------------------------------------------------
// Self-profile records (`--profile` stderr stream)
// ---------------------------------------------------------------------

/// The pipeline-stage buckets of a profile record. Stage time is
/// *sampled* (one cycle in `stride` is stamped), so estimating a
/// stage's whole-run time means scaling by the stride; the remaining
/// buckets (ckpt/ffwd/bbv) are whole-call timings used as-is.
const STAGE_BUCKETS: [&str; 6] = ["fetch", "rename", "issue", "execute", "commit", "squash"];

/// One `{"type":"profile",...}` record from a harness `--profile`
/// stderr stream: a cell's host wall-clock attribution.
#[derive(Clone, Debug, Default)]
pub struct ProfileRecord {
    /// Cell id within the run.
    pub cell: u64,
    /// Workload name.
    pub workload: String,
    /// Engine label.
    pub engine: String,
    /// Simulated cycles of the cell.
    pub cycles: u64,
    /// Committed instructions of the cell.
    pub insts: u64,
    /// Whole-cell wall time in microseconds.
    pub total_us: u64,
    /// Stage-sampling stride the profiler ran at.
    pub stride: u64,
    /// Cycles actually stamped.
    pub sampled_cycles: u64,
    /// Per-bucket accumulated nanoseconds, in record order.
    pub ns: Vec<(String, u64)>,
}

impl ProfileRecord {
    /// Nanoseconds recorded for `bucket` (0 when absent).
    pub fn bucket_ns(&self, bucket: &str) -> u64 {
        self.ns.iter().find(|(k, _)| k == bucket).map_or(0, |&(_, v)| v)
    }

    /// Estimated whole-run nanoseconds of `bucket`: sampled stage time
    /// scaled by the stride, whole-call buckets as recorded.
    pub fn est_ns(&self, bucket: &str) -> u64 {
        let v = self.bucket_ns(bucket);
        if STAGE_BUCKETS.contains(&bucket) {
            v.saturating_mul(self.stride.max(1))
        } else {
            v
        }
    }

    /// Total estimated attributed nanoseconds (the share denominator).
    pub fn est_total_ns(&self) -> u64 {
        self.ns.iter().fold(0u64, |acc, (k, _)| acc.saturating_add(self.est_ns(k)))
    }

    /// Host throughput in thousandths of simulated MIPS.
    pub fn sim_mips_milli(&self) -> u64 {
        self.insts.saturating_mul(1000) / self.total_us.max(1)
    }

    /// Host simulation rate in thousandths of megacycles per second.
    pub fn mcps_milli(&self) -> u64 {
        self.cycles.saturating_mul(1000) / self.total_us.max(1)
    }
}

/// Parses a `--profile` stderr stream into its profile records. The
/// stream interleaves with warnings and other diagnostics, so anything
/// that is not a well-formed `{"type":"profile",...}` line is skipped
/// rather than an error.
pub fn parse_profile(text: &str) -> Vec<ProfileRecord> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Ok(v) = Json::parse(line.trim()) else { continue };
        if v.get("type").and_then(Json::str_val) != Some("profile") {
            continue;
        }
        let mut ns = Vec::new();
        if let Some(Json::Obj(kv)) = v.get("ns") {
            for (k, val) in kv {
                ns.push((k.clone(), val.num().unwrap_or(0)));
            }
        }
        out.push(ProfileRecord {
            cell: v.field_u64("cell"),
            workload: v.get("workload").and_then(Json::str_val).unwrap_or("?").to_string(),
            engine: v.get("engine").and_then(Json::str_val).unwrap_or("?").to_string(),
            cycles: v.field_u64("cycles"),
            insts: v.field_u64("insts"),
            total_us: v.field_u64("total_us"),
            stride: v.field_u64("stride"),
            sampled_cycles: v.field_u64("sampled_cycles"),
            ns,
        });
    }
    out
}

/// Renders the self-profile table: one row per cell with each bucket's
/// share of attributed wall-clock (stage samples scaled by the stride,
/// so a row's shares sum to ~100%), plus host throughput as simulated
/// MIPS and megacycles per second. Buckets that are zero in every
/// record (e.g. `bbv` outside SimPoint runs) are omitted.
pub fn profile_table(recs: &[ProfileRecord]) -> String {
    if recs.is_empty() {
        return "(no profile records — run the harness with --profile 2>FILE)\n".to_string();
    }
    let names: Vec<&String> = recs[0]
        .ns
        .iter()
        .map(|(k, _)| k)
        .filter(|k| recs.iter().any(|r| r.bucket_ns(k) > 0))
        .collect();
    let mut header: Vec<String> = ["workload", "engine"].iter().map(|s| s.to_string()).collect();
    header.extend(names.iter().map(|n| n.to_string()));
    header.push("sim_MIPS".to_string());
    header.push("Mcyc/s".to_string());
    let rows: Vec<Vec<String>> = recs
        .iter()
        .map(|r| {
            let total = r.est_total_ns();
            let mut row = vec![r.workload.clone(), r.engine.clone()];
            // Shares are scaled to thousandths before the percentage so
            // huge nanosecond counts cannot overflow pct10's multiply.
            for n in &names {
                row.push(pct10(
                    (u128::from(r.est_ns(n)) * 1000 / u128::from(total.max(1))) as u64,
                    1000,
                ));
            }
            row.push(milli(r.sim_mips_milli()));
            row.push(milli(r.mcps_milli()));
            row
        })
        .collect();
    table(&header, &rows)
}

/// One sampled cell's reconstruction accuracy vs its whole-program
/// golden run.
#[derive(Clone, Debug)]
pub struct SimpointError {
    /// Workload of the sampled cell.
    pub workload: String,
    /// Engine label of the sampled cell.
    pub engine: String,
    /// Reconstructed IPC, in thousandths.
    pub recon_ipc_milli: u64,
    /// The golden run's IPC, in thousandths.
    pub full_ipc_milli: u64,
    /// Relative reconstruction error `|recon − full| / full`, in
    /// thousandths (30 = 3%).
    pub err_milli: u64,
}

impl fmt::Display for SimpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: recon IPC {} vs full {} (err {})",
            self.workload,
            self.engine,
            milli(self.recon_ipc_milli),
            milli(self.full_ipc_milli),
            pct10(self.err_milli, 1000)
        )
    }
}

/// Compares every sampled cell of `new` against the whole-program cell
/// with the same (workload, engine) in `golden`, pairing duplicates by
/// ordinal like [`regressions`]. Cells without a counterpart (or whose
/// golden run has zero IPC) are skipped — a missing golden cell is a
/// harness mismatch the caller surfaces by count, not a panic.
pub fn simpoint_errors(new: &Trajectory, golden: &Trajectory) -> Vec<SimpointError> {
    let mut out = Vec::new();
    for (i, c) in new.cells.iter().enumerate() {
        let Some(sp) = c.simpoint.as_ref() else { continue };
        let same = |d: &&CellRecord| d.workload == c.workload && d.engine == c.engine;
        let ord = new.cells[..i].iter().filter(|d| same(d)).count();
        let Some(g) = golden.cells.iter().filter(same).nth(ord) else { continue };
        let full = g.ipc_milli();
        if full == 0 {
            continue;
        }
        let recon = sp.recon_ipc_milli();
        let err_milli = (recon.abs_diff(full) as u128 * 1000 / full as u128) as u64;
        out.push(SimpointError {
            workload: c.workload.clone(),
            engine: c.engine.clone(),
            recon_ipc_milli: recon,
            full_ipc_milli: full,
            err_milli,
        });
    }
    out
}

/// One detected regression vs the baseline trajectory.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Workload of the degraded cell.
    pub workload: String,
    /// Engine label of the degraded cell.
    pub engine: String,
    /// Which metric degraded (`"IPC"` or `"grant rate"`).
    pub metric: &'static str,
    /// Baseline value, in thousandths.
    pub old_milli: u64,
    /// Current value, in thousandths.
    pub new_milli: u64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "REGRESSION {}/{}: {} {} -> {}",
            self.workload,
            self.engine,
            self.metric,
            milli(self.old_milli),
            milli(self.new_milli)
        )
    }
}

/// Compares `new` against the `old` baseline trajectory: a cell
/// regresses when its IPC or reuse-grant rate falls more than
/// `threshold_pct` percent below the baseline cell with the same
/// (workload, engine). Cells present on only one side are ignored —
/// adding or retiring cells is not a regression.
pub fn regressions(new: &Trajectory, old: &Trajectory, threshold_pct: u64) -> Vec<Regression> {
    let mut out = Vec::new();
    for (i, c) in new.cells.iter().enumerate() {
        // (workload, engine) is not unique: ablation grids rerun the same
        // engine label under different simulator configs. Pair the k-th
        // duplicate on each side so identical trajectories always pass.
        let same = |d: &&CellRecord| {
            d.workload == c.workload && d.engine == c.engine && d.bpred == c.bpred
        };
        let ord = new.cells[..i].iter().filter(|d| same(d)).count();
        let Some(b) = old.cells.iter().filter(same).nth(ord) else {
            continue;
        };
        let degraded = |new_v: u64, old_v: u64| new_v * 100 < old_v * (100 - threshold_pct);
        if degraded(c.ipc_milli(), b.ipc_milli()) {
            out.push(Regression {
                workload: c.workload.clone(),
                engine: c.engine.clone(),
                metric: "IPC",
                old_milli: b.ipc_milli(),
                new_milli: c.ipc_milli(),
            });
        }
        if degraded(c.grant_rate_milli(), b.grant_rate_milli()) {
            out.push(Regression {
                workload: c.workload.clone(),
                engine: c.engine.clone(),
                metric: "grant rate",
                old_milli: b.grant_rate_milli(),
                new_milli: c.grant_rate_milli(),
            });
        }
        // MPKI regresses upward. The asymmetric form also catches a
        // zero-to-nonzero drift (e.g. the oracle predictor starting to
        // mispredict), which a ratio threshold would let through.
        if c.mpki_milli() * 100 > b.mpki_milli() * (100 + threshold_pct) {
            out.push(Regression {
                workload: c.workload.clone(),
                engine: c.engine.clone(),
                metric: "MPKI",
                old_milli: b.mpki_milli(),
                new_milli: c.mpki_milli(),
            });
        }
    }
    out
}

/// Renders the full report (CPI stacks, speedups, sparklines) for one
/// trajectory.
pub fn render_report(t: &Trajectory) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trajectory: {} cells, scale {}, root seed {}\n\n",
        t.cells.len(),
        if t.scale.is_empty() { "?" } else { &t.scale },
        if t.root_seed.is_empty() { "?" } else { &t.root_seed },
    ));
    out.push_str("== CPI stacks (share of commit slots) ==\n");
    out.push_str(&cpi_stack_table(t));
    out.push_str("\n== Speedup vs BASE ==\n");
    out.push_str(&speedup_table(t));
    if t.cells.iter().any(|c| c.bpred != "tage") {
        out.push_str("\n== Predictor lab (reuse benefit vs MPKI) ==\n");
        out.push_str(&bpred_table(t));
    }
    out.push_str("\n== IPC per sample interval ==\n");
    out.push_str(&sparklines(t));
    if t.cells.iter().any(|c| c.simpoint.is_some()) {
        out.push_str("\n== SimPoint reconstruction ==\n");
        out.push_str(&simpoint_table(t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parses_the_trajectory_subset() {
        let v = Json::parse(r#"{"a":1,"b":[true,null,"x\"yA"],"c":{"d":18446744073709551615}}"#)
            .unwrap();
        assert_eq!(v.field_u64("a"), 1);
        assert_eq!(
            v.get("b"),
            Some(&Json::Arr(vec![Json::Bool(true), Json::Null, Json::Str("x\"yA".to_string()),]))
        );
        assert_eq!(v.get("c").unwrap().field_u64("d"), u64::MAX);
        assert!(Json::parse("{\"a\":1} junk").unwrap_err().contains("trailing"));
        assert!(Json::parse("-3").unwrap_err().contains("unsigned"));
        assert!(Json::parse("1.5").unwrap_err().contains("integer"));
        assert!(Json::parse("{\"a\"").is_err());
    }

    fn fixture() -> String {
        let mut s = String::new();
        s.push_str(
            "{\"type\":\"meta\",\"root_seed\":\"0x4d535352\",\"scale\":\"test\",\"cells\":2}\n",
        );
        s.push_str(concat!(
            "{\"type\":\"cell\",\"id\":0,\"workload\":\"w\",\"suite\":\"micro\",",
            "\"engine\":\"BASE\",\"seed\":\"0x1\",\"stats\":{\"cycles\":2000,",
            "\"committed_instructions\":1000,\"mispredictions\":10,",
            "\"squashed_instructions\":100,\"engine\":{\"reuse_tests\":0,\"reuse_grants\":0},",
            "\"account\":{\"base\":1000,\"frontend_empty\":2000,\"squash_branch\":3000,",
            "\"mem_stall\":1000,\"store_forward_pending\":0,\"backend_pressure\":1000,",
            "\"reuse_verify\":0,\"credit_reuse_cycles\":0,\"credit_recon_fetches\":0}}}\n",
        ));
        s.push_str(concat!(
            "{\"type\":\"event\",\"cell\":0,\"ev\":{\"ev\":\"sample\",\"cycle\":1000,",
            "\"insts\":400,\"mispredicts\":4,\"squashed\":40,\"grants\":0,",
            "\"l1_misses\":2,\"squash_slots\":1500}}\n",
        ));
        s.push_str(concat!(
            "{\"type\":\"cell\",\"id\":1,\"workload\":\"w\",\"suite\":\"micro\",",
            "\"engine\":\"RCVG_2_64\",\"seed\":\"0x2\",\"stats\":{\"cycles\":1000,",
            "\"committed_instructions\":1000,\"mispredictions\":10,",
            "\"squashed_instructions\":100,\"engine\":{\"reuse_tests\":80,\"reuse_grants\":60},",
            "\"account\":{\"base\":1000,\"frontend_empty\":1000,\"squash_branch\":1000,",
            "\"mem_stall\":500,\"store_forward_pending\":0,\"backend_pressure\":500,",
            "\"reuse_verify\":0,\"credit_reuse_cycles\":70,\"credit_recon_fetches\":5}}}\n",
        ));
        s.push_str(concat!(
            "{\"type\":\"event\",\"cell\":1,\"ev\":{\"ev\":\"sample\",\"cycle\":1000,",
            "\"insts\":1000,\"mispredicts\":10,\"squashed\":100,\"grants\":60,",
            "\"l1_misses\":1,\"squash_slots\":1000}}\n",
        ));
        s.push_str("{\"type\":\"experiment\",\"name\":\"t\",\"cells\":[0,1]}\n");
        s
    }

    #[test]
    fn trajectory_parses_cells_accounts_and_samples() {
        let t = Trajectory::parse(&fixture()).unwrap();
        assert_eq!(t.scale, "test");
        assert_eq!(t.cells.len(), 2);
        let b = &t.cells[0];
        assert_eq!((b.engine.as_str(), b.cycles, b.insts), ("BASE", 2000, 1000));
        assert_eq!(b.account.len(), 7, "credits split out of the account categories");
        assert_eq!(b.total_slots(), 8000);
        assert_eq!(b.samples.len(), 1);
        assert_eq!(b.samples[0].insts, 400);
        let m = &t.cells[1];
        assert_eq!(m.credit_reuse_cycles, 70);
        assert_eq!(m.ipc_milli(), 1000);
        assert_eq!(m.grant_rate_milli(), 750);
    }

    #[test]
    fn sparklines_survive_all_zero_and_huge_sample_counters() {
        // Two degenerate sampled cells: one whose every interval committed
        // zero instructions (must render a flat baseline, not divide by
        // zero or blank out), and one carrying a near-u64::MAX counter
        // (pre-fix, `insts * 7` wrapped u64 — a debug-build panic and the
        // wrong glyph in release).
        let mut s = String::new();
        s.push_str(
            "{\"type\":\"meta\",\"root_seed\":\"0x4d535352\",\"scale\":\"test\",\"cells\":2}\n",
        );
        s.push_str(concat!(
            "{\"type\":\"cell\",\"id\":0,\"workload\":\"idle\",\"suite\":\"micro\",",
            "\"engine\":\"BASE\",\"seed\":\"0x1\",\"stats\":{\"cycles\":2000,",
            "\"committed_instructions\":0,\"engine\":{},\"account\":{}}}\n",
        ));
        for _ in 0..3 {
            s.push_str(concat!(
                "{\"type\":\"event\",\"cell\":0,\"ev\":{\"ev\":\"sample\",\"cycle\":1000,",
                "\"insts\":0,\"mispredicts\":0,\"squashed\":0,\"grants\":0,",
                "\"l1_misses\":0,\"squash_slots\":0}}\n",
            ));
        }
        s.push_str(concat!(
            "{\"type\":\"cell\",\"id\":1,\"workload\":\"huge\",\"suite\":\"micro\",",
            "\"engine\":\"BASE\",\"seed\":\"0x2\",\"stats\":{\"cycles\":2000,",
            "\"committed_instructions\":1000,\"engine\":{},\"account\":{}}}\n",
        ));
        s.push_str(concat!(
            "{\"type\":\"event\",\"cell\":1,\"ev\":{\"ev\":\"sample\",\"cycle\":1000,",
            "\"insts\":18446744073709551615,\"mispredicts\":0,\"squashed\":0,\"grants\":0,",
            "\"l1_misses\":0,\"squash_slots\":0}}\n",
        ));
        s.push_str(concat!(
            "{\"type\":\"event\",\"cell\":1,\"ev\":{\"ev\":\"sample\",\"cycle\":2000,",
            "\"insts\":0,\"mispredicts\":0,\"squashed\":0,\"grants\":0,",
            "\"l1_misses\":0,\"squash_slots\":0}}\n",
        ));
        let t = Trajectory::parse(&s).unwrap();
        let r = sparklines(&t);
        let flat: String = std::iter::repeat_n(SPARK[0], 3).collect();
        assert!(r.contains(&flat), "all-zero cell renders a flat baseline:\n{r}");
        let peak: String = [SPARK[7], SPARK[0]].iter().collect();
        assert!(r.contains(&peak), "the max interval renders the full-height glyph:\n{r}");
    }

    #[test]
    fn report_renders_stacks_speedups_and_sparklines() {
        let t = Trajectory::parse(&fixture()).unwrap();
        let r = render_report(&t);
        assert!(r.contains("squash_branch"), "category columns present:\n{r}");
        assert!(r.contains("37.5%"), "BASE squash share 3000/8000:\n{r}");
        assert!(r.contains("2.000x"), "RCVG speedup 2000/1000 cycles:\n{r}");
        assert!(r.contains("w/RCVG_2_64"), "sparkline labels:\n{r}");
        assert!(r.contains('\u{2588}'), "sparkline glyphs:\n{r}");
        // IPC column: 1000 insts / 2000 cycles.
        assert!(r.contains("0.500"), "BASE IPC:\n{r}");
    }

    #[test]
    fn mpki_column_and_predictor_lab_table() {
        let t = Trajectory::parse(&fixture()).unwrap();
        assert_eq!(t.cells[0].bpred, "tage", "absent bpred field means the default predictor");
        assert_eq!(t.cells[0].mpki_milli(), 10_000, "10 mispredictions / 1000 insts");
        assert!(speedup_table(&t).contains("10.000"), "MPKI column rendered");
        assert!(!render_report(&t).contains("Predictor lab"), "no lab section for default runs");
        assert!(bpred_table(&t).contains("no predictor-lab cells"));
        // Tag the reuse cell as oracle: the lab section appears, and the
        // speedup lookup refuses to pair it with the tage BASE cell.
        let tagged = fixture()
            .replace("\"engine\":\"RCVG_2_64\",", "\"engine\":\"RCVG_2_64\",\"bpred\":\"oracle\",");
        let t = Trajectory::parse(&tagged).unwrap();
        assert_eq!(t.cells[1].bpred, "oracle");
        let r = render_report(&t);
        assert!(r.contains("Predictor lab"), "lab section present:\n{r}");
        assert!(bpred_table(&t).contains("oracle"), "predictor column rendered");
        assert!(!speedup_table(&t).contains("2.000x"), "cross-predictor BASE pairing refused");
    }

    #[test]
    fn mpki_regressions_flag_upward_drift_including_from_zero() {
        let old = Trajectory::parse(&fixture()).unwrap();
        let mut new = old.clone();
        new.cells[1].mispredictions = 12; // +20% past the 5% threshold
        assert!(regressions(&new, &old, 5).iter().any(|x| x.metric == "MPKI"));
        let mut zero_old = old.clone();
        zero_old.cells[1].mispredictions = 0;
        assert!(
            regressions(&new, &zero_old, 5).iter().any(|x| x.metric == "MPKI"),
            "zero-to-nonzero MPKI drift is a regression"
        );
        // A predictor mismatch breaks the pairing entirely.
        let mut other = new.clone();
        other.cells[1].bpred = "oracle".to_string();
        assert!(regressions(&other, &old, 5).iter().all(|x| x.metric != "MPKI"));
    }

    #[test]
    fn ffwd_columns_appear_only_for_fast_forwarded_trajectories() {
        let plain = Trajectory::parse(&fixture()).unwrap();
        assert!(!speedup_table(&plain).contains("skipped_cycles"));
        let mut warmed = plain.clone();
        warmed.cells[1].ffwd_insts = 5000;
        warmed.cells[1].skipped_cycles = 5000;
        let r = speedup_table(&warmed);
        assert!(r.contains("ffwd_insts"), "ffwd column present:\n{r}");
        assert!(r.contains("skipped_cycles"), "skipped column present:\n{r}");
        assert!(r.contains("5000"), "values rendered:\n{r}");
        // The stats fields parse from a trajectory too.
        let line = fixture()
            .replace("\"cycles\":1000,", "\"cycles\":1000,\"ffwd_insts\":7,\"skipped_cycles\":7,");
        let t = Trajectory::parse(&line).unwrap();
        assert_eq!(t.cells[1].ffwd_insts, 7);
        assert_eq!(t.cells[1].skipped_cycles, 7);
    }

    fn fixture_simpoint() -> String {
        // The RCVG cell sampled with two representatives:
        //   rep 0: weight 600, 300 cycles / 200 insts  -> 900000 milli-cycles
        //   rep 2: weight 400, 100 cycles / 100 insts  -> 400000 milli-cycles
        // Reconstruction: 1300000 milli-cycles over 1000 insts
        //   -> CPI 1.300, IPC 0.769.
        let mut s = fixture();
        s.push_str(concat!(
            "{\"type\":\"simpoint\",\"cell\":1,\"interval\":100,\"total_insts\":1000,",
            "\"intervals\":10,\"k\":2,\"reps\":[",
            "{\"index\":0,\"start_inst\":0,\"planned_insts\":100,\"weight_insts\":600,",
            "\"spread_milli\":100,\"warmup_insts\":50,\"cycles\":300,\"insts\":200,",
            "\"account\":{\"base\":1}},",
            "{\"index\":2,\"start_inst\":200,\"planned_insts\":100,\"weight_insts\":400,",
            "\"spread_milli\":0,\"cycles\":100,\"insts\":100,\"account\":{\"base\":1}}",
            "]}\n",
        ));
        s
    }

    #[test]
    fn simpoint_records_parse_and_reconstruct() {
        let t = Trajectory::parse(&fixture_simpoint()).unwrap();
        assert!(t.cells[0].simpoint.is_none(), "only the sampled cell gets a record");
        let sp = t.cells[1].simpoint.as_ref().expect("simpoint record attached");
        assert_eq!((sp.interval, sp.total_insts, sp.n_intervals, sp.k), (100, 1000, 10, 2));
        assert_eq!(sp.reps.len(), 2);
        assert_eq!(sp.reps[1].start_inst, 200);
        assert_eq!(sp.reps[0].warmup_insts, 50);
        assert_eq!(sp.detailed_insts(), 350, "warmup counts against the budget");
        assert_eq!(sp.recon_cycles_milli(), 1_300_000);
        assert_eq!(sp.recon_cpi_milli(), 1300);
        assert_eq!(sp.recon_ipc_milli(), 769);
        // Weighted spread: (600·100 + 400·0) / (2·1000) = 30 (±3.0%).
        assert_eq!(sp.bound_milli(), 30);
    }

    #[test]
    fn simpoint_table_renders_sampled_cells_only() {
        let plain = Trajectory::parse(&fixture()).unwrap();
        assert!(simpoint_table(&plain).contains("no simpoint records"));
        assert!(!render_report(&plain).contains("SimPoint reconstruction"));
        let t = Trajectory::parse(&fixture_simpoint()).unwrap();
        let r = render_report(&t);
        assert!(r.contains("SimPoint reconstruction"), "{r}");
        assert!(r.contains("0.769"), "reconstructed IPC:\n{r}");
        assert!(r.contains("1.300"), "reconstructed CPI:\n{r}");
        assert!(r.contains("35.0%"), "detailed share 350/1000:\n{r}");
        assert!(r.contains("±3.0%"), "error bound:\n{r}");
    }

    #[test]
    fn simpoint_errors_pair_against_the_golden_run() {
        let sampled = Trajectory::parse(&fixture_simpoint()).unwrap();
        let golden = Trajectory::parse(&fixture()).unwrap();
        let errs = simpoint_errors(&sampled, &golden);
        assert_eq!(errs.len(), 1, "one sampled cell");
        let e = &errs[0];
        assert_eq!((e.workload.as_str(), e.engine.as_str()), ("w", "RCVG_2_64"));
        // Golden IPC 1.000 vs reconstructed 0.769: 23.1% error.
        assert_eq!((e.recon_ipc_milli, e.full_ipc_milli, e.err_milli), (769, 1000, 231));
        assert!(e.to_string().contains("23.1%"), "{e}");
        // No counterpart in the golden trajectory: skipped, not a panic.
        let empty = Trajectory::default();
        assert!(simpoint_errors(&sampled, &empty).is_empty());
        // A trajectory with no sampled cells yields no comparisons.
        assert!(simpoint_errors(&golden, &golden).is_empty());
    }

    fn fixture_profile() -> String {
        // A realistic stderr stream: a warning line, a profile record,
        // and a non-JSON diagnostic interleaved.
        let mut s = String::new();
        s.push_str("warning: cell 0 (w/BASE): skipped 1 invalid checkpoint(s), ran cold: x\n");
        s.push_str(concat!(
            "{\"type\":\"profile\",\"cell\":0,\"workload\":\"w\",\"engine\":\"BASE\",",
            "\"cycles\":640000,\"insts\":320000,\"total_us\":200000,\"stride\":64,",
            "\"sampled_cycles\":10000,\"ns\":{\"fetch\":200000,\"rename\":400000,",
            "\"issue\":600000,\"execute\":800000,\"commit\":500000,\"squash\":100000,",
            "\"ckpt\":0,\"ffwd\":33600000,\"bbv\":0}}\n",
        ));
        s.push_str("some stray diagnostic line\n");
        s
    }

    #[test]
    fn profile_stream_parses_and_skips_foreign_lines() {
        let recs = parse_profile(&fixture_profile());
        assert_eq!(recs.len(), 1, "only the profile record parses");
        let r = &recs[0];
        assert_eq!((r.workload.as_str(), r.engine.as_str()), ("w", "BASE"));
        assert_eq!((r.cycles, r.insts, r.total_us, r.stride), (640000, 320000, 200000, 64));
        assert_eq!(r.bucket_ns("execute"), 800000);
        // Stage buckets scale by the stride; whole-call buckets do not.
        assert_eq!(r.est_ns("execute"), 800000 * 64);
        assert_eq!(r.est_ns("ffwd"), 33600000);
        // 320000 insts / 200000 µs = 1.600 MIPS; 640000 cyc = 3.200 Mcyc/s.
        assert_eq!(r.sim_mips_milli(), 1600);
        assert_eq!(r.mcps_milli(), 3200);
    }

    #[test]
    fn profile_table_shares_sum_to_100_and_hide_empty_buckets() {
        let recs = parse_profile(&fixture_profile());
        let t = profile_table(&recs);
        assert!(t.contains("fetch"), "{t}");
        assert!(t.contains("sim_MIPS"), "{t}");
        assert!(!t.contains("ckpt"), "all-zero buckets are hidden:\n{t}");
        assert!(!t.contains("bbv"), "all-zero buckets are hidden:\n{t}");
        assert!(t.contains("1.600"), "sim MIPS rendered:\n{t}");
        assert!(t.contains("3.200"), "Mcyc/s rendered:\n{t}");
        // The share columns of the data row sum to ~100% (rounding loses
        // at most 0.1% per column).
        let row = t.lines().last().unwrap();
        let sum_tenths: u64 = row
            .split_whitespace()
            .filter(|c| c.ends_with('%'))
            .map(|c| {
                let (int, frac) = c.trim_end_matches('%').split_once('.').unwrap();
                int.parse::<u64>().unwrap() * 10 + frac.parse::<u64>().unwrap()
            })
            .sum();
        assert!((995..=1000).contains(&sum_tenths), "shares sum to ~100%: {sum_tenths} in {row}");
        // Stage scaling puts execute (sampled) near ffwd (whole-call):
        // est execute = 51.2ms, ffwd = 33.6ms of ~2.6+33.6+... total.
        assert!(profile_table(&[]).contains("no profile records"));
    }

    #[test]
    fn regressions_trip_beyond_threshold_only() {
        let old = Trajectory::parse(&fixture()).unwrap();
        let mut new = old.clone();
        assert!(regressions(&new, &old, 5).is_empty(), "identical trajectories pass");
        // Degrade the MSSR cell's IPC by 50% and its grant rate to 0.
        new.cells[1].cycles = 2000;
        new.cells[1].reuse_grants = 0;
        let r = regressions(&new, &old, 5);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].metric, "IPC");
        assert_eq!(r[1].metric, "grant rate");
        assert!(r[0].to_string().starts_with("REGRESSION w/RCVG_2_64: IPC 1.000 -> 0.500"));
        // Within threshold: a 3% IPC dip under a 5% threshold passes.
        let mut mild = old.clone();
        mild.cells[1].insts = 970;
        assert!(regressions(&mild, &old, 5).is_empty());
        // Cells only on one side are ignored.
        let mut fewer = old.clone();
        fewer.cells.pop();
        assert!(regressions(&fewer, &old, 5).is_empty());
        assert!(regressions(&old, &fewer, 5).is_empty());
        // Duplicate (workload, engine) cells — ablation reruns under a
        // different simulator config — pair by ordinal, so identical
        // trajectories with duplicates pass, and degrading only the
        // second duplicate flags exactly one regression.
        let mut dup = old.clone();
        let mut ablated = dup.cells[1].clone();
        ablated.cycles = 1200;
        dup.cells.push(ablated);
        assert!(regressions(&dup, &dup.clone(), 5).is_empty());
        let mut dup_bad = dup.clone();
        dup_bad.cells[2].cycles = 2400;
        assert_eq!(regressions(&dup_bad, &dup, 5).len(), 1);
    }
}
