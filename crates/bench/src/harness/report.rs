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

use mssr_sim::{
    json_escape, BpredKind, Category, CycleAccount, ProfBucket, ProfReport, Sample, SimStats,
};

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
// Trajectory model: one type per structured record, its writer
// (`to_json`) beside its reader (`from_json`). The harness writes every
// record through these types and every reader parses into them, so a
// field is declared once; `to_json(from_json(line))` reproduces a
// harness line byte for byte. Readers stay tolerant: a missing counter
// reads 0.
// ---------------------------------------------------------------------

/// Fills `counters` from the same-named numeric members of `obj`; a
/// counter the object lacks (or a missing object) reads 0. Writers emit
/// members in declaration order, so the walk normally advances one
/// member per counter and falls back to a search only on reordered
/// input.
fn read_counters<'a>(
    obj: Option<&Json>,
    counters: impl IntoIterator<Item = (&'static str, &'a mut u64)>,
) {
    let kv: &[(String, Json)] = match obj {
        Some(Json::Obj(kv)) => kv,
        _ => &[],
    };
    let mut next = 0;
    for (name, slot) in counters {
        let at = match kv.get(next) {
            Some((k, _)) if k == name => Some(next),
            _ => kv.iter().position(|(k, _)| k == name),
        };
        *slot = at.map_or(0, |i| {
            next = i + 1;
            kv[i].1.num().unwrap_or(0)
        });
    }
}

/// A string member of `v`, or `default` when absent.
fn str_member(v: &Json, key: &str, default: &str) -> String {
    v.get(key).and_then(Json::str_val).unwrap_or(default).to_string()
}

/// The numbers of an array member of `v` (non-numbers read 0).
fn num_array(v: Option<&Json>) -> Vec<u64> {
    match v {
        Some(Json::Arr(a)) => a.iter().map(|x| x.num().unwrap_or(0)).collect(),
        _ => Vec::new(),
    }
}

/// One `"cell"` record: a (workload × engine) run with its full
/// statistics, plus the sample series and SimPoint record [`Trajectory`]
/// attaches from the lines that follow it.
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
    /// Branch-predictor name. The default predictor (`"tage"`) is left
    /// out of the line, which keeps default-grid trajectories
    /// byte-stable.
    pub bpred: String,
    /// The cell's deterministic seed (written as `0x…`).
    pub seed: u64,
    /// Invalid checkpoint files the cell skipped before running cold;
    /// the line carries it only when nonzero.
    pub ckpt_restore_skips: u64,
    /// The simulated statistics. Register Integration's per-set
    /// replacement counts travel in the line's `ri_set_replacements`.
    pub stats: SimStats,
    /// `--sample` time series (empty without `--sample`).
    pub samples: Vec<Sample>,
    /// `--simpoint` plan and per-representative measurements; `None`
    /// for whole-program runs.
    pub simpoint: Option<SimpointCellResult>,
}

impl CellRecord {
    /// The record's trajectory line (no trailing newline). Samples and
    /// the SimPoint record are lines of their own.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"cell\",\"id\":{},\"workload\":\"{}\",\"suite\":\"{}\",\"engine\":\"{}\",\"seed\":\"{:#x}\"",
            self.id,
            json_escape(&self.workload),
            json_escape(&self.suite),
            json_escape(&self.engine),
            self.seed
        );
        if self.bpred != BpredKind::default().name() {
            out.push_str(&format!(",\"bpred\":\"{}\"", json_escape(&self.bpred)));
        }
        let repl = &self.stats.engine.set_replacements;
        if !repl.is_empty() {
            let list: Vec<String> = repl.iter().map(u64::to_string).collect();
            out.push_str(&format!(",\"ri_set_replacements\":[{}]", list.join(",")));
        }
        if self.ckpt_restore_skips > 0 {
            out.push_str(&format!(",\"ckpt_restore_skips\":{}", self.ckpt_restore_skips));
        }
        out.push_str(",\"stats\":");
        out.push_str(&self.stats.to_json());
        out.push('}');
        out
    }

    /// Reads a `"cell"` line: one walk over each counter list of the
    /// already-parsed object.
    ///
    /// # Errors
    ///
    /// Returns a message when the record has no `"stats"` object.
    pub fn from_json(v: &Json) -> Result<CellRecord, String> {
        let st = v.get("stats").ok_or("cell without stats")?;
        let mut stats = SimStats::default();
        read_counters(Some(st), stats.counters_mut());
        let engine = st.get("engine");
        read_counters(engine, stats.engine.counters_mut());
        let distance = num_array(engine.and_then(|e| e.get("stream_distance")));
        for (d, v) in stats.engine.stream_distance.iter_mut().zip(distance) {
            *d = v;
        }
        if let Some(e) = engine {
            stats.engine.valid_streams = e.field_u64("valid_streams");
            stats.engine.ri_occupancy = e.field_u64("ri_occupancy");
        }
        stats.engine.set_replacements = num_array(v.get("ri_set_replacements"));
        read_counters(st.get("account"), stats.account.counters_mut());
        let seed = v.get("seed").and_then(Json::str_val).and_then(|s| s.strip_prefix("0x"));
        Ok(CellRecord {
            id: v.field_u64("id"),
            workload: str_member(v, "workload", "?"),
            suite: str_member(v, "suite", "?"),
            engine: str_member(v, "engine", "?"),
            bpred: str_member(v, "bpred", BpredKind::default().name()),
            seed: seed.and_then(|h| u64::from_str_radix(h, 16).ok()).unwrap_or(0),
            ckpt_restore_skips: v.field_u64("ckpt_restore_skips"),
            stats,
            samples: Vec::new(),
            simpoint: None,
        })
    }

    /// IPC in fixed-point thousandths (integer-deterministic).
    pub fn ipc_milli(&self) -> u64 {
        (self.stats.committed_instructions * 1000).checked_div(self.stats.cycles).unwrap_or(0)
    }

    /// Reuse-grant rate (grants per test) in thousandths.
    pub fn grant_rate_milli(&self) -> u64 {
        let e = &self.stats.engine;
        (e.reuse_grants * 1000).checked_div(e.reuse_tests).unwrap_or(0)
    }

    /// Mispredictions per kilo-instruction, in fixed-point thousandths
    /// (u128 internally so huge counters cannot wrap the multiply).
    pub fn mpki_milli(&self) -> u64 {
        let s = &self.stats;
        if s.committed_instructions == 0 {
            return 0;
        }
        u64::try_from(
            u128::from(s.mispredictions) * 1_000_000 / u128::from(s.committed_instructions),
        )
        .unwrap_or(u64::MAX)
    }
}

/// One representative interval's detailed measurement under `--simpoint`.
#[derive(Clone, Debug)]
pub struct SimpointRep {
    /// Interval index in the BBV trace.
    pub index: u64,
    /// First instruction of the interval (the measurement start; the
    /// detailed run begins `warmup_insts` earlier).
    pub start_inst: u64,
    /// Instructions the plan assigned to the interval.
    pub planned_insts: u64,
    /// Cluster weight: instructions across the cluster's members.
    pub weight_insts: u64,
    /// Mean normalized-L1 BBV distance of cluster members to this
    /// representative, in thousandths (the error-bound input).
    pub spread_milli: u64,
    /// Detailed warmup instructions run before the measured region
    /// (their counters are excluded from `cycles`/`insts`/`account` but
    /// count against the detailed-simulation budget).
    pub warmup_insts: u64,
    /// Detailed cycles simulated in the measured region.
    pub cycles: u64,
    /// Detailed instructions committed in the measured region (the
    /// plan's count, give or take commit-width overshoot on the stop
    /// boundaries).
    pub insts: u64,
    /// The measured region's CPI-stack account.
    pub account: CycleAccount,
}

/// A cell's `--simpoint` record: the sampling plan plus each
/// representative's detailed measurement, from which whole-program CPI
/// is reconstructed.
#[derive(Clone, Debug)]
pub struct SimpointCellResult {
    /// Interval length in instructions.
    pub interval: u64,
    /// Total instructions of the functional pass.
    pub total_insts: u64,
    /// Number of intervals clustered.
    pub n_intervals: u64,
    /// Chosen cluster count.
    pub k: u64,
    /// Per-representative measurements, in interval order.
    pub reps: Vec<SimpointRep>,
}

impl SimpointCellResult {
    /// The record's trajectory line for cell `cell` (no trailing
    /// newline).
    pub fn to_json(&self, cell: u64) -> String {
        let mut out = format!(
            "{{\"type\":\"simpoint\",\"cell\":{cell},\"interval\":{},\"total_insts\":{},\"intervals\":{},\"k\":{},\"reps\":[",
            self.interval, self.total_insts, self.n_intervals, self.k
        );
        for (j, rep) in self.reps.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"start_inst\":{},\"planned_insts\":{},\"weight_insts\":{},\"spread_milli\":{},\"warmup_insts\":{},\"cycles\":{},\"insts\":{},\"account\":{}}}",
                rep.index,
                rep.start_inst,
                rep.planned_insts,
                rep.weight_insts,
                rep.spread_milli,
                rep.warmup_insts,
                rep.cycles,
                rep.insts,
                rep.account.to_json()
            ));
        }
        out.push_str("]}");
        out
    }

    /// Reads a `"simpoint"` line (its `"cell"` member names the cell
    /// the record belongs to).
    pub fn from_json(v: &Json) -> SimpointCellResult {
        let reps = match v.get("reps") {
            Some(Json::Arr(reps)) => reps
                .iter()
                .map(|r| {
                    let mut account = CycleAccount::default();
                    read_counters(r.get("account"), account.counters_mut());
                    SimpointRep {
                        index: r.field_u64("index"),
                        start_inst: r.field_u64("start_inst"),
                        planned_insts: r.field_u64("planned_insts"),
                        weight_insts: r.field_u64("weight_insts"),
                        spread_milli: r.field_u64("spread_milli"),
                        warmup_insts: r.field_u64("warmup_insts"),
                        cycles: r.field_u64("cycles"),
                        insts: r.field_u64("insts"),
                        account,
                    }
                })
                .collect(),
            _ => Vec::new(),
        };
        SimpointCellResult {
            interval: v.field_u64("interval"),
            total_insts: v.field_u64("total_insts"),
            n_intervals: v.field_u64("intervals"),
            k: v.field_u64("k"),
            reps,
        }
    }

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

/// One cell's self-profile: the simulator's per-bucket wall-clock
/// attribution plus the cell's total wall time (the sim-MIPS and
/// cycles-per-second denominator).
#[derive(Clone, Debug, Default)]
pub struct CellProfile {
    /// Whole-cell wall time in microseconds (≥ 1).
    pub total_us: u64,
    /// Per-stage sampled nanoseconds and whole-call ckpt/ffwd/bbv
    /// timings (see [`mssr_sim::ProfBucket`]).
    pub report: ProfReport,
}

/// One `"profile"` record of a harness `--profile` stderr stream: a
/// cell's host wall-clock attribution. Profile data is
/// machine-dependent, so these lines never enter the trajectory
/// (`Trajectory::parse` rejects the record type by design).
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
    /// The cell's wall time and per-bucket attribution.
    pub profile: CellProfile,
}

impl ProfileRecord {
    /// The record's line (no trailing newline).
    pub fn to_json(&self) -> String {
        let r = &self.profile.report;
        let mut out = format!(
            "{{\"type\":\"profile\",\"cell\":{},\"workload\":\"{}\",\"engine\":\"{}\",\"cycles\":{},\"insts\":{},\"total_us\":{},\"stride\":{},\"sampled_cycles\":{},\"ns\":{{",
            self.cell,
            json_escape(&self.workload),
            json_escape(&self.engine),
            self.cycles,
            self.insts,
            self.profile.total_us,
            r.stride,
            r.sampled_cycles,
        );
        let ns: Vec<String> =
            ProfBucket::ALL.iter().map(|&b| format!("\"{}\":{}", b.name(), r.get(b))).collect();
        out.push_str(&ns.join(","));
        out.push_str("}}");
        out
    }

    /// Reads a `"profile"` line (`None` for any other record type).
    pub fn from_json(v: &Json) -> Option<ProfileRecord> {
        if v.get("type").and_then(Json::str_val) != Some("profile") {
            return None;
        }
        let mut report = ProfReport {
            stride: v.field_u64("stride"),
            sampled_cycles: v.field_u64("sampled_cycles"),
            ..ProfReport::default()
        };
        let names = ProfBucket::ALL.map(ProfBucket::name);
        read_counters(v.get("ns"), names.into_iter().zip(report.ns.iter_mut()));
        Some(ProfileRecord {
            cell: v.field_u64("cell"),
            workload: str_member(v, "workload", "?"),
            engine: str_member(v, "engine", "?"),
            cycles: v.field_u64("cycles"),
            insts: v.field_u64("insts"),
            profile: CellProfile { total_us: v.field_u64("total_us"), report },
        })
    }

    /// Host throughput in thousandths of simulated MIPS.
    pub fn sim_mips_milli(&self) -> u64 {
        self.insts.saturating_mul(1000) / self.profile.total_us.max(1)
    }

    /// Host simulation rate in thousandths of megacycles per second.
    pub fn mcps_milli(&self) -> u64 {
        self.cycles.saturating_mul(1000) / self.profile.total_us.max(1)
    }
}

/// Parses a `--profile` stderr stream into its profile records. The
/// stream interleaves with warnings and other diagnostics, so anything
/// that is not a well-formed `{"type":"profile",...}` line is skipped
/// rather than an error.
pub fn parse_profile(text: &str) -> Vec<ProfileRecord> {
    text.lines()
        .filter_map(|line| Json::parse(line.trim()).ok())
        .filter_map(|v| ProfileRecord::from_json(&v))
        .collect()
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
                    t.scale = str_member(&v, "scale", "");
                    t.root_seed = str_member(&v, "root_seed", "");
                }
                Some("cell") => {
                    t.cells.push(
                        CellRecord::from_json(&v).map_err(|e| format!("line {}: {e}", n + 1))?,
                    );
                }
                Some("event") => Self::event(&mut t, &v),
                Some("simpoint") => {
                    if let Some(c) = t.cell_mut(v.field_u64("cell")) {
                        c.simpoint = Some(SimpointCellResult::from_json(&v));
                    }
                }
                Some("experiment") => {}
                other => {
                    return Err(format!("line {}: unknown record type {other:?}", n + 1));
                }
            }
        }
        Ok(t)
    }

    /// The cell with id `id`. Attached records follow their cell, so the
    /// match is normally the last cell; search anyway so reordered input
    /// still parses.
    fn cell_mut(&mut self, id: u64) -> Option<&mut CellRecord> {
        self.cells.iter_mut().rev().find(|c| c.id == id)
    }

    fn event(t: &mut Trajectory, v: &Json) {
        let Some(ev) = v.get("ev") else { return };
        if ev.get("ev").and_then(Json::str_val) != Some("sample") {
            return;
        }
        if let Some(c) = t.cell_mut(v.field_u64("cell")) {
            let mut s = Sample { cycle: ev.field_u64("cycle"), ..Sample::default() };
            read_counters(Some(ev), s.counters_mut());
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
    if t.cells.iter().all(|c| c.stats.account.total_slots() == 0) {
        return "(no CPI accounts in trajectory)\n".to_string();
    }
    let mut header: Vec<String> =
        ["workload", "engine", "IPC"].iter().map(|s| s.to_string()).collect();
    header.extend(Category::ALL.iter().map(|c| c.name().to_string()));
    header.push("credit_cycles".to_string());
    header.push("credit_fetches".to_string());
    let rows: Vec<Vec<String>> = t
        .cells
        .iter()
        .map(|c| {
            let a = &c.stats.account;
            let mut r = vec![c.workload.clone(), c.engine.clone(), milli(c.ipc_milli())];
            r.extend(Category::ALL.iter().map(|&k| pct10(a.get(k), a.total_slots())));
            r.push(a.credit_reuse_cycles.to_string());
            r.push(a.credit_recon_fetches.to_string());
            r
        })
        .collect();
    table(&header, &rows)
}

/// `c`'s speedup over the `BASE` cell of the same workload, as `N.NNNx`
/// (`-` without one). The reference must share the predictor: a
/// predictor-lab trajectory carries one BASE cell per bpred kind.
fn base_speedup(t: &Trajectory, c: &CellRecord) -> String {
    let base = t
        .cells
        .iter()
        .find(|b| b.workload == c.workload && b.engine == "BASE" && b.bpred == c.bpred);
    match base {
        Some(b) if c.stats.cycles > 0 => {
            format!("{}x", milli(b.stats.cycles * 1000 / c.stats.cycles))
        }
        _ => "-".to_string(),
    }
}

/// Renders the speedup table: cycles and speedup vs the `BASE` cell of
/// the same workload, with the reuse-coverage breakdown (grant rate per
/// test, coverage of squashed instructions, credited cycles). When any
/// cell was fast-forwarded, two extra columns report the functionally
/// executed instruction count and the skipped cycles — `cycles`, `IPC`
/// and `speedup` always measure the detailed region only.
pub fn speedup_table(t: &Trajectory) -> String {
    let ffwd = t.cells.iter().any(|c| c.stats.ffwd_insts > 0);
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
            let (s, e) = (&c.stats, &c.stats.engine);
            let mut r = vec![
                c.workload.clone(),
                c.engine.clone(),
                s.cycles.to_string(),
                base_speedup(t, c),
                milli(c.mpki_milli()),
                e.reuse_grants.to_string(),
                pct10(e.reuse_grants, e.reuse_tests),
                pct10(e.reuse_grants, s.squashed_instructions),
            ];
            if ffwd {
                r.push(s.ffwd_insts.to_string());
                r.push(s.skipped_cycles.to_string());
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
            vec![
                c.workload.clone(),
                c.bpred.clone(),
                c.engine.clone(),
                c.stats.cycles.to_string(),
                milli(c.mpki_milli()),
                base_speedup(t, c),
                c.stats.engine.reuse_grants.to_string(),
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

/// Renders the self-profile table: one row per cell with each bucket's
/// share of attributed wall-clock (stage samples scaled by the stride,
/// so a row's shares sum to ~100%), plus host throughput as simulated
/// MIPS and megacycles per second. Buckets that are zero in every
/// record (e.g. `bbv` outside SimPoint runs) are omitted.
pub fn profile_table(recs: &[ProfileRecord]) -> String {
    if recs.is_empty() {
        return "(no profile records — run the harness with --profile 2>FILE)\n".to_string();
    }
    let buckets: Vec<ProfBucket> = ProfBucket::ALL
        .into_iter()
        .filter(|&b| recs.iter().any(|r| r.profile.report.get(b) > 0))
        .collect();
    let mut header: Vec<String> = ["workload", "engine"].iter().map(|s| s.to_string()).collect();
    header.extend(buckets.iter().map(|b| b.name().to_string()));
    header.push("sim_MIPS".to_string());
    header.push("Mcyc/s".to_string());
    let rows: Vec<Vec<String>> = recs
        .iter()
        .map(|r| {
            let p = &r.profile.report;
            let total = p.est_total_ns();
            let mut row = vec![r.workload.clone(), r.engine.clone()];
            // Shares are scaled to thousandths before the percentage so
            // huge nanosecond counts cannot overflow pct10's multiply.
            for &b in &buckets {
                row.push(pct10(
                    (u128::from(p.est_ns(b)) * 1000 / u128::from(total.max(1))) as u64,
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
        assert_eq!(
            (b.engine.as_str(), b.stats.cycles, b.stats.committed_instructions),
            ("BASE", 2000, 1000)
        );
        assert_eq!(b.stats.account.get(Category::SquashBranch), 3000);
        assert_eq!(b.stats.account.total_slots(), 8000, "credits are not commit slots");
        assert_eq!(b.samples.len(), 1);
        assert_eq!(b.samples[0].insts, 400);
        let m = &t.cells[1];
        assert_eq!(m.stats.account.credit_reuse_cycles, 70);
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
        new.cells[1].stats.mispredictions = 12; // +20% past the 5% threshold
        assert!(regressions(&new, &old, 5).iter().any(|x| x.metric == "MPKI"));
        let mut zero_old = old.clone();
        zero_old.cells[1].stats.mispredictions = 0;
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
        warmed.cells[1].stats.ffwd_insts = 5000;
        warmed.cells[1].stats.skipped_cycles = 5000;
        let r = speedup_table(&warmed);
        assert!(r.contains("ffwd_insts"), "ffwd column present:\n{r}");
        assert!(r.contains("skipped_cycles"), "skipped column present:\n{r}");
        assert!(r.contains("5000"), "values rendered:\n{r}");
        // The stats fields parse from a trajectory too.
        let line = fixture()
            .replace("\"cycles\":1000,", "\"cycles\":1000,\"ffwd_insts\":7,\"skipped_cycles\":7,");
        let t = Trajectory::parse(&line).unwrap();
        assert_eq!(t.cells[1].stats.ffwd_insts, 7);
        assert_eq!(t.cells[1].stats.skipped_cycles, 7);
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
        let p = &r.profile;
        assert_eq!((r.cycles, r.insts, p.total_us, p.report.stride), (640000, 320000, 200000, 64));
        assert_eq!(p.report.get(ProfBucket::Execute), 800000);
        // Stage buckets scale by the stride; whole-call buckets do not.
        assert_eq!(p.report.est_ns(ProfBucket::Execute), 800000 * 64);
        assert_eq!(p.report.est_ns(ProfBucket::Ffwd), 33600000);
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

    /// Every structured record the harness writes reads back into its
    /// type and writes out unchanged: the cell and SimPoint lines of the
    /// whole test-scale grid and of a sampled Table 1, and the profile
    /// records of that sampled run. A field a reader drops breaks the
    /// byte equality.
    #[test]
    fn records_round_trip_byte_for_byte() {
        use crate::harness::{
            all_experiments, experiment, profile_record, run_experiments, CellPool, HarnessOpts,
        };
        use mssr_workloads::Scale;

        let mut opts = HarnessOpts::new(Scale::Test);
        opts.json = true;
        let mut text = run_experiments(&all_experiments(), &opts);
        opts.simpoint = Some((2000, 3));
        text.push_str(&run_experiments(&[experiment("table1").unwrap()], &opts));
        assert!(!text.contains("ckpt_restore_skips"), "clean cells carry no skip count");
        // A degraded restore's cell line carries its skipped-file count.
        let first = text.lines().find(|l| l.starts_with("{\"type\":\"cell\"")).unwrap();
        let mut degraded = CellRecord::from_json(&Json::parse(first).unwrap()).unwrap();
        degraded.ckpt_restore_skips = 2;
        let degraded = degraded.to_json();
        assert!(degraded.contains(",\"ckpt_restore_skips\":2,\"stats\":"), "{degraded}");
        text.push_str(&degraded);
        text.push('\n');
        let (mut cells, mut simpoints) = (0, 0);
        for line in text.lines() {
            let v = Json::parse(line).unwrap();
            let back = match v.get("type").and_then(Json::str_val) {
                Some("cell") => {
                    cells += 1;
                    CellRecord::from_json(&v).unwrap().to_json()
                }
                Some("simpoint") => {
                    simpoints += 1;
                    SimpointCellResult::from_json(&v).to_json(v.field_u64("cell"))
                }
                _ => continue,
            };
            assert_eq!(back, line);
        }
        assert!(text.contains("\"bpred\":") && text.contains("\"ri_set_replacements\":"));
        assert_eq!(simpoints, 14, "one record per sampled Table 1 cell");
        assert!(cells > simpoints);

        // The `--profile` stream of the sampled run, written as the
        // harness writes it to stderr.
        opts.profile = true;
        let mut pool = CellPool::new(Scale::Test);
        experiment("table1").unwrap().cells(&mut pool);
        let results = pool.run(&opts);
        for (i, r) in results.iter().enumerate() {
            let line = profile_record(&pool, i, r).expect("profiled cell").to_json();
            let v = Json::parse(&line).unwrap();
            assert_eq!(ProfileRecord::from_json(&v).unwrap().to_json(), line);
        }
        assert_eq!(parse_profile("{\"type\":\"cell\"}\n").len(), 0);
    }

    #[test]
    fn regressions_trip_beyond_threshold_only() {
        let old = Trajectory::parse(&fixture()).unwrap();
        let mut new = old.clone();
        assert!(regressions(&new, &old, 5).is_empty(), "identical trajectories pass");
        // Degrade the MSSR cell's IPC by 50% and its grant rate to 0.
        new.cells[1].stats.cycles = 2000;
        new.cells[1].stats.engine.reuse_grants = 0;
        let r = regressions(&new, &old, 5);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].metric, "IPC");
        assert_eq!(r[1].metric, "grant rate");
        assert!(r[0].to_string().starts_with("REGRESSION w/RCVG_2_64: IPC 1.000 -> 0.500"));
        // Within threshold: a 3% IPC dip under a 5% threshold passes.
        let mut mild = old.clone();
        mild.cells[1].stats.committed_instructions = 970;
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
        ablated.stats.cycles = 1200;
        dup.cells.push(ablated);
        assert!(regressions(&dup, &dup.clone(), 5).is_empty());
        let mut dup_bad = dup.clone();
        dup_bad.cells[2].stats.cycles = 2400;
        assert_eq!(regressions(&dup_bad, &dup, 5).len(), 1);
    }
}
