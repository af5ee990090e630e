//! The LOCUS reproduction's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path locusbench/Cargo.toml -- \
//!     --workload <interactive_16|build_64|partition_256> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up five times (reporting the
//! median set-up time), runs the measured rounds untraced and prints the
//! end-to-end metrics. With `--trace 1` it runs the same rounds twice
//! from identical set-ups, first untraced and then with spans and the
//! program's observer on, audits the observer stream, and prints the
//! per-layer metrics plus the tracing overhead. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod harness;
mod model;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use harness::{Recorder, Window, UNEXPECTED};
use locus_net::obs::{audit, export_jsonl, parse_jsonl};
use stats::{median, quantile, MIN_P99_SAMPLES};
use trace::Tracer;
use workloads::{build::Build, interactive::Interactive, partition::Partition, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        flags.insert(k, v);
    }
    let get = |k: &str| flags.get(k).cloned().ok_or(format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t}: want 0 or 1")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("locusbench: {e}\nusage: locusbench --workload <interactive_16|build_64|partition_256> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "interactive_16" => bench::<Interactive>(&args),
        "build_64" => bench::<Build>(&args),
        "partition_256" => bench::<Partition>(&args),
        w => {
            eprintln!("locusbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.text);
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// One measured pass: `rounds` rounds on a set-up workload.
struct Pass {
    rec: Recorder,
    win: Window,
    rounds: usize,
}

/// Rounds in the untraced pass: `seconds` worth, and enough for a p99
/// with ten samples beyond it.
fn measured_rounds<W: Workload>(seconds: u64) -> usize {
    let min = (MIN_P99_SAMPLES + MIN_P99_SAMPLES / 10).div_ceil(W::OPS_PER_ROUND);
    ((seconds as f64 * W::ROUNDS_PER_S).round() as usize).max(min)
}

/// Rounds in each pass of a traced run: a tenth of the untraced run's
/// time, so the spans and the observer stream stay small in memory.
fn traced_rounds<W: Workload>(seconds: u64) -> usize {
    ((seconds as f64 * W::ROUNDS_PER_S / 10.0).round() as usize).max(1)
}

fn measure<W: Workload>(
    w: &mut W,
    rounds: usize,
    tr: &Tracer,
    mut obs: Option<&mut Vec<locus_net::ObsEvent>>,
) -> Pass {
    let mut rec = Recorder::default();
    let mut win = Window::default();
    win.resume(w.cluster(), tr);
    rec.sample_reachable(&harness::Sys { c: w.cluster(), tr }, &mut win);
    for r in 0..rounds {
        w.round(r, tr, &mut rec, &mut win);
        if let Some(events) = obs.as_deref_mut() {
            events.extend(w.cluster().net().take_obs_events());
        }
    }
    win.pause(w.cluster(), tr);
    Pass { rec, win, rounds }
}

/// What a run prints.
struct Report {
    text: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn out_dir() -> std::path::PathBuf {
    let d = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&d);
    d
}

fn bench<W: Workload>(args: &Args) -> Report {
    let mut text = format!(
        "workload {} seed {} seconds {} trace {}\n",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut problems: Vec<String> = Vec::new();
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let off = Tracer::new(false);

    let (pass, w) = if !args.trace {
        let mut setups = Vec::new();
        let mut w = None;
        for _ in 0..SETUPS {
            drop(w.take());
            let t0 = off.now_ns();
            w = Some(W::setup(args.seed, &off));
            setups.push((off.now_ns() - t0) / 1e9);
        }
        let mut w = w.expect("set up");
        let pass = measure(&mut w, measured_rounds::<W>(args.seconds), &off, None);
        let _ = writeln!(text, "setup_s samples {setups:?}");
        metrics.extend(end_to_end(&pass, median(&mut setups)));
        (pass, w)
    } else {
        // Reference pass, untraced, for the overhead.
        let mut w0 = W::setup(args.seed, &off);
        let p0 = measure(&mut w0, traced_rounds::<W>(args.seconds), &off, None);
        drop(w0);
        let mut w = W::setup(args.seed, &off);
        w.cluster().net().set_observing(true);
        let tr = Tracer::new(true);
        let mut events = Vec::new();
        let pass = measure(
            &mut w,
            traced_rounds::<W>(args.seconds),
            &tr,
            Some(&mut events),
        );
        events.extend(w.cluster().net().take_obs_events());
        w.cluster().net().set_observing(false);
        if (
            p0.win.vt_us,
            p0.win.sends,
            p0.rec.attempted,
            p0.rec.failed_total(),
        ) != (
            pass.win.vt_us,
            pass.win.sends,
            pass.rec.attempted,
            pass.rec.failed_total(),
        ) {
            problems.push("the traced pass diverged from the untraced one".into());
        }
        if w.cluster().net().obs_truncated() > 0 {
            problems.push("observer stream truncated".into());
        }
        let jsonl = export_jsonl(&events);
        drop(events);
        let tag = format!("{}-{}", args.workload, args.seed);
        let _ = std::fs::write(out_dir().join(format!("obs-{tag}.jsonl")), &jsonl);
        let _ = std::fs::write(out_dir().join(format!("spans-{tag}.jsonl")), tr.to_jsonl());
        match parse_jsonl(&jsonl) {
            Ok(parsed) => {
                let rep = audit(&parsed);
                let _ = writeln!(text, "observer audit: {}", rep.summary());
                problems.extend(rep.violations.iter().take(5).map(|v| format!("audit: {v}")));
            }
            Err(e) => problems.push(format!("observer stream does not parse: {e}")),
        }
        let _ = writeln!(
            text,
            "\nper-layer spans ({} spans, written to locusbench/out/spans-{tag}.jsonl)",
            tr.spans().len()
        );
        text.push_str(&tr.layer_table());
        let overhead = 100.0 * (pass.win.host_ns / p0.win.host_ns - 1.0);
        metrics.extend(per_layer(&pass, &tr));
        metrics.push(("trace.overhead_pct".into(), overhead, "%"));
        let _ = writeln!(
            text,
            "tracing overhead: traced window {:.3} s vs untraced {:.3} s ({overhead:+.1}%)",
            pass.win.host_ns / 1e9,
            p0.win.host_ns / 1e9
        );
        (pass, w)
    };

    // End state, after the final settle, outside the window.
    let mut w = w;
    w.cluster().settle();
    problems.extend(w.end_check(&off));

    let rec = &pass.rec;
    let _ = writeln!(
        text,
        "\n{} rounds, {} operations attempted, {} failed ({} latency samples), window {:.3} s host / {:.3} s virtual",
        pass.rounds,
        rec.attempted,
        rec.failed_total(),
        rec.host_ns.len(),
        pass.win.host_ns / 1e9,
        pass.win.vt_us as f64 / 1e6
    );
    let (vt_p50, vt_p99) = vt_quantiles(&pass);
    let _ = writeln!(text, "virtual time per operation: p50 {vt_p50:.3} ms, p99 {vt_p99:.3} ms (exact order statistics)");
    for (cause, n) in &rec.failed {
        let _ = writeln!(
            text,
            "  failed by {cause}: {n} (e.g. {:?})",
            rec.examples[cause].first()
        );
    }
    for p in problems.iter().take(10) {
        let _ = writeln!(text, "  PROBLEM: {p}");
    }
    let _ = writeln!(text, "\n{:<36} {:>16}  unit", "metric", "value");
    for (n, v, u) in &metrics {
        let _ = writeln!(text, "{n:<36} {v:>16.4}  {u}");
    }
    Report {
        text,
        correct: problems.is_empty() && !rec.failed.contains_key(UNEXPECTED),
        attempted: rec.attempted,
        failed: rec.failed_total(),
        metrics,
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Mean of the slowest 1% of `v` (at least one sample).
fn worst_1pct_mean(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    mean(&v[v.len() - v.len().div_ceil(100)..])
}

fn end_to_end(p: &Pass, setup_s: f64) -> Vec<(String, f64, &'static str)> {
    let done = p.rec.completed().max(1) as f64;
    let mut host = p.rec.host_ns.clone();
    assert!(
        host.len() >= MIN_P99_SAMPLES,
        "a run must complete at least {MIN_P99_SAMPLES} operations for p99"
    );
    vec![
        (
            "ops_per_host_s".to_owned(),
            done / (p.win.host_ns / 1e9),
            "1/s",
        ),
        (
            "host_op_us_p50".to_owned(),
            quantile(&mut host, 0.5) / 1e3,
            "us",
        ),
        (
            "host_op_us_p99".to_owned(),
            quantile(&mut host, 0.99) / 1e3,
            "us",
        ),
        ("vt_op_ms_mean".to_owned(), mean(&p.rec.vt_us) / 1e3, "ms"),
        (
            "vt_op_ms_worst1pct".to_owned(),
            worst_1pct_mean(&p.rec.vt_us) / 1e3,
            "ms",
        ),
        ("msgs_per_op".to_owned(), p.win.sends as f64 / done, "msgs"),
        ("vt_run_s".to_owned(), p.win.vt_us as f64 / 1e6, "s"),
        ("setup_s".to_owned(), setup_s, "s"),
        ("peak_rss_mib".to_owned(), stats::peak_rss_mib(), "MiB"),
    ]
}

/// Exact order statistics of the operations' virtual times, ms.
fn vt_quantiles(p: &Pass) -> (f64, f64) {
    let mut vt = p.rec.vt_us.clone();
    (quantile(&mut vt, 0.5) / 1e3, quantile(&mut vt, 0.99) / 1e3)
}

fn per_layer(p: &Pass, tr: &Tracer) -> Vec<(String, f64, &'static str)> {
    let done = p.rec.completed().max(1) as f64;
    let w = &p.win;
    let c = &w.cache;
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    let med = |mut v: Vec<f64>| median(&mut v);
    let (vt_p50, vt_p99) = vt_quantiles(p);
    let mut out = vec![
        ("op.vt_ms_p50".to_owned(), vt_p50, "ms"),
        ("op.vt_ms_p99".to_owned(), vt_p99, "ms"),
        (
            "net.reachable_ns".to_owned(),
            med(p.rec.reach_ns.clone()),
            "ns",
        ),
        (
            "net.host_ns_per_msg".to_owned(),
            w.host_ns / w.sends.max(1) as f64,
            "ns",
        ),
    ];
    for svc in ["fs", "proc", "topology", "recovery"] {
        out.push((
            format!("net.msgs_per_op.{svc}"),
            w.service_sends.get(svc).copied().unwrap_or(0) as f64 / done,
            "msgs",
        ));
    }
    out.push((
        "net.bytes_per_op".to_owned(),
        w.bytes as f64 / done,
        "bytes",
    ));
    for call in [
        "open",
        "read",
        "close",
        "stat",
        "resolve",
        "readdir",
        "write_file",
        "unlink",
    ] {
        let name = format!("fs.{call}");
        out.push((
            format!("{name}.host_us_p50"),
            med(tr.host_ns_of(&name)) / 1e3,
            "us",
        ));
        out.push((
            format!("{name}.vt_ms_p50"),
            med(tr.vt_us_of(&name)) / 1e3,
            "ms",
        ));
    }
    out.push((
        "fs.settle.host_ms".to_owned(),
        med(tr.host_ns_of("fs.settle")) / 1e6,
        "ms",
    ));
    out.push((
        "fs.settle.msgs".to_owned(),
        med(tr.msgs_of("fs.settle")),
        "msgs",
    ));
    out.push((
        "fs.namecache.dentry_hit_ratio".to_owned(),
        ratio(c.dentry_hits, c.dentry_misses),
        "ratio",
    ));
    out.push((
        "fs.namecache.attr_hit_ratio".to_owned(),
        ratio(c.attr_hits, c.attr_misses),
        "ratio",
    ));
    out.push((
        "fs.lease.hits_per_op".to_owned(),
        c.lease_hits as f64 / done,
        "count",
    ));
    out.push((
        "fs.lease.recalls_per_op".to_owned(),
        c.lease_recalls as f64 / done,
        "count",
    ));
    out.push((
        "storage.page_hit_ratio".to_owned(),
        ratio(c.hits, c.misses),
        "ratio",
    ));
    out.push((
        "storage.page_misses_per_op".to_owned(),
        c.misses as f64 / done,
        "count",
    ));
    for (call, msgs) in [
        ("proc.run", "proc.msgs_per_run"),
        ("txn.commit", "txn.msgs_per_commit"),
    ] {
        out.push((
            format!("{call}.host_us_p50"),
            med(tr.host_ns_of(call)) / 1e3,
            "us",
        ));
        out.push((
            format!("{call}.vt_ms_p50"),
            med(tr.vt_us_of(call)) / 1e3,
            "ms",
        ));
        out.push((msgs.to_owned(), med(tr.msgs_of(call)), "msgs"));
    }
    for phase in ["partition", "merge"] {
        let name = format!("reconfig.{phase}");
        out.push((
            format!("{name}.host_ms"),
            med(tr.host_ns_of(&name)) / 1e6,
            "ms",
        ));
        out.push((format!("{name}.vt_ms"), med(tr.vt_us_of(&name)) / 1e3, "ms"));
        out.push((format!("{name}.msgs"), med(tr.msgs_of(&name)), "msgs"));
    }
    out
}
