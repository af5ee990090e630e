//! The benchmark's side of the system-call boundary: every call into a
//! layer goes through [`Sys`] (so the traced run can put a span around
//! it), every operation through [`Recorder`], and the measured window's
//! counters through [`Window`].

use std::collections::BTreeMap;

use locus::{
    Cluster, ExitStatus, Gfid, InodeInfo, OpenMode, Pid, ReconfigReport, SiteId, SysResult, TxnId,
};
use locus_fs::mailbox::Mailbox;
use locus_net::{Net, NetStats};
use locus_storage::CacheStats;

use crate::trace::Tracer;

/// Calls into the program's layers, each inside a span when tracing.
pub struct Sys<'a> {
    /// The cluster under test.
    pub c: &'a Cluster,
    /// The span recorder.
    pub tr: &'a Tracer,
}

impl Sys<'_> {
    /// The simulated network.
    pub fn net(&self) -> &Net {
        self.c.net()
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tr.span(self.c.net(), name, false, f)
    }

    fn counted<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tr.span(self.c.net(), name, true, f)
    }

    /// `open` + `read` of the whole file + `close`.
    pub fn cat(&self, pid: Pid, path: &str) -> SysResult<Vec<u8>> {
        let fd = self.span("fs.open", || self.c.open(pid, path, OpenMode::Read))?;
        let data = self.span("fs.read", || self.c.read(pid, fd, 1 << 20));
        self.span("fs.close", || self.c.close(pid, fd))?;
        data
    }

    /// `open` alone (for probing conflict marks); closes on success.
    pub fn open_probe(&self, pid: Pid, path: &str) -> SysResult<()> {
        let fd = self.span("fs.open", || self.c.open(pid, path, OpenMode::Read))?;
        self.span("fs.close", || self.c.close(pid, fd))
    }

    /// `stat`.
    pub fn stat(&self, pid: Pid, path: &str) -> SysResult<InodeInfo> {
        self.span("fs.stat", || self.c.stat(pid, path))
    }

    /// Path resolution.
    pub fn resolve(&self, pid: Pid, path: &str) -> SysResult<Gfid> {
        self.span("fs.resolve", || self.c.resolve(pid, path))
    }

    /// Directory listing.
    pub fn readdir(&self, pid: Pid, path: &str) -> SysResult<Vec<String>> {
        self.span("fs.readdir", || self.c.readdir(pid, path))
    }

    /// Whole-file write: create or truncate, write, commit on close.
    pub fn write_file(&self, pid: Pid, path: &str, data: &[u8]) -> SysResult<()> {
        self.span("fs.write_file", || self.c.write_file(pid, path, data))
    }

    /// `unlink`.
    pub fn unlink(&self, pid: Pid, path: &str) -> SysResult<()> {
        self.span("fs.unlink", || self.c.unlink(pid, path))
    }

    /// `mkdir`.
    pub fn mkdir(&self, pid: Pid, path: &str) -> SysResult<Gfid> {
        self.span("fs.mkdir", || self.c.mkdir(pid, path))
    }

    /// Mail delivery through the spool (`deliver_mail`).
    pub fn deliver_mail(&self, site: SiteId, uid: u32, body: &str) -> SysResult<()> {
        self.span("fs.deliver_mail", || {
            locus_fs::ops::namei::deliver_mail(self.c.fs(), site, uid, body)
        })
    }

    /// Reads and parses a mailbox; the live message bodies.
    pub fn read_mailbox(&self, pid: Pid, uid: u32) -> SysResult<Vec<String>> {
        let bytes = self.cat(pid, &format!("/mail/u{uid}"))?;
        Ok(Mailbox::parse(&bytes)?
            .live()
            .map(|m| m.body.clone())
            .collect())
    }

    /// Drains background propagation.
    pub fn settle(&self) {
        self.counted("fs.settle", || self.c.settle())
    }

    /// The full reconfiguration procedure, under a span named `name`.
    pub fn reconfigure(&self, name: &'static str) -> SysResult<ReconfigReport> {
        self.counted(name, || self.c.reconfigure())
    }

    /// The LOCUS `run` call.
    pub fn run(&self, pid: Pid, path: &str, advice: &[SiteId]) -> SysResult<Pid> {
        self.counted("proc.run", || self.c.run(pid, path, advice))
    }

    /// `exit`.
    pub fn exit(&self, pid: Pid, code: i32) -> SysResult<()> {
        self.span("proc.exit", || self.c.exit(pid, code))
    }

    /// `wait`.
    pub fn wait(&self, pid: Pid) -> SysResult<Option<(Pid, ExitStatus)>> {
        self.span("proc.wait", || self.c.wait(pid))
    }

    /// Where a process executes.
    pub fn site_of(&self, pid: Pid) -> SysResult<SiteId> {
        self.span("proc.site_of", || self.c.site_of(pid))
    }

    /// Begins a top-level transaction.
    pub fn txn_begin(&self, pid: Pid) -> SysResult<TxnId> {
        self.span("txn.begin", || self.c.txn_begin(pid))
    }

    /// Stages a whole-file write in a transaction.
    pub fn txn_write(&self, tid: TxnId, pid: Pid, path: &str, data: &[u8]) -> SysResult<()> {
        self.span("txn.write", || self.c.txn_write(tid, pid, path, data))
    }

    /// Commits a transaction.
    pub fn txn_commit(&self, tid: TxnId) -> SysResult<()> {
        self.counted("txn.commit", || self.c.txn_commit(tid))
    }

    /// Aborts a transaction.
    pub fn txn_abort(&self, tid: TxnId) -> SysResult<()> {
        self.span("txn.abort", || self.c.txn_abort(tid))
    }
}

/// Why an operation failed.
pub enum Fail {
    /// A fault of the program the benchmark knows and counts, by name.
    Known(&'static str, String),
    /// Anything else: a wrong output or an unexpected error.
    Unexpected(String),
}

/// Turns an unexpected system-call error into a failure.
pub fn bad<E: std::fmt::Debug>(what: &str) -> impl FnOnce(E) -> Fail + '_ {
    move |e| Fail::Unexpected(format!("{what}: {e:?}"))
}

/// Name under which unexpected failures are counted.
pub const UNEXPECTED: &str = "unexpected";

/// Per-operation samples and outcome counts.
#[derive(Default)]
pub struct Recorder {
    /// Host time of each completed operation, ns.
    pub host_ns: Vec<f64>,
    /// Virtual time of each completed operation, µs.
    pub vt_us: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations by cause.
    pub failed: BTreeMap<&'static str, u64>,
    /// The first few failure descriptions per cause.
    pub examples: BTreeMap<&'static str, Vec<String>>,
    /// Normalised host time of sampled `Net::reachable` calls, ns (traced run).
    pub reach_ns: Vec<f64>,
    next_op: u64,
}

/// Site pairs timed per topology phase.
const REACH_PAIRS: u32 = 64;

impl Recorder {
    /// Runs one operation under an `op.*` span and records its outcome.
    pub fn op(&mut self, sys: &Sys, name: &'static str, f: impl FnOnce() -> Result<(), Fail>) {
        self.next_op += 1;
        self.attempted += 1;
        sys.tr.set_op(self.next_op);
        let vt0 = sys.net().now();
        let t0 = sys.tr.now_ns();
        let out = sys.tr.span(sys.net(), name, false, f);
        let host = sys.tr.now_ns() - t0;
        let vt = (sys.net().now() - vt0).0 as f64;
        sys.tr.set_op(0);
        sys.tr.maybe_sample();
        match out {
            Ok(()) => {
                self.host_ns.push(host);
                self.vt_us.push(vt);
            }
            Err(Fail::Known(cause, why)) => self.fail(cause, why),
            Err(Fail::Unexpected(why)) => self.fail(UNEXPECTED, why),
        }
    }

    /// Counts a failure found outside an operation's own call (e.g. by a
    /// check after a merge) against the operations.
    pub fn fail(&mut self, cause: &'static str, why: String) {
        *self.failed.entry(cause).or_default() += 1;
        let ex = self.examples.entry(cause).or_default();
        if ex.len() < 3 {
            ex.push(why);
        }
    }

    /// In the traced run, times single `Net::reachable` calls over fixed
    /// site pairs in the current topology, outside the measured window.
    pub fn sample_reachable(&mut self, sys: &Sys, win: &mut Window) {
        if !sys.tr.on() {
            return;
        }
        win.pause(sys.c, sys.tr);
        let n = sys.c.site_count() as u32;
        for i in 0..REACH_PAIRS {
            let (a, b) = (SiteId(i * 37 % n), SiteId((i * 101 + 7) % n));
            let t0 = sys.tr.now_ns();
            std::hint::black_box(sys.net().reachable(a, b));
            self.reach_ns.push(sys.tr.now_ns() - t0);
        }
        win.resume(sys.c, sys.tr);
    }

    /// Total failed operations.
    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    /// Operations that completed.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed_total()
    }
}

/// The counters the benchmark reads from the program, summed over the
/// measured segments of the run (checks between segments are excluded).
#[derive(Default)]
pub struct Window {
    /// Normalised host time measured.
    pub host_ns: f64,
    /// Virtual time measured, µs.
    pub vt_us: u64,
    /// Messages sent.
    pub sends: u64,
    /// Bytes sent.
    pub bytes: u64,
    /// Messages sent per service.
    pub service_sends: BTreeMap<&'static str, u64>,
    /// Cache counter deltas.
    pub cache: CacheStats,
    seg: Option<(f64, u64, NetStats, CacheStats)>,
}

fn cache_delta(now: &CacheStats, then: &CacheStats) -> CacheStats {
    CacheStats {
        hits: now.hits - then.hits,
        misses: now.misses - then.misses,
        invalidations: now.invalidations - then.invalidations,
        dentry_hits: now.dentry_hits - then.dentry_hits,
        dentry_misses: now.dentry_misses - then.dentry_misses,
        attr_hits: now.attr_hits - then.attr_hits,
        attr_misses: now.attr_misses - then.attr_misses,
        name_invalidations: now.name_invalidations - then.name_invalidations,
        dir_deep_copies: now.dir_deep_copies - then.dir_deep_copies,
        lease_grants: now.lease_grants - then.lease_grants,
        lease_hits: now.lease_hits - then.lease_hits,
        lease_recalls: now.lease_recalls - then.lease_recalls,
        lease_recall_acks: now.lease_recall_acks - then.lease_recall_acks,
        lease_revokes: now.lease_revokes - then.lease_revokes,
    }
}

impl Window {
    /// Starts a measured segment.
    pub fn resume(&mut self, c: &Cluster, tr: &Tracer) {
        assert!(self.seg.is_none(), "segment already running");
        let stats = c.net().stats();
        let cache = c.fs().cache_stats();
        let vt = c.net().now().0;
        self.seg = Some((tr.now_ns(), vt, stats, cache));
    }

    /// Ends the measured segment and adds its deltas.
    pub fn pause(&mut self, c: &Cluster, tr: &Tracer) {
        let (t0, vt0, s0, c0) = self.seg.take().expect("segment running");
        self.host_ns += tr.now_ns() - t0;
        self.vt_us += c.net().now().0 - vt0;
        let s1 = c.net().stats();
        self.sends += s1.total_sends() - s0.total_sends();
        self.bytes += s1.total_bytes() - s0.total_bytes();
        for (svc, st) in s1.services() {
            *self.service_sends.entry(svc).or_default() += st.sends - s0.service(svc).sends;
        }
        let d = cache_delta(&c.fs().cache_stats(), &c0);
        self.cache.merge(&d);
    }
}
