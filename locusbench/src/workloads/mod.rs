//! The workloads. Each is a closed loop, one simulated user per site and
//! one operation in flight, made of whole rounds of a fixed number of
//! operations, driven through the public `locus::Cluster` surface.
//!
//! The generators obey one rule the program's lagging-replica fault
//! forces on them (see the README): between two `settle` calls each file,
//! directory and mailbox changes at most once. Random mixes that broke
//! the rule failed on some seeds and not others; the fault is instead
//! counted on fixed inputs by `build_64`'s canary.

use std::collections::BTreeSet;

use locus::{Cluster, Pid, SiteId};
use locus_net::SimRng;

use crate::harness::{bad, Fail, Recorder, Sys, Window};
use crate::model::Model;
use crate::trace::Tracer;

pub mod build;
pub mod interactive;
pub mod partition;

/// One workload: a cluster in a known state plus the generator's model.
pub trait Workload {
    /// Builds, seeds and warms the cluster.
    fn setup(seed: u64, tr: &Tracer) -> Self
    where
        Self: Sized;
    /// The cluster under test.
    fn cluster(&self) -> &Cluster;
    /// Rounds per measured second, sized on the reference host. The
    /// round count depends on `--seconds` only, never on the host, so
    /// the same seed gives the same operations, virtual times and
    /// messages.
    const ROUNDS_PER_S: f64;
    /// Operations attempted per round (the same in every round).
    const OPS_PER_ROUND: usize;
    /// Runs round `r` with `win` measuring (the round pauses it around
    /// its own checks).
    fn round(&mut self, r: usize, tr: &Tracer, rec: &mut Recorder, win: &mut Window);
    /// After the final settle: reads every file at each of its container
    /// sites and lists every directory; the problems found.
    fn end_check(&mut self, tr: &Tracer) -> Vec<String>;
}

/// Set-up's settle, which also lets the host clock refresh its speed
/// estimate.
pub fn settle_setup(c: &Cluster, tr: &Tracer) {
    c.settle();
    tr.maybe_sample();
}

/// `len` seeded bytes.
pub fn body(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// One login per site (uid 100 + site).
pub fn logins(c: &Cluster) -> Vec<Pid> {
    (0..c.site_count() as u32)
        .map(|s| c.login(SiteId(s), 100 + s).expect("login"))
        .collect()
}

/// Objects changed since the last settle. A generator that wants to
/// change one of them again picks another object or another operation.
#[derive(Default)]
pub struct Touched(BTreeSet<String>);

impl Touched {
    /// Claims `obj` for a change; false if it already changed.
    pub fn claim(&mut self, obj: &str) -> bool {
        if self.0.contains(obj) {
            return false;
        }
        self.0.insert(obj.to_owned());
        true
    }

    /// A settle ran.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// The parent directory of an absolute path.
pub fn parent(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

/// Whole-file read checked against the model.
pub fn checked_cat(sys: &Sys, model: &Model, pid: Pid, path: &str) -> Result<(), Fail> {
    let got = sys.cat(pid, path).map_err(bad(path))?;
    model.check_read(path, &got).map_err(Fail::Unexpected)
}

/// Directory listing checked against the model.
pub fn checked_ls(sys: &Sys, model: &Model, pid: Pid, dir: &str) -> Result<(), Fail> {
    let got = sys.readdir(pid, dir).map_err(bad(dir))?;
    model.check_dir(dir, &got).map_err(Fail::Unexpected)
}

/// `stat` checked against the model's length.
pub fn checked_stat(sys: &Sys, model: &Model, pid: Pid, path: &str) -> Result<(), Fail> {
    let info = sys.stat(pid, path).map_err(bad(path))?;
    model.check_size(path, info.size).map_err(Fail::Unexpected)
}

/// Reads every model file at each of `containers(path)`'s sites, lists
/// every directory and mailbox at the first container, and checks that
/// conflict-marked files refuse to open.
pub fn end_state(
    sys: &Sys,
    model: &Model,
    users: &[Pid],
    containers: impl Fn(&str) -> Vec<u32>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut note = |r: Result<(), Fail>| {
        if let Err(Fail::Unexpected(why) | Fail::Known(_, why)) = r {
            problems.push(why);
        }
    };
    for path in model.files.keys() {
        for s in containers(path) {
            note(checked_cat(sys, model, users[s as usize], path));
        }
    }
    for dir in model.dirs.keys() {
        let s = containers(&format!("{dir}/x"))[0];
        note(checked_ls(sys, model, users[s as usize], dir));
    }
    for &uid in model.mail.keys() {
        let s = containers(&format!("/mail/u{uid}"))[0];
        note(
            sys.read_mailbox(users[s as usize], uid)
                .map_err(bad("mailbox"))
                .and_then(|got| model.check_mail(uid, &got).map_err(Fail::Unexpected)),
        );
    }
    for path in &model.conflicts {
        for s in containers(path) {
            note(match sys.open_probe(users[s as usize], path) {
                Err(locus::Errno::Econflict) => Ok(()),
                other => Err(Fail::Unexpected(format!(
                    "{path}: open gave {other:?}, want Econflict"
                ))),
            });
        }
    }
    problems
}
