//! `partition_256`: 256 sites split into two halves of 128. The root and
//! every shard have a container in each half; the vault filegroup lives
//! in the second half only. Users keep a mail spool and edit and create
//! documents. Every round cuts the network in two, keeps both halves
//! working, heals it and merges, then checks the merged state.
//!
//! Each round stages two-filegroup transactions (a shard file plus a
//! vault file) before the cut and commits them after it from the first
//! half, which has no vault container.

use std::collections::BTreeSet;

use locus::{Cluster, Errno, Pid, SiteId};
use locus_net::SimRng;

use super::{body, checked_cat, checked_ls, end_state, logins, settle_setup, Touched, Workload};
use crate::harness::{bad, Fail, Recorder, Sys, Window, UNEXPECTED};
use crate::model::{Model, TxnRec, TxnVerdict};
use crate::trace::Tracer;

const SITES: u32 = 256;
const HALF: u32 = SITES / 2;
const SHARDS: u32 = 8;
const DOCS: u32 = 8;
const MAILBOXES: u32 = 16;
const VAULT: [u32; 2] = [HALF + 72, HALF + 73];
/// Transactions staged before each cut.
const TXNS: u32 = 2;
/// Documents created before each cut and edited on both sides of it.
const CONFLICTS: u32 = 2;
/// Random operations before the cut, and per half while split.
const PRE_OPS: usize = 64;
const SPLIT_OPS: usize = 96;
/// Operations between settles.
const INTERVAL: usize = 24;
/// The site in the first half that commits the transactions.
const COMMITTER: u32 = 5;
/// The user that creates the conflict documents (and gets the mail the
/// merge sends about them).
const AUTHOR: u32 = 1;
/// Name under which the partial top-level commits are counted.
pub const PARTIAL_COMMIT: &str = "partial-commit";

fn containers(path: &str) -> Vec<u32> {
    if path.starts_with("/vault") {
        return VAULT.to_vec();
    }
    match path
        .strip_prefix("/s")
        .and_then(|p| p.split('/').next())
        .and_then(|k| k.parse::<u32>().ok())
    {
        Some(k) => vec![1 + k, HALF + 1 + k],
        None => vec![0, HALF],
    }
}

/// The partitioned network.
pub struct Partition {
    c: Cluster,
    st: State,
}

struct State {
    rng: SimRng,
    users: Vec<Pid>,
    model: Model,
    docs: Vec<String>,
    mail_seq: u64,
}

/// `Side::half` before the cut: the whole network.
const WHOLE: u32 = 2;

/// One half's view while the network is split, or the whole network's.
struct Side {
    /// 0 or 1 while split, [`WHOLE`] before the cut.
    half: u32,
    model: Model,
    touched: Touched,
}

impl Workload for Partition {
    fn setup(seed: u64, tr: &Tracer) -> Self {
        let mut b = Cluster::builder()
            .vax_sites(SITES as usize)
            .filegroup("root", &[0, HALF]);
        for k in 0..SHARDS {
            b = b.filegroup_mounted(&format!("s{k}"), &[1 + k, HALF + 1 + k], &format!("/s{k}"));
        }
        let c = b.filegroup_mounted("vault", &VAULT, "/vault").build();
        let users = logins(&c);
        let mut st = State {
            rng: SimRng::seed_from_u64(seed ^ 0x3_0000),
            users,
            model: Model::default(),
            docs: Vec::new(),
            mail_seq: 0,
        };
        let admin = st.users[0];
        st.model.mkdir("/vault");
        for t in 0..TXNS {
            let dir = format!("/vault/t{t}");
            c.mkdir(admin, &dir).expect("mkdir");
            st.model.mkdir(&dir);
            settle_setup(&c, tr);
        }
        for k in 0..SHARDS {
            st.model.mkdir(&format!("/s{k}"));
            let dir = format!("/s{k}/docs");
            c.mkdir(admin, &dir).expect("mkdir");
            st.model.mkdir(&dir);
            settle_setup(&c, tr);
            for f in 0..DOCS {
                let path = format!("{dir}/d{f}");
                let len = st.rng.gen_range(800..2400);
                let data = body(&mut st.rng, len);
                c.write_file(admin, &path, &data).expect("seed doc");
                settle_setup(&c, tr);
                st.model.put(&path, data);
                st.docs.push(path);
            }
        }
        st.model.mkdir("/mail");
        for uid in 0..MAILBOXES {
            let msg = st.next_mail();
            locus_fs::ops::namei::deliver_mail(c.fs(), SiteId(0), uid, &msg).expect("first mail");
            settle_setup(&c, tr);
            st.model
                .dirs
                .get_mut("/mail")
                .expect("mail dir")
                .insert(format!("u{uid}"));
            st.model.deliver(uid, msg);
        }
        // Warm: every user reads one document.
        for (i, &u) in st.users.iter().enumerate() {
            c.read_file(u, &st.docs[i % st.docs.len()])
                .expect("warm read");
            tr.maybe_sample();
        }
        Partition { c, st }
    }

    fn cluster(&self) -> &Cluster {
        &self.c
    }

    const ROUNDS_PER_S: f64 = 1.5;
    const OPS_PER_ROUND: usize = SHARDS as usize
        + (CONFLICTS + 2 * TXNS) as usize
        + PRE_OPS
        + TXNS as usize
        + 2 * CONFLICTS as usize
        + TXNS as usize
        + 2 * SPLIT_OPS;

    fn round(&mut self, r: usize, tr: &Tracer, rec: &mut Recorder, win: &mut Window) {
        let sys = &Sys { c: &self.c, tr };
        let st = &mut self.st;
        let admin = st.users[AUTHOR as usize];
        // Before the cut: this round's directories, its conflict
        // documents and its transactions' files, then random work.
        let rdir = |k: u32| format!("/s{k}/r{r}");
        for k in 0..SHARDS {
            let dir = rdir(k);
            let model = &mut st.model;
            rec.op(sys, "op.mkdir", || {
                sys.mkdir(admin, &dir).map_err(bad(&dir))?;
                model.mkdir(&dir);
                Ok(())
            });
        }
        let conflicts: Vec<String> = (0..CONFLICTS).map(|i| format!("{}/c", rdir(i))).collect();
        let txn_files: Vec<(String, String)> = (0..TXNS)
            .map(|t| {
                (
                    format!("{}/x", rdir(CONFLICTS + t)),
                    format!("/vault/t{t}/r{r}"),
                )
            })
            .collect();
        let mut fresh: Vec<String> = conflicts.clone();
        fresh.extend(txn_files.iter().flat_map(|(a, b)| [a.clone(), b.clone()]));
        for path in &fresh {
            st.create(sys, rec, admin, path);
        }
        let mut whole = Side {
            half: WHOLE,
            model: std::mem::take(&mut st.model),
            touched: Touched::default(),
        };
        for j in 0..PRE_OPS {
            st.random_op(
                sys,
                rec,
                (r * PRE_OPS + j) % SITES as usize,
                &mut whole,
                r,
                j,
            );
            if j % INTERVAL == INTERVAL - 1 {
                sys.settle();
                whole.touched.clear();
            }
        }
        st.model = whole.model;
        let committer = st.users[COMMITTER as usize];
        let mut txns = Vec::new();
        for (x, v) in &txn_files {
            let t = TxnRec {
                files: [x, v]
                    .iter()
                    .map(|p| (p.to_string(), st.model.files[*p].clone(), txn_bytes(r, p)))
                    .collect(),
            };
            let mut tid = None;
            rec.op(sys, "op.txn_stage", || {
                let id = sys.txn_begin(committer).map_err(bad("txn_begin"))?;
                for (p, _, after) in &t.files {
                    sys.txn_write(id, committer, p, after).map_err(bad(p))?;
                }
                tid = Some(id);
                Ok(())
            });
            txns.push((tid, t));
        }
        sys.settle();

        // The cut.
        let halves: Vec<Vec<SiteId>> = [0..HALF, HALF..SITES]
            .into_iter()
            .map(|h| h.map(SiteId).collect())
            .collect();
        sys.c.partition(&halves);
        if let Err(e) = sys.reconfigure("reconfig.partition") {
            rec.fail(UNEXPECTED, format!("reconfigure after the cut: {e:?}"));
        }
        rec.sample_reachable(sys, win);
        let base = st.model.clone();
        let mut sides = [0, 1].map(|half| Side {
            half,
            model: base.clone(),
            touched: Touched::default(),
        });
        // Both sides edit the conflict documents once.
        for side in sides.iter_mut() {
            let u = st.users[(side.half * HALF + 2) as usize];
            for path in &conflicts {
                side.touched.claim(path);
                st.edit(sys, rec, u, path, &mut side.model);
            }
        }
        // The first half commits the staged transactions: the vault
        // participant has no container on this side.
        for (tid, t) in &txns {
            let Some(tid) = *tid else { continue };
            rec.op(sys, "op.txn_commit", || match sys.txn_commit(tid) {
                Ok(()) => Ok(()),
                Err(e) => {
                    sys.txn_abort(tid).map_err(bad("txn_abort"))?;
                    Err(Fail::Known(
                        PARTIAL_COMMIT,
                        format!("commit of {} and {}: {e:?}", t.files[0].0, t.files[1].0),
                    ))
                }
            });
        }
        for j in 0..2 * SPLIT_OPS {
            let side = &mut sides[j % 2];
            let ui = (side.half * HALF + ((r * SPLIT_OPS + j / 2) as u32 % HALF)) as usize;
            st.random_op(sys, rec, ui, side, r, j);
            if j % (2 * INTERVAL) == 2 * INTERVAL - 1 {
                sys.settle();
                sides.iter_mut().for_each(|s| s.touched.clear());
            }
        }
        sys.settle();

        // Heal and merge.
        sys.c.heal();
        if let Err(e) = sys.reconfigure("reconfig.merge") {
            rec.fail(UNEXPECTED, format!("reconfigure after the heal: {e:?}"));
        }
        sys.settle();
        rec.sample_reachable(sys, win);

        win.pause(sys.c, sys.tr);
        let [a, b] = sides;
        st.model = base.merged(&a.model, &b.model);
        for p in st.check_merge(sys, r, &base, [&a, &b], &conflicts, &txns) {
            rec.fail(UNEXPECTED, p);
        }
        win.resume(sys.c, sys.tr);
    }

    fn end_check(&mut self, tr: &Tracer) -> Vec<String> {
        let sys = &Sys { c: &self.c, tr };
        let mut model = self.st.model.clone();
        // The merge mails each conflict to its author; the spool file is
        // checked by the merge checks, not here.
        model
            .dirs
            .get_mut("/mail")
            .expect("mail dir")
            .insert(format!("u{}", 100 + AUTHOR));
        end_state(sys, &model, &self.st.users, containers)
    }
}

fn txn_bytes(r: usize, path: &str) -> Vec<u8> {
    format!("round {r} transaction update of {path}").into_bytes()
}

impl State {
    fn next_mail(&mut self) -> String {
        self.mail_seq += 1;
        format!("msg {} {:016x}", self.mail_seq, self.rng.next_u64())
    }

    fn create(&mut self, sys: &Sys, rec: &mut Recorder, u: Pid, path: &str) {
        let len = self.rng.gen_range(64..600);
        let data = body(&mut self.rng, len);
        let model = &mut self.model;
        rec.op(sys, "op.create", || {
            sys.write_file(u, path, &data).map_err(bad(path))?;
            model.put(path, data);
            Ok(())
        });
    }

    fn edit(&mut self, sys: &Sys, rec: &mut Recorder, u: Pid, path: &str, model: &mut Model) {
        let len = self.rng.gen_range(800..2400);
        let data = body(&mut self.rng, len);
        rec.op(sys, "op.edit", || {
            sys.write_file(u, path, &data).map_err(bad(path))?;
            model.put(path, data);
            Ok(())
        });
    }

    /// One random operation by user `ui` on `side`'s view. While split,
    /// each half edits only its own documents (by index parity).
    fn random_op(
        &mut self,
        sys: &Sys,
        rec: &mut Recorder,
        ui: usize,
        side: &mut Side,
        r: usize,
        j: usize,
    ) {
        let (u, site) = (self.users[ui], SiteId(ui as u32));
        let roll = self.rng.gen_range(0..100u32);
        let uid = self.rng.gen_range(0..MAILBOXES);
        let mbox = format!("/mail/u{uid}");
        // Deliveries go round the mailboxes, so every mailbox grows alike
        // whatever the seed.
        let to = (self.mail_seq % u64::from(MAILBOXES)) as u32;
        let to_box = format!("/mail/u{to}");
        let d = self.rng.gen_range(0..self.docs.len());
        let doc = self.docs[d].clone();
        match roll {
            0..=29 if side.touched.claim(&to_box) => {
                let msg = self.next_mail();
                let model = &mut side.model;
                rec.op(sys, "op.deliver", || {
                    sys.deliver_mail(site, to, &msg).map_err(bad(&to_box))?;
                    model.deliver(to, msg);
                    Ok(())
                });
            }
            0..=44 => rec.op(sys, "op.mailbox", || {
                let got = sys.read_mailbox(u, uid).map_err(bad(&mbox))?;
                side.model.check_mail(uid, &got).map_err(Fail::Unexpected)
            }),
            45..=64 => {
                let owned = side.half == WHOLE || d as u32 % 2 == side.half;
                if owned && side.touched.claim(&doc) {
                    self.edit(sys, rec, u, &doc, &mut side.model);
                } else {
                    rec.op(sys, "op.read", || checked_cat(sys, &side.model, u, &doc));
                }
            }
            65..=84 => rec.op(sys, "op.read", || checked_cat(sys, &side.model, u, &doc)),
            85..=94 if side.half != WHOLE => {
                let k = self.rng.gen_range(0..SHARDS);
                let dir = format!("/s{k}/r{r}");
                if side.touched.claim(&dir) {
                    let path = format!("{dir}/h{}_{j}", side.half);
                    let len = self.rng.gen_range(64..2000);
                    let data = body(&mut self.rng, len);
                    let model = &mut side.model;
                    rec.op(sys, "op.create", || {
                        sys.write_file(u, &path, &data).map_err(bad(&path))?;
                        model.put(&path, data);
                        Ok(())
                    });
                } else {
                    rec.op(sys, "op.ls", || checked_ls(sys, &side.model, u, &dir));
                }
            }
            _ => {
                let dir = format!("/s{}/docs", self.rng.gen_range(0..SHARDS));
                rec.op(sys, "op.ls", || checked_ls(sys, &side.model, u, &dir));
            }
        }
    }

    /// After the merge: one-sided updates and both halves' new entries
    /// are visible from both halves, two-sided updates are conflicts,
    /// every mail is present once, and each transaction is all or
    /// nothing (a torn one was already counted when its commit failed).
    fn check_merge(
        &mut self,
        sys: &Sys,
        r: usize,
        base: &Model,
        sides: [&Side; 2],
        conflicts: &[String],
        txns: &[(Option<locus::TxnId>, TxnRec)],
    ) -> Vec<String> {
        let mut problems = Vec::new();
        let readers = [
            self.users[(r * 7 + 3) % HALF as usize],
            self.users[HALF as usize + (r * 11 + 5) % HALF as usize],
        ];
        let changed: BTreeSet<String> = sides
            .iter()
            .flat_map(|s| s.model.files.iter())
            .filter(|(p, d)| base.files.get(*p) != Some(*d) && !self.model.conflicts.contains(*p))
            .map(|(p, _)| p.clone())
            .collect();
        for &u in &readers {
            for p in &changed {
                if let Err(Fail::Unexpected(why)) = checked_cat(sys, &self.model, u, p) {
                    problems.push(why);
                }
            }
            for p in conflicts {
                match sys.open_probe(u, p) {
                    Err(Errno::Econflict) => {}
                    other => problems.push(format!("{p}: open gave {other:?}, want Econflict")),
                }
            }
            for k in 0..SHARDS {
                if let Err(Fail::Unexpected(why)) =
                    checked_ls(sys, &self.model, u, &format!("/s{k}/r{r}"))
                {
                    problems.push(why);
                }
            }
        }
        for uid in 0..MAILBOXES {
            let u = readers[uid as usize % 2];
            match sys.read_mailbox(u, uid) {
                Ok(got) => {
                    if let Err(why) = self.model.check_mail(uid, &got) {
                        problems.push(why);
                    }
                }
                Err(e) => problems.push(format!("mailbox u{uid}: {e:?}")),
            }
        }
        for (_, t) in txns {
            let observed: Result<Vec<Vec<u8>>, Errno> = t
                .files
                .iter()
                .map(|(p, _, _)| sys.cat(readers[1], p))
                .collect();
            match observed
                .map_err(|e| format!("{e:?}"))
                .and_then(|o| t.verdict(&o).map(|v| (v, o)))
            {
                Ok((v, o)) => {
                    for ((p, _, _), got) in t.files.iter().zip(o) {
                        self.model.put(p, got);
                    }
                    if v == TxnVerdict::Committed {
                        problems.push(format!(
                            "transaction on {} committed without its vault participant",
                            t.files[0].0
                        ));
                    }
                }
                Err(why) => problems.push(format!("transaction on {}: {why}", t.files[0].0)),
            }
        }
        problems
    }
}
