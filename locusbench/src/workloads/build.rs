//! `build_64`: 64 sites, eight two-container shards, the builder's
//! default paper-faithful path. Users create and unlink temporaries in
//! shared per-shard directories, overwrite sources at varying lengths and
//! read them back, list directories, `run` a load module on an advised
//! remote site and reap it, and commit small two-file transactions.
//! Every round ends with the lagging-replica canary.

use locus::{Cluster, Errno, Pid, SiteId};
use locus_net::SimRng;

use super::{
    body, checked_cat, checked_ls, checked_stat, end_state, logins, settle_setup, Touched, Workload,
};
use crate::harness::{bad, Fail, Recorder, Sys, Window};
use crate::model::{Model, TxnRec, TxnVerdict};
use crate::trace::Tracer;

const SITES: u32 = 64;
const SHARDS: u32 = 8;
const SRC_FILES: u32 = 8;
const ACCOUNTS: u32 = 4;
/// Operations between two settles; a round is `INTERVALS` of them plus
/// the three canary operations.
const INTERVAL: usize = 32;
const INTERVALS: usize = 3;
/// The canary: a file in shard 0 written twice between settles, the
/// second time longer, then read at the shard's second container.
const CANARY: &str = "/s0/canary";
/// Name under which the canary's failed reads are counted.
pub const LAGGING_REPLICA: &str = "lagging-replica";

fn containers(shard: u32) -> [u32; 2] {
    [1 + shard, 1 + shard + SITES / 2]
}

fn shard_of(path: &str) -> Option<u32> {
    path.strip_prefix("/s")?.split('/').next()?.parse().ok()
}

/// The build farm.
pub struct Build {
    c: Cluster,
    st: State,
}

struct State {
    rng: SimRng,
    users: Vec<Pid>,
    model: Model,
    /// Live temporaries per shard, oldest first.
    temps: Vec<Vec<String>>,
    next_temp: u64,
    touched: Touched,
}

/// The canary's bytes for one write of round `r`: independent of the
/// benchmark seed, distinct for every round and step.
fn canary_bytes(r: usize, step: u8, len: usize) -> Vec<u8> {
    body(
        &mut SimRng::seed_from_u64(((r as u64) << 8) | u64::from(step)),
        len,
    )
}

impl Workload for Build {
    fn setup(seed: u64, tr: &Tracer) -> Self {
        let mut b = Cluster::builder()
            .vax_sites(SITES as usize)
            .filegroup("root", &[0, SITES / 2]);
        for k in 0..SHARDS {
            b = b.filegroup_mounted(&format!("s{k}"), &containers(k), &format!("/s{k}"));
        }
        let c = b.build();
        let users = logins(&c);
        let mut st = State {
            rng: SimRng::seed_from_u64(seed ^ 0x2_0000),
            users,
            model: Model::default(),
            temps: vec![Vec::new(); SHARDS as usize],
            next_temp: 0,
            touched: Touched::default(),
        };
        let admin = st.users[0];
        // The compiler: a hidden directory with a VAX load module (§2.4.1).
        c.mkdir(admin, "/bin").expect("mkdir /bin");
        c.mk_hidden_dir(admin, "/bin/cc").expect("hidden dir");
        c.write_file(admin, "/bin/cc@/vax", &[0xCC; 4096])
            .expect("load module");
        settle_setup(&c, tr);
        st.model.mkdir("/bin");
        st.model
            .dirs
            .get_mut("/bin")
            .expect("bin")
            .insert("cc".into());
        for k in 0..SHARDS {
            st.model.mkdir(&format!("/s{k}"));
            for d in ["src", "tmp", "acct"] {
                let dir = format!("/s{k}/{d}");
                c.mkdir(admin, &dir).expect("mkdir");
                st.model.mkdir(&dir);
            }
            settle_setup(&c, tr);
            for f in 0..SRC_FILES {
                let path = format!("/s{k}/src/f{f}");
                let len = st.rng.gen_range(1000..2560);
                st.put_now(&c, tr, admin, &path, len);
            }
            for a in 0..ACCOUNTS {
                let path = format!("/s{k}/acct/a{a}");
                let len = st.rng.gen_range(64..200);
                st.put_now(&c, tr, admin, &path, len);
            }
        }
        let canary = canary_bytes(usize::MAX, 0, 2600);
        c.write_file(admin, CANARY, &canary).expect("canary");
        settle_setup(&c, tr);
        st.model.put(CANARY, canary);
        // Warm: every user reads every source once.
        for &u in &st.users {
            tr.maybe_sample();
            for k in 0..SHARDS {
                c.read_file(u, &format!("/s{k}/src/f{}", u.0 % SRC_FILES as u64))
                    .expect("warm read");
            }
        }
        Build { c, st }
    }

    fn cluster(&self) -> &Cluster {
        &self.c
    }

    const ROUNDS_PER_S: f64 = 28.0;
    const OPS_PER_ROUND: usize = INTERVAL * INTERVALS + 3;

    fn round(&mut self, r: usize, tr: &Tracer, rec: &mut Recorder, _win: &mut Window) {
        let sys = &Sys { c: &self.c, tr };
        let ops = INTERVAL * INTERVALS;
        for j in 0..ops {
            let u = self.st.users[(r * ops + j) % SITES as usize];
            self.st.one_op(sys, rec, u);
            if j % INTERVAL == INTERVAL - 1 && j != ops - 1 {
                sys.settle();
                self.st.touched.clear();
            }
        }
        self.st.canary(r, sys, rec);
    }

    fn end_check(&mut self, tr: &Tracer) -> Vec<String> {
        let sys = &Sys { c: &self.c, tr };
        // The canary file is wrong at its lagging replica by design; its
        // reads are already counted.
        self.st.model.files.remove(CANARY);
        end_state(sys, &self.st.model, &self.st.users, |p| match shard_of(p) {
            Some(k) => containers(k).to_vec(),
            None => vec![0, SITES / 2],
        })
    }
}

impl State {
    fn put_now(&mut self, c: &Cluster, tr: &Tracer, pid: Pid, path: &str, len: usize) {
        let data = body(&mut self.rng, len);
        c.write_file(pid, path, &data).expect("seed file");
        settle_setup(c, tr);
        self.model.put(path, data);
    }

    fn one_op(&mut self, sys: &Sys, rec: &mut Recorder, u: Pid) {
        let roll = self.rng.gen_range(0..100u32);
        let k = self.rng.gen_range(0..SHARDS);
        let src = format!("/s{k}/src/f{}", self.rng.gen_range(0..SRC_FILES));
        match roll {
            0..=21 => rec.op(sys, "op.readback", || {
                checked_cat(sys, &self.model, u, &src)
            }),
            22..=39 => {
                if !self.touched.claim(&src) {
                    return rec.op(sys, "op.readback", || {
                        checked_cat(sys, &self.model, u, &src)
                    });
                }
                let len = self.rng.gen_range(1000..2560);
                let data = body(&mut self.rng, len);
                let model = &mut self.model;
                rec.op(sys, "op.overwrite", || {
                    sys.write_file(u, &src, &data).map_err(bad(&src))?;
                    model.put(&src, data);
                    Ok(())
                });
            }
            40..=54 => self.temp_op(sys, rec, u, k, true),
            55..=66 => self.temp_op(sys, rec, u, k, false),
            67..=76 => {
                let dir = if roll.is_multiple_of(2) {
                    format!("/s{k}/src")
                } else {
                    format!("/s{k}/tmp")
                };
                rec.op(sys, "op.ls", || checked_ls(sys, &self.model, u, &dir));
            }
            77..=84 => rec.op(sys, "op.stat", || checked_stat(sys, &self.model, u, &src)),
            85..=94 => {
                let site = sys.c.site_of(u).expect("user site").0;
                let to = SiteId((site + 1 + self.rng.gen_range(0..SITES - 1)) % SITES);
                rec.op(sys, "op.run", || run_job(sys, u, to));
            }
            _ => self.txn_op(sys, rec, u, k),
        }
    }

    fn temp_op(&mut self, sys: &Sys, rec: &mut Recorder, u: Pid, k: u32, create: bool) {
        let dir = format!("/s{k}/tmp");
        if !self.touched.claim(&dir) {
            let src = format!("/s{k}/src/f{}", self.rng.gen_range(0..SRC_FILES));
            return rec.op(sys, "op.readback", || {
                checked_cat(sys, &self.model, u, &src)
            });
        }
        let temps = &mut self.temps[k as usize];
        if create || temps.is_empty() {
            self.next_temp += 1;
            let path = format!("{dir}/t{}", self.next_temp);
            let len = self.rng.gen_range(200..3000);
            let data = body(&mut self.rng, len);
            let model = &mut self.model;
            rec.op(sys, "op.mktemp", || {
                sys.write_file(u, &path, &data).map_err(bad(&path))?;
                model.put(&path, data);
                Ok(())
            });
            self.temps[k as usize].push(path);
        } else {
            let path = temps.remove(0);
            let model = &mut self.model;
            rec.op(sys, "op.rmtemp", || {
                sys.unlink(u, &path).map_err(bad(&path))?;
                model.remove(&path);
                Ok(())
            });
        }
    }

    fn txn_op(&mut self, sys: &Sys, rec: &mut Recorder, u: Pid, k: u32) {
        let k2 = (k + 1 + self.rng.gen_range(0..SHARDS - 1)) % SHARDS;
        let a = self.rng.gen_range(0..ACCOUNTS);
        let x = format!("/s{k}/acct/a{a}");
        let y = format!("/s{k2}/acct/a{a}");
        if !self.touched.claim(&x) || !self.touched.claim(&y) {
            return rec.op(sys, "op.stat", || checked_stat(sys, &self.model, u, &x));
        }
        let mut rec_files = Vec::new();
        for p in [&x, &y] {
            let len = self.rng.gen_range(64..200);
            rec_files.push((
                p.clone(),
                self.model.files[p].clone(),
                body(&mut self.rng, len),
            ));
        }
        let t = TxnRec { files: rec_files };
        let model = &mut self.model;
        rec.op(sys, "op.txn", || {
            let tid = sys.txn_begin(u).map_err(bad("txn_begin"))?;
            for (p, _, after) in &t.files {
                sys.txn_write(tid, u, p, after).map_err(bad(p))?;
            }
            let committed = sys.txn_commit(tid);
            let observed: Vec<Vec<u8>> = t
                .files
                .iter()
                .map(|(p, _, _)| sys.cat(u, p))
                .collect::<Result<_, Errno>>()
                .map_err(bad("txn readback"))?;
            let verdict = t.verdict(&observed).map_err(Fail::Unexpected)?;
            for ((p, _, _), got) in t.files.iter().zip(&observed) {
                model.put(p, got.clone());
            }
            match (committed, verdict) {
                (Ok(()), TxnVerdict::Committed) => Ok(()),
                (c, v) => Err(Fail::Unexpected(format!(
                    "txn on {x} and {y}: commit {c:?}, files {v:?}"
                ))),
            }
        });
    }

    /// Writes the canary twice (the second time longer), settles, and
    /// reads it at the second container, which misses the intermediate
    /// version's length change. Inputs depend on the round only.
    fn canary(&mut self, r: usize, sys: &Sys, rec: &mut Recorder) {
        let writer = self.users[3];
        let reader = self.users[containers(0)[1] as usize];
        for (step, len) in [(1u8, 600usize), (2, 2600)] {
            let data = canary_bytes(r, step, len);
            let model = &mut self.model;
            rec.op(sys, "op.canary_write", || {
                sys.write_file(writer, CANARY, &data).map_err(bad(CANARY))?;
                model.put(CANARY, data);
                Ok(())
            });
        }
        sys.settle();
        self.touched.clear();
        rec.op(sys, "op.canary_read", || {
            let got = sys.cat(reader, CANARY).map_err(bad(CANARY))?;
            self.model
                .check_read(CANARY, &got)
                .map_err(|why| Fail::Known(LAGGING_REPLICA, why))
        });
    }
}

/// `run` the compiler on `to`, check where it landed, `exit` it and reap
/// it with `wait`.
fn run_job(sys: &Sys, u: Pid, to: SiteId) -> Result<(), Fail> {
    let job = sys.run(u, "/bin/cc", &[to]).map_err(bad("run"))?;
    let at = sys.site_of(job).map_err(bad("site_of"))?;
    sys.exit(job, 0).map_err(bad("exit"))?;
    match sys.wait(u).map_err(bad("wait"))? {
        Some((pid, _)) if pid == job && at == to => Ok(()),
        other => Err(Fail::Unexpected(format!(
            "run on {to:?}: ran at {at:?}, wait gave {other:?}"
        ))),
    }
}
