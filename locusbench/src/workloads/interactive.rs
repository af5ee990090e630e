//! `interactive_16`: 16 sites, four two-container shards, the name cache
//! with leases. Users mostly look things up and read; a few overwrites
//! force lease recalls.

use std::collections::BTreeMap;

use locus::{Cluster, Gfid, Pid};
use locus_net::SimRng;

use super::{
    body, checked_cat, checked_ls, checked_stat, end_state, logins, parent, settle_setup, Touched,
    Workload,
};
use crate::harness::{bad, Fail, Recorder, Sys, Window};
use crate::model::Model;
use crate::trace::Tracer;

const SITES: u32 = 16;
const SHARDS: u32 = 4;
const DIRS: u32 = 4;
const FILES: u32 = 6;
/// Operations per round; the round ends with a settle.
const OPS: usize = 64;

fn containers(shard: u32) -> [u32; 2] {
    [1 + shard, 1 + shard + SITES / 2]
}

/// Interactive users: commands of a shell session.
pub struct Interactive {
    c: Cluster,
    st: State,
}

struct State {
    rng: SimRng,
    users: Vec<Pid>,
    model: Model,
    files: Vec<String>,
    gfids: BTreeMap<String, Gfid>,
    touched: Touched,
}

fn file_len(rng: &mut SimRng) -> usize {
    rng.gen_range(1000..2560)
}

impl Workload for Interactive {
    fn setup(seed: u64, tr: &Tracer) -> Self {
        let mut b = Cluster::builder()
            .vax_sites(SITES as usize)
            .name_leases(true)
            .filegroup("root", &[0, SITES / 2]);
        for k in 0..SHARDS {
            b = b.filegroup_mounted(&format!("s{k}"), &containers(k), &format!("/s{k}"));
        }
        let c = b.build();
        let users = logins(&c);
        let mut st = State {
            rng: SimRng::seed_from_u64(seed ^ 0x1_0000),
            users,
            model: Model::default(),
            files: Vec::new(),
            gfids: BTreeMap::new(),
            touched: Touched::default(),
        };
        let admin = st.users[0];
        for k in 0..SHARDS {
            st.model.mkdir(&format!("/s{k}"));
            let home = format!("/s{k}/home");
            c.mkdir(admin, &home).expect("mkdir");
            st.model.mkdir(&home);
            for d in 0..DIRS {
                let dir = format!("{home}/d{d}");
                c.mkdir(admin, &dir).expect("mkdir");
                st.model.mkdir(&dir);
                for f in 0..FILES {
                    let path = format!("{dir}/f{f}");
                    let len = file_len(&mut st.rng);
                    let data = body(&mut st.rng, len);
                    c.write_file(admin, &path, &data).expect("seed file");
                    settle_setup(&c, tr);
                    st.model.put(&path, data);
                    st.gfids
                        .insert(path.clone(), c.resolve(admin, &path).expect("resolve"));
                    st.files.push(path);
                }
            }
        }
        settle_setup(&c, tr);
        // Warm the working set: every user resolves, stats and reads
        // every file, filling its name cache and taking its leases.
        for &u in &st.users {
            tr.maybe_sample();
            for path in &st.files {
                c.stat(u, path).expect("warm stat");
                c.read_file(u, path).expect("warm read");
            }
        }
        Interactive { c, st }
    }

    fn cluster(&self) -> &Cluster {
        &self.c
    }

    const ROUNDS_PER_S: f64 = 800.0;
    const OPS_PER_ROUND: usize = OPS;

    fn round(&mut self, r: usize, tr: &Tracer, rec: &mut Recorder, _win: &mut Window) {
        let sys = &Sys { c: &self.c, tr };
        for j in 0..OPS {
            let u = self.st.users[(r * OPS + j) % SITES as usize];
            self.st.one_op(sys, rec, u);
        }
        sys.settle();
        self.st.touched.clear();
    }

    fn end_check(&mut self, tr: &Tracer) -> Vec<String> {
        let sys = &Sys { c: &self.c, tr };
        end_state(sys, &self.st.model, &self.st.users, |path| {
            match path
                .strip_prefix("/s")
                .and_then(|p| p.split('/').next())
                .and_then(|k| k.parse().ok())
            {
                Some(k) => containers(k).to_vec(),
                None => vec![0, SITES / 2],
            }
        })
    }
}

impl State {
    fn one_op(&mut self, sys: &Sys, rec: &mut Recorder, u: Pid) {
        let roll = self.rng.gen_range(0..100u32);
        let path = self.files[self.rng.gen_range(0..self.files.len())].clone();
        let model = &self.model;
        match roll {
            // `cat`: the shell stats the file, then reads it.
            0..=49 => rec.op(sys, "op.cat", || {
                checked_stat(sys, model, u, &path)?;
                checked_cat(sys, model, u, &path)
            }),
            // `which`: a 4-deep lookup, then a stat of what it found.
            50..=69 => rec.op(sys, "op.which", || {
                let g = sys.resolve(u, &path).map_err(bad(&path))?;
                if g != self.gfids[&path] {
                    return Err(Fail::Unexpected(format!("{path}: resolved to {g:?}")));
                }
                checked_stat(sys, model, u, &path)
            }),
            // `ls`: a directory listing.
            70..=84 => rec.op(sys, "op.ls", || checked_ls(sys, model, u, parent(&path))),
            // `stat`.
            85..=94 => rec.op(sys, "op.stat", || checked_stat(sys, model, u, &path)),
            // Overwrite at a new length: recalls every holder's lease.
            _ => {
                let path = self.untouched_file(&path);
                let len = file_len(&mut self.rng);
                let data = body(&mut self.rng, len);
                let model = &mut self.model;
                rec.op(sys, "op.edit", || {
                    sys.write_file(u, &path, &data).map_err(bad(&path))?;
                    model.put(&path, data);
                    Ok(())
                });
            }
        }
    }

    /// `path`, or the next file after it that has not changed since the
    /// last settle.
    fn untouched_file(&mut self, path: &str) -> String {
        let start = self
            .files
            .iter()
            .position(|f| f == path)
            .expect("known file");
        for i in 0..self.files.len() {
            let f = &self.files[(start + i) % self.files.len()];
            if self.touched.claim(f) {
                return f.clone();
            }
        }
        unreachable!("fewer edits per round than files")
    }
}
