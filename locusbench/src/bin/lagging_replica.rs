//! Stand-alone reproduction of the lagging-replica fault counted by the
//! `build_64` canary.
//!
//! On a filegroup with two containers, a file that changes twice
//! between two `settle` calls, the later change growing it past a
//! page boundary, reaches the second container torn: its replica pulls
//! only the pages the *first* change listed, yet records the newest
//! version, so the later notification is skipped and the new pages stay
//! zero or stale. Reads served from that container return wrong bytes.
//!
//! ```text
//! cargo run --release --offline --manifest-path locusbench/Cargo.toml --bin lagging_replica
//! ```
//!
//! Exits 0 when every read is right (the fault is mended) and 1 while
//! the fault stands.

use std::process::ExitCode;

use locus::{Cluster, OpenMode, Pid, SiteId};

fn bytes(len: usize, tag: u8) -> Vec<u8> {
    (0..len)
        .map(|i| tag.wrapping_add((i % 251) as u8))
        .collect()
}

/// The storage site that serves `pid`'s open of `path`.
fn served_by(c: &Cluster, pid: Pid, path: &str) -> SiteId {
    let fd = c.open(pid, path, OpenMode::Read).expect("open");
    let ss = c.fd_storage_site(pid, fd).expect("storage site");
    c.close(pid, fd).expect("close");
    ss
}

fn main() -> ExitCode {
    // Sites 1 and 2 hold the filegroup mounted at /fg; site 3 writes.
    let c = Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0])
        .filegroup_mounted("fg", &[1, 2], "/fg")
        .build();
    let p: Vec<Pid> = (0..4)
        .map(|s| c.login(SiteId(s), 100 + s).expect("login"))
        .collect();
    let mut wrong = 0;

    // A file written at 600 bytes and then at 2600 before a settle.
    let want = bytes(2600, 2);
    c.write_file(p[3], "/fg/file", &bytes(600, 1))
        .expect("write");
    c.write_file(p[3], "/fg/file", &want).expect("write");
    c.settle();
    for s in [1, 2] {
        let got = c.read_file(p[s], "/fg/file").expect("read");
        let ok = got == want;
        let at = served_by(&c, p[s], "/fg/file");
        println!(
            "file read at site {s} (served by {at:?}): {}",
            if ok {
                "right".to_owned()
            } else {
                let first = got
                    .iter()
                    .zip(&want)
                    .position(|(a, b)| a != b)
                    .unwrap_or(got.len());
                format!("WRONG from byte {first} of {}", want.len())
            }
        );
        wrong += usize::from(!ok);
    }

    if wrong == 0 {
        println!("lagging-replica fault not reproduced");
        ExitCode::SUCCESS
    } else {
        println!("lagging-replica fault reproduced: {wrong} wrong result(s)");
        ExitCode::FAILURE
    }
}
