//! The benchmark's own record of what the program should hold, kept
//! apart from the program: every write the generator issues that the
//! program acknowledged updates it, and every output the program gives
//! back is compared with it.

use std::collections::{BTreeMap, BTreeSet};

/// Committed contents as the generator wrote them.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// File path -> committed bytes.
    pub files: BTreeMap<String, Vec<u8>>,
    /// Directory path -> live entry names.
    pub dirs: BTreeMap<String, BTreeSet<String>>,
    /// Mailbox owner -> delivered message bodies, in delivery order.
    pub mail: BTreeMap<u32, Vec<String>>,
    /// Files updated on both sides of a partition: open must refuse them
    /// with `Econflict` until someone resolves them.
    pub conflicts: BTreeSet<String>,
}

fn split(path: &str) -> (&str, &str) {
    let i = path.rfind('/').expect("absolute path");
    (if i == 0 { "/" } else { &path[..i] }, &path[i + 1..])
}

impl Model {
    /// Records a new directory (and its entry in the parent).
    pub fn mkdir(&mut self, path: &str) {
        self.dirs.entry(path.to_owned()).or_default();
        let (parent, name) = split(path);
        self.dirs
            .entry(parent.to_owned())
            .or_default()
            .insert(name.to_owned());
    }

    /// Records a committed whole-file write (creating the entry).
    pub fn put(&mut self, path: &str, bytes: Vec<u8>) {
        let (parent, name) = split(path);
        self.dirs
            .entry(parent.to_owned())
            .or_default()
            .insert(name.to_owned());
        self.files.insert(path.to_owned(), bytes);
    }

    /// Records an unlink.
    pub fn remove(&mut self, path: &str) {
        let (parent, name) = split(path);
        if let Some(d) = self.dirs.get_mut(parent) {
            d.remove(name);
        }
        self.files.remove(path);
    }

    /// Records a delivered mail message.
    pub fn deliver(&mut self, uid: u32, body: String) {
        self.mail.entry(uid).or_default().push(body);
    }

    /// A whole-file read must return the committed bytes exactly.
    pub fn check_read(&self, path: &str, got: &[u8]) -> Result<(), String> {
        let want = self
            .files
            .get(path)
            .ok_or_else(|| format!("{path}: read of a file the model lacks"))?;
        if want.as_slice() == got {
            return Ok(());
        }
        let first = want
            .iter()
            .zip(got)
            .position(|(a, b)| a != b)
            .unwrap_or(want.len().min(got.len()));
        Err(format!(
            "{path}: read {} bytes, want {}, first difference at byte {first}",
            got.len(),
            want.len()
        ))
    }

    /// A stat must report the committed length.
    pub fn check_size(&self, path: &str, size: u64) -> Result<(), String> {
        match self.files.get(path) {
            Some(w) if w.len() as u64 == size => Ok(()),
            Some(w) => Err(format!("{path}: stat size {size}, want {}", w.len())),
            None => Err(format!("{path}: stat of a file the model lacks")),
        }
    }

    /// A directory listing must hold `.`, `..` and exactly the live
    /// entries.
    pub fn check_dir(&self, dir: &str, got: &[String]) -> Result<(), String> {
        let want = self
            .dirs
            .get(dir)
            .ok_or_else(|| format!("{dir}: listing of a directory the model lacks"))?;
        let mut got_set: BTreeSet<String> = got.iter().cloned().collect();
        if got_set.len() != got.len() {
            return Err(format!("{dir}: listing repeats an entry"));
        }
        if !(got_set.remove(".") && got_set.remove("..")) {
            return Err(format!("{dir}: listing lacks . or .."));
        }
        if &got_set == want {
            return Ok(());
        }
        let missing: Vec<_> = want.difference(&got_set).take(3).collect();
        let extra: Vec<_> = got_set.difference(want).take(3).collect();
        Err(format!("{dir}: missing {missing:?}, unexpected {extra:?}"))
    }

    /// A mailbox must hold every delivered message exactly once.
    pub fn check_mail(&self, uid: u32, got: &[String]) -> Result<(), String> {
        let mut want: Vec<&str> = self
            .mail
            .get(&uid)
            .map(|v| v.iter().map(String::as_str).collect())
            .unwrap_or_default();
        let mut got: Vec<&str> = got.iter().map(String::as_str).collect();
        want.sort_unstable();
        got.sort_unstable();
        if want == got {
            Ok(())
        } else {
            Err(format!(
                "mailbox u{uid}: {} messages, want {}",
                got.len(),
                want.len()
            ))
        }
    }

    /// The state after a partition heals: one-sided file updates win,
    /// two-sided ones become conflicts, directory entries and mail from
    /// both sides are united. `self` is the state at the cut; the
    /// generator never removes anything while the network is split.
    pub fn merged(&self, a: &Model, b: &Model) -> Model {
        let mut out = a.clone();
        for (path, bytes) in &b.files {
            let base = self.files.get(path);
            let a_changed = a.files.get(path) != base;
            let b_changed = Some(bytes) != base;
            match (a_changed, b_changed) {
                (true, true) => {
                    out.files.remove(path);
                    out.conflicts.insert(path.clone());
                }
                (false, true) => {
                    out.files.insert(path.clone(), bytes.clone());
                }
                _ => {}
            }
        }
        for (dir, names) in &b.dirs {
            out.dirs
                .entry(dir.clone())
                .or_default()
                .extend(names.iter().cloned());
        }
        for (uid, msgs) in &b.mail {
            let base = self.mail.get(uid).map_or(0, Vec::len);
            out.mail
                .entry(*uid)
                .or_default()
                .extend(msgs[base..].iter().cloned());
        }
        out.conflicts.extend(b.conflicts.iter().cloned());
        out
    }
}

/// A two-file transaction as the generator staged it.
#[derive(Clone, Debug)]
pub struct TxnRec {
    /// (path, bytes before, bytes staged).
    pub files: Vec<(String, Vec<u8>, Vec<u8>)>,
}

/// What a transaction left behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnVerdict {
    /// Every file holds the staged bytes.
    Committed,
    /// Every file holds its bytes from before.
    Untouched,
    /// Some files hold the staged bytes and some the old: not atomic.
    Torn,
}

impl TxnRec {
    /// Classifies the files' observed contents (one per file, in order);
    /// an error if some file holds neither version.
    pub fn verdict(&self, observed: &[Vec<u8>]) -> Result<TxnVerdict, String> {
        let mut new = 0;
        for ((path, before, after), got) in self.files.iter().zip(observed) {
            if got == after {
                new += 1;
            } else if got != before {
                return Err(format!(
                    "{path}: holds neither the old nor the staged bytes"
                ));
            }
        }
        Ok(match new {
            0 => TxnVerdict::Untouched,
            n if n == self.files.len() => TxnVerdict::Committed,
            _ => TxnVerdict::Torn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Model {
        let mut m = Model::default();
        m.mkdir("/d");
        m.put("/d/a", b"alpha".to_vec());
        m.put("/d/b", b"beta".to_vec());
        m.deliver(1, "hello".into());
        m
    }

    /// A listing as `readdir` gives it: `.`, `..`, then `names`.
    fn ls(names: &[&str]) -> Vec<String> {
        [".", ".."]
            .iter()
            .chain(names)
            .map(|n| n.to_string())
            .collect()
    }

    #[test]
    fn accepts_the_committed_state() {
        let m = model();
        assert!(m.check_read("/d/a", b"alpha").is_ok());
        assert!(m.check_size("/d/b", 4).is_ok());
        assert!(m.check_dir("/d", &ls(&["a", "b"])).is_ok());
        assert!(m.check_dir("/d", &["a".into(), "b".into()]).is_err());
        assert!(m.check_mail(1, &["hello".into()]).is_ok());
    }

    #[test]
    fn rejects_a_flipped_byte() {
        let m = model();
        let err = m.check_read("/d/a", b"alphb").unwrap_err();
        assert!(err.contains("byte 4"), "{err}");
        assert!(m.check_read("/d/a", b"alph").is_err());
        assert!(m.check_size("/d/a", 4).is_err());
    }

    #[test]
    fn rejects_a_missing_or_extra_entry() {
        let m = model();
        assert!(m.check_dir("/d", &ls(&["a"])).is_err());
        assert!(m.check_dir("/d", &ls(&["a", "b", "c"])).is_err());
        assert!(m.check_dir("/d", &ls(&["a", "a", "b"])).is_err());
    }

    #[test]
    fn rejects_lost_or_duplicated_mail() {
        let m = model();
        assert!(m.check_mail(1, &[]).is_err());
        assert!(m.check_mail(1, &["hello".into(), "hello".into()]).is_err());
    }

    #[test]
    fn rejects_a_half_applied_transaction() {
        let t = TxnRec {
            files: vec![
                ("/x".into(), b"x0".to_vec(), b"x1".to_vec()),
                ("/y".into(), b"y0".to_vec(), b"y1".to_vec()),
            ],
        };
        assert_eq!(
            t.verdict(&[b"x1".to_vec(), b"y1".to_vec()]),
            Ok(TxnVerdict::Committed)
        );
        assert_eq!(
            t.verdict(&[b"x0".to_vec(), b"y0".to_vec()]),
            Ok(TxnVerdict::Untouched)
        );
        assert_eq!(
            t.verdict(&[b"x1".to_vec(), b"y0".to_vec()]),
            Ok(TxnVerdict::Torn)
        );
        assert!(t.verdict(&[b"x2".to_vec(), b"y0".to_vec()]).is_err());
    }

    #[test]
    fn merge_unites_one_sided_work_and_flags_two_sided_updates() {
        let base = model();
        let mut a = base.clone();
        let mut b = base.clone();
        a.put("/d/a", b"alpha-a".to_vec());
        a.put("/d/b", b"beta-a".to_vec());
        b.put("/d/b", b"beta-b".to_vec());
        b.put("/d/c", b"gamma".to_vec());
        a.deliver(1, "from a".into());
        b.deliver(1, "from b".into());
        let m = base.merged(&a, &b);
        assert_eq!(m.files["/d/a"], b"alpha-a");
        assert_eq!(m.files["/d/c"], b"gamma");
        assert!(!m.files.contains_key("/d/b"));
        assert!(m.conflicts.contains("/d/b"));
        assert!(m.check_dir("/d", &ls(&["a", "b", "c"])).is_ok());
        assert!(m
            .check_mail(1, &["from b".into(), "hello".into(), "from a".into()])
            .is_ok());
    }
}
