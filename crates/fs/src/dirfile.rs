//! Directory files (§II-C / §IV-B file type 1).
//!
//! Each directory file `f_D` "is a collection of files and/or further
//! directories, and it stores a list of all its children". SeGShare
//! stores the original path inside the (encrypted) directory file, so
//! directory listing keeps working when the filename-hiding extension
//! pseudonymizes storage locations (§V-C).

use std::collections::BTreeMap;

use crate::codec::{ascending, Decoder, Encoder};
use crate::path::SegPath;
use crate::FsError;

const TAG: &[u8; 4] = b"DIR1";

/// Whether a directory child is itself a directory or a content file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChildKind {
    /// A subdirectory.
    Directory,
    /// A content file.
    File,
}

impl ChildKind {
    fn encode(self) -> u8 {
        match self {
            ChildKind::Directory => 1,
            ChildKind::File => 0,
        }
    }

    fn decode(v: u8) -> Result<ChildKind, FsError> {
        match v {
            0 => Ok(ChildKind::File),
            1 => Ok(ChildKind::Directory),
            other => Err(FsError::Codec(format!("unknown child kind {other}"))),
        }
    }
}

/// The content of one directory file: its original path and its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirFile {
    path: SegPath,
    children: BTreeMap<String, ChildKind>,
}

impl DirFile {
    /// An empty directory at `path`.
    ///
    /// # Panics
    ///
    /// Panics if `path` is not a directory path.
    #[must_use]
    pub fn new(path: SegPath) -> DirFile {
        assert!(path.is_dir(), "directory file requires a directory path");
        DirFile {
            path,
            children: BTreeMap::new(),
        }
    }

    /// The directory's original (plaintext) path.
    #[must_use]
    pub fn path(&self) -> &SegPath {
        &self.path
    }

    /// Records a child; returns the previous kind if the name existed.
    pub fn add_child(&mut self, name: &str, kind: ChildKind) -> Option<ChildKind> {
        self.children.insert(name.to_string(), kind)
    }

    /// Removes a child; returns its kind if it existed.
    pub fn remove_child(&mut self, name: &str) -> Option<ChildKind> {
        self.children.remove(name)
    }

    /// Looks up a child.
    #[must_use]
    pub fn child(&self, name: &str) -> Option<ChildKind> {
        self.children.get(name).copied()
    }

    /// Iterates over `(name, kind)` in sorted order (directory listing).
    pub fn children(&self) -> impl Iterator<Item = (&str, ChildKind)> {
        self.children.iter().map(|(n, k)| (n.as_str(), *k))
    }

    /// Number of children.
    #[must_use]
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the directory is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// The full path of child `name`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::InvalidPath`] for invalid names.
    pub fn child_path(&self, name: &str, kind: ChildKind) -> Result<SegPath, FsError> {
        match kind {
            ChildKind::Directory => self.path.join_dir(name),
            ChildKind::File => self.path.join_file(name),
        }
    }

    /// Serializes to the encrypted-file payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(TAG);
        e.str(self.path.as_str());
        e.u32(self.children.len() as u32);
        for (name, kind) in &self.children {
            e.str(name);
            e.u8(kind.encode());
        }
        e.finish()
    }

    /// Parses a [`DirFile::encode`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] / [`FsError::InvalidPath`] on malformed
    /// input.
    pub fn decode(data: &[u8]) -> Result<DirFile, FsError> {
        let mut d = Decoder::new(data);
        d.tag(TAG)?;
        let path = SegPath::parse(&d.str()?)?;
        if !path.is_dir() {
            return Err(FsError::Codec("directory file with file path".to_string()));
        }
        let count = d.u32()?;
        let mut children = BTreeMap::new();
        for _ in 0..count {
            let name = d.str()?;
            ascending(children.last_key_value().map(|(n, _)| n), &name)?;
            let kind = ChildKind::decode(d.u8()?)?;
            children.insert(name, kind);
        }
        d.finish()?;
        Ok(DirFile { path, children })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(path: &str) -> DirFile {
        DirFile::new(SegPath::parse(path).unwrap())
    }

    #[test]
    fn children_management() {
        let mut d = dir("/docs/");
        assert!(d.is_empty());
        assert_eq!(d.add_child("a.txt", ChildKind::File), None);
        assert_eq!(d.add_child("sub", ChildKind::Directory), None);
        assert_eq!(d.child("a.txt"), Some(ChildKind::File));
        assert_eq!(d.child("sub"), Some(ChildKind::Directory));
        assert_eq!(d.child("missing"), None);
        assert_eq!(d.len(), 2);
        // Replacing a child records the old kind.
        assert_eq!(d.add_child("a.txt", ChildKind::File), Some(ChildKind::File));
        assert_eq!(d.remove_child("a.txt"), Some(ChildKind::File));
        assert_eq!(d.remove_child("a.txt"), None);
    }

    #[test]
    fn listing_is_sorted() {
        let mut d = dir("/");
        d.add_child("zebra", ChildKind::File);
        d.add_child("alpha", ChildKind::Directory);
        d.add_child("mid", ChildKind::File);
        let names: Vec<&str> = d.children().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zebra"]);
    }

    #[test]
    fn child_path_construction() {
        let d = dir("/a/b/");
        assert_eq!(
            d.child_path("c", ChildKind::Directory).unwrap().as_str(),
            "/a/b/c/"
        );
        assert_eq!(
            d.child_path("f.txt", ChildKind::File).unwrap().as_str(),
            "/a/b/f.txt"
        );
    }

    #[test]
    fn roundtrip() {
        let mut d = dir("/projects/alpha/");
        d.add_child("réport.pdf", ChildKind::File);
        d.add_child("data", ChildKind::Directory);
        assert_eq!(DirFile::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    #[should_panic(expected = "requires a directory path")]
    fn rejects_file_path() {
        let _ = DirFile::new(SegPath::parse("/not-a-dir").unwrap());
    }

    #[test]
    fn decode_rejects_file_path_payload() {
        // Craft a payload claiming a non-directory path.
        let mut e = crate::codec::Encoder::new();
        e.tag(b"DIR1");
        e.str("/file-not-dir");
        e.u32(0);
        assert!(DirFile::decode(&e.finish()).is_err());
    }
}
