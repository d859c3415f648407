//! Helpers shared by the crate's unit tests.

use crate::config::{Config, ConfigError};
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch directory private to one test. The name joins the process
/// id, a per-process counter and a tag, so tests running in parallel in
/// one binary never share a directory. Created empty; removed on drop.
pub(crate) struct TempDir(PathBuf);

impl TempDir {
    pub(crate) fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mbu-ut-{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the test's scratch directory");
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Parses a [`Config`] from exactly `vars`, never the process
/// environment.
pub(crate) fn parse_knobs(vars: &[(&str, &str)]) -> Result<Config, ConfigError> {
    let map: BTreeMap<String, OsString> = vars
        .iter()
        .map(|(k, v)| (k.to_string(), OsString::from(v)))
        .collect();
    Config::from_lookup(|var| map.get(var).cloned())
}

/// The error for `var` set to the unparsable `value`.
pub(crate) fn invalid_knob(var: &'static str, value: &str, expected: &'static str) -> ConfigError {
    ConfigError::Invalid {
        var,
        value: value.into(),
        expected,
    }
}

/// Asserts each set of `vars` fails to parse with exactly its error, and
/// that the error's message names the offending variable.
pub(crate) fn assert_knobs_rejected(cases: &[(&[(&str, &str)], ConfigError)]) {
    for (vars, want) in cases {
        let err = parse_knobs(vars).unwrap_err();
        assert_eq!(&err, want, "{vars:?}");
        let ConfigError::Invalid { var, .. } = want else {
            unreachable!("every case is an invalid value")
        };
        assert!(
            err.to_string().contains(var),
            "error for {var} should name it: {err}"
        );
    }
}
