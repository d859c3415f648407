//! One typed [`Config`] for every `MBU_*` knob.
//!
//! A private table declares each knob exactly once: its name, a one-line
//! help with the default, and how a value is validated and stored. One
//! driver, [`Config::from_lookup`], feeds any variable lookup through that
//! table; [`Config::from_env`] is the same driver over the process
//! environment, so tests never touch it. `repro --help` renders its `env:`
//! section from the same table ([`Config::help`]).
//!
//! The chaos hooks (`MBU_CHAOS_*`, see [`crate::chaos`]) are test
//! scaffolding that panics on bad input; they stay outside the table.

use crate::experiments::Experiments;
use crate::service::ServeConfig;
use crate::supervisor::FabricConfig;
use mbu_gefin::campaign::AdaptiveSpec;
use std::ffi::OsString;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// The largest fault cardinality a sweep may request: the biggest
/// multi-bit upset the 2×2…3×3 cluster models produce.
pub const MAX_CARDINALITY: usize = 8;

/// What a valid cardinality looks like (`1..=`[`MAX_CARDINALITY`]), in
/// both the `MBU_CARDINALITY` error and the HTTP `cardinality` 400.
pub(crate) const CARDINALITY_EXPECTED: &str = "must be an integer in 1..=8";

const INTEGER: &str = "must be an integer";
const POSITIVE: &str = "must be a positive integer";
const MIB: &str = "must be an integer (MiB)";

/// An invalid `MBU_*` environment variable. The silent-fallback failure
/// mode this replaces — an unparsable `MBU_THREADS` quietly running on the
/// default — is exactly the kind of misconfiguration that makes a
/// distributed sweep's shards subtly inconsistent, so every defect is
/// typed and names its variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The variable was set to a value that does not parse.
    Invalid {
        /// The environment variable.
        var: &'static str,
        /// Its actual value.
        value: String,
        /// What a valid value looks like.
        expected: &'static str,
    },
    /// The variable was set to bytes that are not valid unicode — which
    /// `std::env::var` reports indistinguishably from "unset", silently
    /// activating the default.
    NotUnicode {
        /// The environment variable.
        var: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Invalid {
                var,
                value,
                expected,
            } => write!(f, "{var} {expected}, got `{value}`"),
            ConfigError::NotUnicode { var } => {
                write!(f, "{var} is set to non-unicode bytes")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything a run is configured by: every `MBU_*` knob, parsed once.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Campaign and sweep settings.
    pub exp: Experiments,
    /// Distributed-fabric settings.
    pub fabric: FabricConfig,
    /// HTTP-daemon settings.
    pub serve: ServeConfig,
}

impl Config {
    /// Builds the configuration from `lookup`, which maps a variable name
    /// to its value (`None` = unset, keeping the default). Invalid values
    /// are rejected with a typed [`ConfigError`], never silently defaulted.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first defective variable in table order,
    /// its value, and what was expected of it. Non-unicode bytes are
    /// [`ConfigError::NotUnicode`], not "unset".
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<OsString>) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        for knob in KNOBS {
            let var = knob.name;
            if let Some(os) = lookup(var) {
                let value = os
                    .into_string()
                    .map_err(|_| ConfigError::NotUnicode { var })?;
                (knob.set)(&mut config, Raw { var, value: &value })?;
            }
        }
        Ok(config)
    }

    /// [`Config::from_lookup`] over the process environment.
    ///
    /// # Errors
    ///
    /// As [`Config::from_lookup`].
    pub fn from_env() -> Result<Config, ConfigError> {
        Config::from_lookup(|var| std::env::var_os(var))
    }

    /// One help line per knob, in table order.
    pub fn help() -> String {
        KNOBS
            .iter()
            .map(|k| format!("  {:<28}{}\n", k.name, k.help))
            .collect()
    }
}

/// One `MBU_*` knob.
struct Knob {
    name: &'static str,
    /// One line of help, default included.
    help: &'static str,
    /// Validates a value and stores it in its field.
    set: fn(&mut Config, Raw<'_>) -> Result<(), ConfigError>,
}

/// A knob's raw value, with the parsers that turn it into a field.
#[derive(Clone, Copy)]
struct Raw<'a> {
    var: &'static str,
    value: &'a str,
}

impl Raw<'_> {
    fn invalid(self, expected: &'static str) -> ConfigError {
        ConfigError::Invalid {
            var: self.var,
            value: self.value.to_string(),
            expected,
        }
    }

    fn parse<T: FromStr>(self, expected: &'static str) -> Result<T, ConfigError> {
        self.value
            .trim()
            .parse()
            .map_err(|_| self.invalid(expected))
    }

    fn int<T: FromStr>(self) -> Result<T, ConfigError> {
        self.parse(INTEGER)
    }

    /// Parses the value (`parse` says what a parsable one looks like),
    /// then keeps it only if `valid` holds.
    fn checked<T: FromStr>(
        self,
        parse: &'static str,
        valid: impl Fn(&T) -> bool,
        expected: &'static str,
    ) -> Result<T, ConfigError> {
        let n = self.parse(parse)?;
        valid(&n).then_some(n).ok_or_else(|| self.invalid(expected))
    }

    /// A non-zero integer.
    fn positive<T: FromStr + Default + PartialEq>(
        self,
        parse: &'static str,
    ) -> Result<T, ConfigError> {
        self.checked(parse, |n| *n != T::default(), POSITIVE)
    }

    fn secs(self) -> Result<Duration, ConfigError> {
        self.int().map(Duration::from_secs)
    }

    fn millis(self) -> Result<Duration, ConfigError> {
        self.int().map(Duration::from_millis)
    }

    fn switch(self) -> Result<bool, ConfigError> {
        match self.value.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "on" | "yes" => Ok(true),
            "0" | "false" | "off" | "no" | "" => Ok(false),
            _ => Err(self.invalid("must be on/off")),
        }
    }
}

/// Every non-chaos `MBU_*` knob, each declared once.
const KNOBS: &[Knob] = &[
    Knob {
        name: "MBU_RUNS",
        help: "injection runs per campaign (default 150; 2000 = paper scale)",
        set: |c, v| v.positive(INTEGER).map(|n| c.exp.runs = n),
    },
    Knob {
        name: "MBU_SEED",
        help: "campaign seed (default 0x6EF1_2019)",
        set: |c, v| v.int().map(|n| c.exp.seed = n),
    },
    Knob {
        name: "MBU_THREADS",
        help: "injection threads (default 0 = available parallelism)",
        set: |c, v| v.int().map(|n| c.exp.threads = n),
    },
    Knob {
        name: "MBU_WORKLOADS",
        help: "comma-separated workload subset (default: all 15)",
        set: |c, v| {
            let items = v.value.split(',').map(str::trim);
            let each = items.map(|value| Raw { value, ..v }.parse("a known workload name"));
            each.collect::<Result<_, _>>().map(|w| c.exp.workloads = w)
        },
    },
    Knob {
        name: "MBU_ADAPTIVE_MARGIN",
        help: "target error margin in (0, 1), e.g. 0.0288: stop campaigns early (default off)",
        set: |c, v| {
            let valid = |m: &f64| *m > 0.0 && *m < 1.0;
            let target_margin = v.checked("must be a float", valid, "must be a float in (0, 1)")?;
            c.exp.adaptive = Some(AdaptiveSpec {
                target_margin,
                ..AdaptiveSpec::paper()
            });
            Ok(())
        },
    },
    Knob {
        name: "MBU_DEADLINE_SECS",
        help: "wall-clock budget per sweep; expiry keeps partial results (default none)",
        set: |c, v| v.secs().map(|d| c.exp.deadline = Some(d)),
    },
    Knob {
        name: "MBU_SNAPSHOTS",
        help: "on: checkpoint/restore fast-forward injection (default off)",
        set: |c, v| v.switch().map(|b| c.exp.use_snapshots = b),
    },
    Knob {
        name: "MBU_SNAPSHOT_INTERVAL",
        help: "snapshot interval in cycles, >= 1 (default: auto-tuned per workload)",
        set: |c, v| {
            v.positive(INTEGER)
                .map(|n| c.exp.snapshot_interval = Some(n))
        },
    },
    Knob {
        name: "MBU_SNAPSHOT_MEM_MB",
        help: "cap on retained snapshot memory in MiB; over it the store thins (default none)",
        set: |c, v| v.int().map(|n| c.exp.snapshot_mem_mb = Some(n)),
    },
    Knob {
        name: "MBU_GOLDEN_CACHE",
        help: "off: re-run the golden execution per campaign (default on: once per workload)",
        set: |c, v| v.switch().map(|b| c.exp.use_golden_cache = b),
    },
    Knob {
        name: "MBU_EQUIV",
        help: "on: `exhaustive` also samples L1D/L1I/L2 stratified by class (default off)",
        set: |c, v| v.switch().map(|b| c.exp.equiv = b),
    },
    Knob {
        name: "MBU_EXHAUSTIVE_MAX_CLASSES",
        help: "live-class cap per exhaustive campaign, never subsampled (default 4000000)",
        set: |c, v| {
            v.positive(POSITIVE)
                .map(|n| c.exp.exhaustive_max_classes = n)
        },
    },
    Knob {
        name: "MBU_CARDINALITY",
        help: "highest fault cardinality swept, 1..=8 (default 3)",
        set: |c, v| {
            let valid = |n: &usize| (1..=MAX_CARDINALITY).contains(n);
            v.checked(CARDINALITY_EXPECTED, valid, CARDINALITY_EXPECTED)
                .map(|n| c.exp.max_cardinality = n)
        },
    },
    Knob {
        name: "MBU_WORKERS",
        help: "fabric worker processes, >= 1 (default 2; --workers overrides)",
        set: |c, v| v.positive(POSITIVE).map(|n| c.fabric.workers = n),
    },
    Knob {
        name: "MBU_UNIT_RUNS",
        help: "runs per sampled unit (default 0 = auto from the worker count)",
        set: |c, v| v.int().map(|n| c.fabric.unit_runs = n),
    },
    Knob {
        name: "MBU_UNIT_CLASSES",
        help: "live classes per exhaustive unit (default 0 = auto)",
        set: |c, v| v.int().map(|n| c.fabric.unit_classes = n),
    },
    Knob {
        name: "MBU_HEARTBEAT_MS",
        help: "worker heartbeat interval in ms (default 100)",
        set: |c, v| v.millis().map(|d| c.fabric.heartbeat = d),
    },
    Knob {
        name: "MBU_STALL_SECS",
        help: "silence before a busy worker counts as stalled (default 30)",
        set: |c, v| v.secs().map(|d| c.fabric.stall_timeout = d),
    },
    Knob {
        name: "MBU_UNIT_DEADLINE_SECS",
        help: "wall-clock deadline per unit (default none)",
        set: |c, v| v.secs().map(|d| c.fabric.unit_deadline = Some(d)),
    },
    Knob {
        name: "MBU_UNIT_RETRIES",
        help: "attempts per unit before quarantine, >= 1 (default 3)",
        set: |c, v| v.positive(POSITIVE).map(|n| c.fabric.max_attempts = n),
    },
    Knob {
        name: "MBU_STEAL",
        help: "work-stealing of straggler tails (default on)",
        set: |c, v| v.switch().map(|b| c.fabric.steal = b),
    },
    Knob {
        name: "MBU_DISK_WATERMARK_MB",
        help: "pause unit assignment below this much free disk in MiB (default none)",
        set: |c, v| v.parse(MIB).map(|n| c.fabric.disk_watermark_mb = Some(n)),
    },
    Knob {
        name: "MBU_BREAKER_TRIP",
        help: "consecutive worker losses that open the respawn breaker, >= 1 (default 3)",
        set: |c, v| v.positive(POSITIVE).map(|n| c.fabric.breaker_trip = n),
    },
    Knob {
        name: "MBU_BREAKER_COOLDOWN_MS",
        help: "how long an open respawn breaker holds spawns, in ms (default 2000)",
        set: |c, v| v.millis().map(|d| c.fabric.breaker_cooldown = d),
    },
    Knob {
        name: "MBU_RETRY_BUDGET",
        help: "unit retries per sweep before a typed failure (default none = unbounded)",
        set: |c, v| v.int().map(|n| c.fabric.retry_budget = Some(n)),
    },
    Knob {
        name: "MBU_HTTP_MAX_JOBS",
        help: "daemon sweeps running concurrently, >= 1 (default 2)",
        set: |c, v| v.positive(POSITIVE).map(|n| c.serve.max_jobs = n),
    },
    Knob {
        name: "MBU_HTTP_QUEUE",
        help: "queued submissions before 429 (default 8)",
        set: |c, v| v.int().map(|n| c.serve.queue = n),
    },
    Knob {
        name: "MBU_HTTP_CONN_MAX",
        help: "HTTP connections before load-shedding 503s, >= 1 (default 64)",
        set: |c, v| v.positive(POSITIVE).map(|n| c.serve.conn_max = n),
    },
    Knob {
        name: "MBU_HTTP_TIMEOUT_SECS",
        help: "per-connection read/write deadline (default 30)",
        set: |c, v| v.secs().map(|d| c.serve.io_budget = d),
    },
    Knob {
        name: "MBU_DRAIN_TIMEOUT_SECS",
        help: "SIGTERM drain budget (default 60)",
        set: |c, v| v.secs().map(|d| c.serve.drain_timeout = d),
    },
    Knob {
        name: "MBU_MEM_BUDGET_MB",
        help: "snapshot memory in MiB shared by running jobs (default none)",
        set: |c, v| v.parse(MIB).map(|n| c.serve.mem_budget_mb = Some(n)),
    },
    Knob {
        name: "MBU_RETAIN_JOBS",
        help: "terminal jobs whose shard dirs survive GC (default none = keep all)",
        set: |c, v| v.int().map(|n| c.serve.retain_jobs = Some(n)),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{invalid_knob as invalid, parse_knobs as parse};

    // Each knob's accepted and rejected values are tested beside the
    // struct it fills: `experiments`, `supervisor` and `service`.

    #[test]
    fn unset_knobs_keep_every_default() {
        let c = parse(&[]).unwrap();
        let exp = Experiments::default();
        assert_eq!(
            (c.exp.runs, c.exp.seed, c.exp.max_cardinality),
            (exp.runs, exp.seed, exp.max_cardinality)
        );
        assert_eq!(c.fabric, FabricConfig::default());
        assert_eq!(c.serve, ServeConfig::default());
    }

    #[test]
    fn values_that_can_never_run_are_rejected() {
        let cases = [
            // Every campaign would fail with `ZeroRuns`.
            ("MBU_RUNS", "0", POSITIVE),
            ("MBU_RUNS", "-3", INTEGER),
            // Every campaign would fail with `InvalidAdaptiveSpec`.
            ("MBU_ADAPTIVE_MARGIN", "NaN", "must be a float in (0, 1)"),
            ("MBU_ADAPTIVE_MARGIN", "inf", "must be a float in (0, 1)"),
            ("MBU_ADAPTIVE_MARGIN", "-1", "must be a float in (0, 1)"),
            ("MBU_ADAPTIVE_MARGIN", "0", "must be a float in (0, 1)"),
            ("MBU_ADAPTIVE_MARGIN", "1", "must be a float in (0, 1)"),
            ("MBU_ADAPTIVE_MARGIN", "tight", "must be a float"),
            // Would record a snapshot on every cycle.
            ("MBU_SNAPSHOT_INTERVAL", "0", POSITIVE),
            ("MBU_SNAPSHOT_INTERVAL", "often", INTEGER),
            ("MBU_CARDINALITY", "0", CARDINALITY_EXPECTED),
            ("MBU_CARDINALITY", "9", CARDINALITY_EXPECTED),
        ];
        for (var, value, expected) in cases {
            assert_eq!(
                parse(&[(var, value)]).unwrap_err(),
                invalid(var, value, expected),
                "{var}={value}"
            );
        }
        // The edges that can run are kept.
        let c = parse(&[
            ("MBU_RUNS", "1"),
            ("MBU_ADAPTIVE_MARGIN", "0.0288"),
            ("MBU_SNAPSHOT_INTERVAL", "1"),
            ("MBU_CARDINALITY", "8"),
        ])
        .unwrap();
        assert_eq!(c.exp.runs, 1);
        assert_eq!(c.exp.adaptive.unwrap().target_margin, 0.0288);
        assert_eq!(c.exp.snapshot_interval, Some(1));
        assert_eq!(c.exp.max_cardinality, MAX_CARDINALITY);
        assert_eq!(
            CARDINALITY_EXPECTED,
            format!("must be an integer in 1..={MAX_CARDINALITY}")
        );
    }

    #[cfg(unix)]
    #[test]
    fn non_unicode_is_an_error_not_unset() {
        use std::os::unix::ffi::OsStringExt;
        let err = Config::from_lookup(|var| {
            (var == "MBU_THREADS").then(|| OsString::from_vec(vec![b'4', 0xff]))
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::NotUnicode { var: "MBU_THREADS" });
    }

    #[test]
    fn every_knob_is_declared_once_and_documented() {
        let names: std::collections::BTreeSet<&str> = KNOBS.iter().map(|k| k.name).collect();
        assert_eq!(names.len(), KNOBS.len(), "a knob is declared twice");
        assert_eq!(KNOBS.len(), 32);
        let help = Config::help();
        let readme = include_str!("../../../README.md");
        for name in names {
            assert!(name.starts_with("MBU_") && !name.starts_with("MBU_CHAOS_"));
            assert!(help.contains(&format!("  {name} ")), "help lacks {name}");
            assert!(readme.contains(&format!("`{name}`")), "README lacks {name}");
        }
    }
}
