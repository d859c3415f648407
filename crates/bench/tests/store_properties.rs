//! Property tests for checkpoint-store corruption: whatever happens to the
//! bytes — truncation, bit flips, interleaved garbage — loading never
//! panics, never invents rows, and never returns wrong values. Corruption
//! is either quarantined ([`ResultStore::from_csv_lossy`]) or a typed
//! [`StoreError`].
//!
//! Both stores sit on the same checksummed row log, so every property runs
//! twice per case: once on a [`ResultStore`], once on a [`ShardStore`].

use mbu_bench::store::{ShardExhaustive, ShardStratified};
use mbu_bench::{LoadAudit, ResultStore, ShardRow, ShardStore, StoreError};
use mbu_cpu::HwComponent;
use mbu_gefin::campaign::{AnomalyLog, CampaignResult, UnitSpec};
use mbu_gefin::classify::ClassCounts;
use mbu_gefin::integrity::GoldenFingerprint;
use mbu_workloads::Workload;
use proptest::prelude::*;

/// What the properties need of a checksummed store.
trait Checkpoint: Sized {
    /// A fixed store that puts every field kind of the format on disk.
    fn seeded() -> Self;
    /// The whole file.
    fn csv(&self) -> String;
    /// Lossy load: defective rows quarantined.
    fn lossy(csv: &str) -> Result<(Self, LoadAudit), StoreError>;
    /// Strict load, for a store that has one.
    fn strict(csv: &str) -> Option<Result<Self, StoreError>>;
    /// Number of rows held.
    fn row_count(&self) -> usize;
    /// Every row of `self` must be byte-for-byte one of `original`'s rows.
    /// Corruption may *lose* rows, never alter them.
    fn assert_subset(&self, original: &Self) -> Result<(), TestCaseError>;
}

/// A campaign result with the given payload.
fn result(
    component: HwComponent,
    workload: Workload,
    faults: usize,
    counts: ClassCounts,
    cycles: u64,
    instructions: u64,
    margin: Option<f64>,
) -> CampaignResult {
    CampaignResult {
        component,
        workload,
        faults,
        counts,
        fault_free_cycles: cycles,
        fault_free_instructions: instructions,
        details: None,
        anomalies: AnomalyLog::new(),
        oracle_skips: 0,
        achieved_margin: margin,
        snapshot_stats: None,
    }
}

const COMBOS: [(HwComponent, Workload); 3] = [
    (HwComponent::L1D, Workload::Sha),
    (HwComponent::RegFile, Workload::Qsort),
    (HwComponent::DTlb, Workload::Stringsearch),
];

impl Checkpoint for ResultStore {
    /// Nine campaigns mixing stamped/unstamped fingerprints and
    /// present/absent margins.
    fn seeded() -> Self {
        let mut s = ResultStore::new();
        for (i, (c, w)) in COMBOS.into_iter().enumerate() {
            for faults in 1..=3usize {
                let counts = ClassCounts {
                    masked: 900 + (i * 37 + faults) as u64,
                    sdc: 40 + i as u64,
                    crash: 30,
                    timeout: 5,
                    assert_: 2,
                };
                let margin = match faults {
                    2 => None,
                    _ => Some(0.021 + 0.001 * faults as f64),
                };
                let r = result(
                    c,
                    w,
                    faults,
                    counts,
                    10_000 + i as u64 * 777,
                    9_000 + faults as u64,
                    margin,
                );
                let fp = match faults {
                    3 => None,
                    _ => Some(GoldenFingerprint(
                        0x1234_5678_9ABC_DEF0 ^ ((i as u64) << 8) ^ faults as u64,
                    )),
                };
                s.insert_with_fingerprint(r, fp);
            }
        }
        s
    }

    fn csv(&self) -> String {
        self.to_csv()
    }

    fn lossy(csv: &str) -> Result<(Self, LoadAudit), StoreError> {
        ResultStore::from_csv_lossy(csv)
    }

    fn strict(csv: &str) -> Option<Result<Self, StoreError>> {
        Some(ResultStore::from_csv(csv))
    }

    fn row_count(&self) -> usize {
        self.len()
    }

    fn assert_subset(&self, original: &Self) -> Result<(), TestCaseError> {
        for r in self.iter() {
            let orig = original.get(r.component, r.workload, r.faults);
            prop_assert!(
                orig == Some(r),
                "row {:?}/{:?}/{} loaded with wrong values: {r:?} vs {orig:?}",
                r.component,
                r.workload,
                r.faults
            );
            prop_assert_eq!(
                self.fingerprint(r.component, r.workload, r.faults),
                original.fingerprint(r.component, r.workload, r.faults)
            );
        }
        Ok(())
    }
}

impl Checkpoint for ShardStore {
    /// Nine units, one sampled run-range and one exhaustive class range per
    /// campaign plus a repeated unit (a retry), and one stratified
    /// whole-campaign row.
    fn seeded() -> Self {
        let mut s = ShardStore::new();
        for (i, (c, w)) in COMBOS.into_iter().enumerate() {
            for faults in 1..=3usize {
                let counts = ClassCounts {
                    masked: 20 + (i * 7 + faults) as u64,
                    sdc: 4 + i as u64,
                    crash: 3,
                    timeout: 1,
                    assert_: faults as u64 - 1,
                };
                let start = 40 * (faults - 1);
                let exhaustive = (faults == 3).then_some(ShardExhaustive {
                    weighted: ClassCounts {
                        masked: counts.masked * 50,
                        sdc: counts.sdc * 7,
                        crash: counts.crash * 3,
                        timeout: counts.timeout,
                        assert_: counts.assert_,
                    },
                    weight_total: 1_000_000,
                    pruned: 10_000 + i as u64,
                    stratified: None,
                });
                s.push(ShardRow {
                    unit: UnitSpec {
                        component: c,
                        workload: w,
                        faults,
                        start,
                        end: start + counts.total() as usize,
                    },
                    seed: 0x6EF1_2019 + i as u64,
                    counts,
                    fault_free_cycles: 10_000 + i as u64 * 777,
                    fault_free_instructions: 9_000 + faults as u64,
                    fingerprint: GoldenFingerprint(
                        0x1234_5678_9ABC_DEF0 ^ ((i as u64) << 8) ^ faults as u64,
                    ),
                    exhaustive,
                });
            }
        }
        let retry = s.rows()[4].clone();
        s.push(retry);
        s.push(ShardRow {
            unit: UnitSpec::whole(HwComponent::L2, Workload::Sha, 1, 1),
            seed: 0x6EF1_2019,
            counts: ClassCounts {
                masked: 1,
                ..ClassCounts::new()
            },
            fault_free_cycles: 123_456,
            fault_free_instructions: 98_765,
            fingerprint: GoldenFingerprint(0x0FED_CBA9_8765_4321),
            exhaustive: Some(ShardExhaustive {
                weighted: ClassCounts {
                    masked: 700_000,
                    sdc: 2_500,
                    crash: 1_200,
                    timeout: 30,
                    assert_: 4,
                },
                weight_total: 900_000,
                pruned: 150_000,
                stratified: Some(ShardStratified {
                    margin_bits: 0.0187_f64.to_bits(),
                    simulated: 4_321,
                }),
            }),
        });
        s
    }

    fn csv(&self) -> String {
        self.to_csv()
    }

    fn lossy(csv: &str) -> Result<(Self, LoadAudit), StoreError> {
        ShardStore::from_csv_lossy(csv)
    }

    /// Shard stores are only ever loaded lossily (the fabric merge path).
    fn strict(_csv: &str) -> Option<Result<Self, StoreError>> {
        None
    }

    fn row_count(&self) -> usize {
        self.len()
    }

    fn assert_subset(&self, original: &Self) -> Result<(), TestCaseError> {
        for r in self.rows() {
            prop_assert!(
                original.rows().contains(r),
                "row {:?} loaded with wrong values: {r:?}",
                r.unit
            );
        }
        Ok(())
    }
}

fn truncation_loads_a_prefix_or_fails_typed_on<S: Checkpoint>(
    cut: prop::sample::Index,
) -> Result<(), TestCaseError> {
    let original = S::seeded();
    let csv = original.csv();
    let cut = cut.index(csv.len() + 1);
    let truncated = &csv[..cut];
    match S::lossy(truncated) {
        // A torn version line means nothing can be trusted; that must
        // surface as the typed refusal, never as guessed rows.
        Err(e) => prop_assert!(
            matches!(e, StoreError::UnsupportedVersion { .. }),
            "unexpected error kind: {e}"
        ),
        Ok((loaded, audit)) => {
            prop_assert!(loaded.row_count() <= original.row_count());
            prop_assert!(
                audit.quarantined.len() <= 1,
                "truncation tears at most the final row: {:?}",
                audit.quarantined
            );
            loaded.assert_subset(&original)?;
            if cut >= csv.len() {
                prop_assert_eq!(loaded.csv(), csv);
            }
        }
    }
    Ok(())
}

fn single_bit_flips_never_load_wrong_values_on<S: Checkpoint>(
    pos: prop::sample::Index,
    bit: u8,
) -> Result<(), TestCaseError> {
    let original = S::seeded();
    let mut bytes = original.csv().into_bytes();
    let i = pos.index(bytes.len());
    bytes[i] ^= 1 << bit;
    // A non-UTF-8 flip cannot even reach the parser.
    prop_assume!(std::str::from_utf8(&bytes).is_ok());
    let flipped = String::from_utf8(bytes).unwrap();
    match S::lossy(&flipped) {
        Err(e) => prop_assert!(
            matches!(e, StoreError::UnsupportedVersion { .. }),
            "unexpected error kind: {e}"
        ),
        // The flipped row is either quarantined (CRC / syntax) or the
        // flip landed in the version/header framing — in every case no
        // surviving row may differ from the original.
        Ok((loaded, _audit)) => loaded.assert_subset(&original)?,
    }
    // The strict loader agrees: typed error or unaltered values.
    if let Some(Ok(loaded)) = S::strict(&flipped) {
        loaded.assert_subset(&original)?;
    }
    Ok(())
}

fn garbage_lines_are_quarantined_with_survivors_intact_on<S: Checkpoint>(
    garbage: &[(prop::sample::Index, &str)],
) -> Result<(), TestCaseError> {
    let original = S::seeded();
    let csv = original.csv();
    let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
    for (pos, junk) in garbage {
        // Only past the version + header framing (lines 0 and 1).
        let at = 2 + pos.index(lines.len() - 1);
        lines.insert(at, (*junk).to_string());
    }
    let corrupted = lines.join("\n");
    let (loaded, audit) = S::lossy(&corrupted).unwrap();
    prop_assert_eq!(audit.quarantined.len(), garbage.len());
    prop_assert_eq!(audit.rows_loaded, original.row_count());
    prop_assert_eq!(
        loaded.csv(),
        csv.clone(),
        "survivors reload bit-identically around the garbage"
    );
    // The strict loader refuses the same file with a typed error.
    if let Some(strict) = S::strict(&corrupted) {
        prop_assert!(
            matches!(
                strict,
                Err(StoreError::Syntax { .. } | StoreError::CrcMismatch { .. })
            ),
            "strict load must fail typed: {:?}",
            strict.err()
        );
    }
    Ok(())
}

/// A one-row store reloads to the same bytes and the same values.
fn roundtrips_bit_identically<S: Checkpoint>(store: &S) -> Result<(), TestCaseError> {
    let csv = store.csv();
    let reloaded = match S::lossy(&csv) {
        Ok((s, audit)) if audit.quarantined.is_empty() => s,
        Ok((_, audit)) => {
            return Err(TestCaseError::Fail(format!(
                "reload quarantined {:?}",
                audit.quarantined
            )))
        }
        Err(e) => return Err(TestCaseError::Fail(format!("reload failed: {e}"))),
    };
    if let Some(strict) = S::strict(&csv) {
        prop_assert!(strict.is_ok(), "strict reload failed: {:?}", strict.err());
    }
    prop_assert_eq!(reloaded.csv(), csv, "canonical serialization");
    reloaded.assert_subset(store)?;
    prop_assert_eq!(reloaded.row_count(), 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncation_loads_a_prefix_or_fails_typed(cut in any::<prop::sample::Index>()) {
        truncation_loads_a_prefix_or_fails_typed_on::<ResultStore>(cut)?;
        truncation_loads_a_prefix_or_fails_typed_on::<ShardStore>(cut)?;
    }

    #[test]
    fn single_bit_flips_never_load_wrong_values(
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        single_bit_flips_never_load_wrong_values_on::<ResultStore>(pos, bit)?;
        single_bit_flips_never_load_wrong_values_on::<ShardStore>(pos, bit)?;
    }

    #[test]
    fn garbage_lines_are_quarantined_with_survivors_intact(
        garbage in prop::collection::vec(
            (
                any::<prop::sample::Index>(),
                prop_oneof![
                    Just("!!! not a row at all"),
                    Just("l1d,sha,not,a,valid,row"),
                    // Well-formed result body, forged checksum.
                    Just("l1d,sha,1,90,5,3,1,1,12345,6789,0.02,0123456789abcdef,00000000"),
                    // Well-formed shard body, forged checksum.
                    Just("l1d,sha,1,0,3,7,1,1,1,0,0,12345,6789,0123456789abcdef,00000000"),
                    Just(",,,,"),
                    Just("l1d,sha,1,90"),
                ],
            ),
            1..4,
        ),
    ) {
        garbage_lines_are_quarantined_with_survivors_intact_on::<ResultStore>(&garbage)?;
        garbage_lines_are_quarantined_with_survivors_intact_on::<ShardStore>(&garbage)?;
    }

    #[test]
    fn arbitrary_stores_roundtrip_bit_identically(
        counts in (0u64..1_000_000, 0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000),
        meta in (1usize..=3, 1u64..10_000_000, 1u64..10_000_000),
        margin in prop_oneof![
            Just(Option::<f64>::None),
            (0.0f64..=1.0).prop_map(Some),
        ],
        fp in prop_oneof![
            Just(Option::<u64>::None),
            any::<u64>().prop_map(Some),
        ],
        flavor in 0u8..3,
        start in 0usize..1_000_000,
    ) {
        let (masked, sdc, crash, timeout, assert_) = counts;
        let counts = ClassCounts { masked, sdc, crash, timeout, assert_ };
        let (faults, cycles, instructions) = meta;
        let mut store = ResultStore::new();
        store.insert_with_fingerprint(
            result(HwComponent::L2, Workload::Sha, faults, counts, cycles, instructions, margin),
            fp.map(GoldenFingerprint),
        );
        roundtrips_bit_identically(&store)?;

        // The shard row: a sampled run-range, an exhaustive class range
        // (the counts are also the class weights) or a stratified
        // whole-campaign row (the counts are the weighted mass).
        let annotation = |stratified| ShardExhaustive {
            weighted: counts,
            weight_total: counts.total() + cycles,
            pruned: cycles,
            stratified,
        };
        let (unit_counts, exhaustive) = match flavor {
            0 => (counts, None),
            1 => (counts, Some(annotation(None))),
            _ => (
                ClassCounts { masked: 1, ..ClassCounts::new() },
                Some(annotation(Some(ShardStratified {
                    margin_bits: margin.unwrap_or(0.0).to_bits(),
                    simulated: instructions,
                }))),
            ),
        };
        let start = if flavor == 2 { 0 } else { start };
        let end = start + unit_counts.total() as usize;
        // An empty range is not a legal shard row.
        prop_assume!(end > start);
        let mut shard = ShardStore::new();
        shard.push(ShardRow {
            unit: UnitSpec {
                component: HwComponent::L2,
                workload: Workload::Sha,
                faults,
                start,
                end,
            },
            seed: instructions,
            counts: unit_counts,
            fault_free_cycles: cycles,
            fault_free_instructions: instructions,
            fingerprint: GoldenFingerprint(fp.unwrap_or(0)),
            exhaustive,
        });
        roundtrips_bit_identically(&shard)?;
    }
}

/// Format freeze, results: the checked-in sweep checkpoint loads with no
/// defect and re-renders to the very same bytes.
#[test]
fn measured_csv_reloads_byte_for_byte() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/measured.csv");
    let text = std::fs::read_to_string(path).expect("read results/measured.csv");
    let (store, audit) = ResultStore::from_csv_lossy(&text).expect("measured.csv is a v2 store");
    assert!(audit.quarantined.is_empty(), "{:?}", audit.quarantined);
    assert_eq!(store.len(), 270);
    assert_eq!(store.to_csv(), text);
}

/// Format freeze, shards: a literal `#mbu-shard v1` file with one row of
/// each flavor (sampled, exhaustive class range, stratified whole
/// campaign) parses and re-renders to the very same bytes.
#[test]
fn shard_fixture_reloads_byte_for_byte() {
    const FIXTURE: &str = "\
#mbu-shard v1
component,workload,faults,start,end,seed,masked,sdc,crash,timeout,assert,cycles,instructions,fingerprint,crc
l1d,qsort,2,0,10,14,7,1,1,1,0,123456,78901,0123456789abcdef,1d5080e1
dtlb,sha,1,4,7,1,1,1,1,0,0,5000,4000,fedcba9876543210,900,40,0,0,0,2000,300,cd8c0457
l2,stringsearch,1,0,1,8,1,0,0,0,0,200000,150000,00000000deadbeef,4000,100,20,0,0,6000,1000,4578244089034385549,97,e4a88431
";
    let (store, audit) = ShardStore::from_csv_lossy(FIXTURE).expect("fixture is a shard store");
    assert!(audit.quarantined.is_empty(), "{:?}", audit.quarantined);
    let rows = store.rows();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].unit.workload, Workload::Qsort);
    assert_eq!(rows[0].exhaustive, None, "sampled row");
    let ex = rows[1].exhaustive.expect("exhaustive row");
    assert_eq!(
        (ex.weight_total, ex.pruned, ex.stratified),
        (2000, 300, None)
    );
    let strat = rows[2].exhaustive.and_then(|ex| ex.stratified);
    let strat = strat.expect("stratified row");
    assert_eq!((strat.margin(), strat.simulated), (0.0123, 97));
    assert_eq!(rows[2].fingerprint, GoldenFingerprint(0xdead_beef));
    assert_eq!(store.to_csv(), FIXTURE);
}
