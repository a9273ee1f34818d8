//! The load-bearing equivalence harness for the data-driven service
//! profiles: every runner must produce byte-identical output whether its
//! profile data comes from the hard-wired Rust constructors or from the
//! shipped `configs/services/*.json` files (`--services`). Existing
//! golden fixtures are compared as-committed — zero re-blessing — so the
//! refactor is pinned to be a pure data-path change.
//!
//! Also home of the golden fixtures for the three new workload packs
//! (`ai-inference`, `kvstore`, `pqc`), following the `golden_faults.json`
//! pattern:
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test -p accelerometer-cli --test services_equivalence
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use accelerometer_cli::run;
use accelerometer_fleet::{profile, set_active_registry, ServiceId, ServiceRegistry};
use accelerometer_profiler::TraceGenerator;

/// Serializes every test in this binary: `--services` installs a
/// process-wide registry, and the builtin sides of each comparison must
/// never observe a sibling thread's loaded registry.
static REGISTRY_GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    REGISTRY_GLOBAL
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

fn services_dir() -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../configs/services")
        .to_string_lossy()
        .into_owned()
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}"))
}

/// Runs a command twice — builtin path, then `--services` data path —
/// and returns both outputs with the registry global restored.
fn run_both_paths(cmd: &[&str]) -> (String, String) {
    let dir = services_dir();
    set_active_registry(None);
    let builtin = run(&args(cmd)).expect("builtin path runs");
    let mut with_flag = vec!["--services", dir.as_str()];
    with_flag.extend_from_slice(cmd);
    let data = run(&args(&with_flag)).expect("data path runs");
    set_active_registry(None);
    (builtin, data)
}

#[test]
fn faults_through_the_data_path_matches_the_committed_golden_fixture() {
    let _guard = lock();
    let (builtin, data) = run_both_paths(&["faults"]);
    assert_eq!(builtin, data, "faults output depends on the profile source");
    // The pre-existing fixture, byte-for-byte, driven through JSON
    // profiles — this is the zero-re-bless guarantee.
    let expected = fs::read_to_string(fixture_path("golden_faults.json"))
        .expect("committed golden_faults.json fixture");
    assert_eq!(expected, data, "data path drifted from the golden fixture");
}

#[test]
fn sharded_faults_through_the_data_path_matches_its_golden_fixture() {
    let _guard = lock();
    let (builtin, data) = run_both_paths(&["--shards", "2", "faults"]);
    accelerometer_sim::set_default_shards(0);
    assert_eq!(builtin, data);
    let expected = fs::read_to_string(fixture_path("golden_faults_sharded.json"))
        .expect("committed golden_faults_sharded.json fixture");
    assert_eq!(expected, data);
}

#[test]
fn every_paper_table_is_byte_identical_through_the_data_path() {
    let _guard = lock();
    // Includes table6 (the simulator A/B validation) and table7 — the
    // rows whose case-study and recommendation data now ride in JSON.
    let (builtin, data) = run_both_paths(&["tables", "all"]);
    assert_eq!(builtin, data, "a table depends on the profile source");
    assert!(data.contains("Table 6"), "{data}");
}

#[test]
fn project_and_characterize_are_byte_identical_through_the_data_path() {
    let _guard = lock();
    let (builtin, data) = run_both_paths(&["project"]);
    assert_eq!(builtin, data);
    let (builtin, data) =
        run_both_paths(&["characterize", "cache1", "--samples", "4000"]);
    assert_eq!(builtin, data);
}

#[test]
fn generated_traces_are_identical_through_the_data_path() {
    // The generator resolves its IPC and symbol tables once, when it is
    // built, so the registry installed at that moment decides every
    // trace. Compare whole traces, instructions included: the rendered
    // characterization shows only one-decimal shares.
    let _guard = lock();
    set_active_registry(None);
    let builtin: Vec<_> = ServiceId::ALL
        .into_iter()
        .map(|id| TraceGenerator::new(profile(id), 7).generate(2_000))
        .collect();
    let registry = ServiceRegistry::load_path(Path::new(&services_dir())).expect("shipped packs load");
    set_active_registry(Some(Arc::new(registry)));
    let data: Vec<_> = ServiceId::ALL
        .into_iter()
        .map(|id| TraceGenerator::new(profile(id), 7).generate(2_000))
        .collect();
    set_active_registry(None);
    for ((id, builtin), data) in ServiceId::ALL.into_iter().zip(&builtin).zip(&data) {
        assert!(builtin == data, "{id}: traces depend on the profile source");
    }
}

#[test]
fn validate_case_study_is_byte_identical_through_the_data_path() {
    let _guard = lock();
    let (builtin, data) = run_both_paths(&["validate", "--case", "aes-ni"]);
    assert_eq!(builtin, data);
    assert!(data.contains("case study aes-ni"), "{data}");
}

#[test]
fn new_pack_characterizations_match_their_golden_fixtures() {
    let _guard = lock();
    set_active_registry(None);
    for slug in ["ai-inference", "kvstore", "pqc"] {
        let out = run(&args(&["characterize", slug, "--samples", "5000"]))
            .expect("pack characterizes");
        let path = fixture_path(&format!("golden_pack_{slug}.txt"));
        if std::env::var_os("GOLDEN_BLESS").is_some() {
            fs::write(&path, &out).expect("write pack fixture");
            continue;
        }
        let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing fixture {path:?} ({e}); run with GOLDEN_BLESS=1")
        });
        assert_eq!(
            expected, out,
            "{slug} characterization drifted; if intentional, regenerate with GOLDEN_BLESS=1"
        );
    }
}

#[test]
fn pack_fixtures_reflect_their_defining_taxes() {
    // The AI pack's story (per AI Tax): pre/post-processing overheads
    // tax more cycles than the inference core itself.
    let ai = fs::read_to_string(fixture_path("golden_pack_ai-inference.txt"))
        .expect("ai-inference fixture");
    assert!(ai.contains("Prediction/Ranking"), "{ai}");
    // The kvstore pack leans on hashing + spin locks (kernels::kvstore's
    // tag-probed shard); the PQC pack on SSL/Math/Hashing leaves.
    let kv = fs::read_to_string(fixture_path("golden_pack_kvstore.txt"))
        .expect("kvstore fixture");
    assert!(kv.contains("characterization of KVStore"), "{kv}");
    let pqc = fs::read_to_string(fixture_path("golden_pack_pqc.txt")).expect("pqc fixture");
    assert!(pqc.contains("characterization of PQC"), "{pqc}");
}

#[test]
fn services_validate_gates_the_shipped_directory_and_rejects_corruption() {
    let _guard = lock();
    set_active_registry(None);
    let out = run(&args(&["services", "validate", &services_dir()])).expect("shipped dir valid");
    assert!(out.contains("ok: 11 valid service spec(s)"), "{out}");

    // A malformed pack must fail the gate with a structured message.
    let dir = std::env::temp_dir().join(format!("accel-badpack-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    let good = fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../configs/services/kvstore.json"),
    )
    .expect("kvstore spec");
    // Knock one functionality share off balance: sums to ~95%, not 100%.
    let bad = good.replacen("34.0", "29.0", 1);
    assert_ne!(good, bad, "corruption must change the spec");
    fs::write(dir.join("kvstore.json"), bad).expect("write corrupt spec");
    let err = run(&args(&["services", "validate", &dir.to_string_lossy()])).unwrap_err();
    assert!(err.contains("breakdown must sum to ~100%"), "{err}");
    fs::remove_dir_all(&dir).ok();

    // And `--services` refuses to install the corrupt data at all.
    set_active_registry(None);
}

#[test]
fn services_list_and_export_round_trip() {
    let _guard = lock();
    set_active_registry(None);
    let out = run(&args(&["services", "list"])).expect("list runs");
    for slug in ["web", "ai-inference", "kvstore", "pqc"] {
        assert!(out.contains(slug), "{out}");
    }
    let dir = std::env::temp_dir().join(format!("accel-export-cli-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let out = run(&args(&["services", "export", &dir.to_string_lossy()])).expect("export runs");
    assert_eq!(out.lines().count(), 11, "{out}");
    // Exported files are byte-identical to the shipped ones.
    for slug in ["web", "cache1", "pqc"] {
        let exported = fs::read_to_string(dir.join(format!("{slug}.json"))).expect("exported");
        let shipped = fs::read_to_string(
            PathBuf::from(services_dir()).join(format!("{slug}.json")),
        )
        .expect("shipped");
        assert_eq!(exported, shipped, "{slug}");
    }
    fs::remove_dir_all(&dir).ok();
}
