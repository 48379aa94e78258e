//! A cold corpus cache is the normal first run of the harness, not an error:
//! building it must not fire the once-per-process flight recorder (it used
//! to, by opening a corpus directory that did not exist yet). Alone in its
//! own test binary so no other test can spend the latch.

use lash_datagen::TextHierarchy;

#[test]
fn cold_cache_leaves_the_flight_recorder_armed_and_writes_no_dump() {
    let root = std::env::temp_dir().join(format!("lash-bench-cold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dumps = root.join("dumps");
    std::fs::create_dir_all(&dumps).unwrap();
    lash_obs::flight::set_dump_dir(Some(dumps.clone()));

    let reader = lash_bench::datasets::nyt_store(0.01, TextHierarchy::LP, &root.join("cache"))
        .expect("a cold cache is built, not an error");
    assert!(!reader.is_empty());
    assert_eq!(
        std::fs::read_dir(&dumps).unwrap().count(),
        0,
        "building a cold cache dumped the flight recorder"
    );

    // Still armed: the first real error gets the dump.
    lash_obs::flight::record_error("test", "the first real error");
    assert_eq!(std::fs::read_dir(&dumps).unwrap().count(), 1);
    std::fs::remove_dir_all(&root).unwrap();
}
