//! Registry durability (ISSUE satellite): the `.slsnap` + `ModelRegistry`
//! combination must degrade *loudly* — a torn or bit-flipped file is a
//! checksum rejection, never undefined behavior — and publish must be
//! atomic from a concurrent loader's point of view: the loader sees the
//! old model or the new model, never a hybrid.
//!
//! The snapshots here are real engines built through the unified
//! `slide_quant::Snapshot` API (dev-only dependency cycle, same as the
//! shard-invariance suite), so a "load" below is the full mmap → CRC
//! verify → instantiate path that `slide_netd --snapshot` runs.

use slide_core::{LshConfig, Network, NetworkConfig};
use slide_mem::SparseVecRef;
use slide_quant::Snapshot;
use slide_serve::snapshot::SectionKind;
use slide_serve::{FrozenModel, ModelRegistry, SnapshotError, SnapshotSpec};
use std::sync::Arc;

fn tiny_net(seed: u64) -> Network {
    let mut cfg = NetworkConfig::standard(128, 16, 64);
    cfg.seed = seed;
    cfg.lsh = LshConfig {
        tables: 10,
        key_bits: 4,
        min_active: 16,
        ..cfg.lsh
    };
    Network::new(cfg).expect("tiny network")
}

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("slide_durability_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic answer battery: enough queries that two differently
/// seeded models virtually cannot agree on all of them.
fn answers(model: &Arc<dyn FrozenModel>) -> Vec<Vec<u32>> {
    let mut scratch = model.make_scratch_any();
    (0..32u32)
        .map(|q| {
            let idx = [q % 128, (q * 7 + 3) % 128, (q * 31 + 11) % 128];
            let val = [1.0f32, -0.5, 0.25];
            model.predict_any(
                SparseVecRef::new(&idx, &val),
                5,
                &mut *scratch,
                u64::from(q),
            )
        })
        .collect()
}

#[test]
fn torn_and_flipped_files_are_checksum_rejections_not_ub() {
    let root = tmp_root("torn");
    let registry = ModelRegistry::open(&root).expect("open registry");
    let net = tiny_net(7);
    let snap = Snapshot::build(&net, &SnapshotSpec::i8()).expect("build snapshot");
    let version = registry.publish(snap.bytes()).expect("publish");
    let path = registry.version_path(version);
    let pristine = std::fs::read(&path).expect("read published file");

    // Sanity: the pristine file loads.
    slide_quant::snapshot::load(&path).expect("pristine snapshot loads");

    // Torn writes: every truncation point must be a typed rejection.
    for cut in [0, 1, 37, 64, pristine.len() / 2, pristine.len() - 1] {
        std::fs::write(&path, &pristine[..cut]).expect("truncate");
        let err = slide_quant::snapshot::load(&path).expect_err("truncated file accepted");
        assert!(
            matches!(err, SnapshotError::Corrupt(_)),
            "cut at {cut}: expected Corrupt, got {err}"
        );
    }

    // Bit flips: header, section table, payload, and the final byte. A
    // flip in the version field reads as an unknown format rather than a
    // CRC mismatch — either way it must be a typed refusal.
    for flip in [4, 40, 70, pristine.len() / 2, pristine.len() - 1] {
        let mut bytes = pristine.clone();
        bytes[flip] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = slide_quant::snapshot::load(&path).expect_err("flipped byte accepted");
        assert!(
            matches!(
                err,
                SnapshotError::Corrupt(_) | SnapshotError::Unsupported(_)
            ),
            "flip at {flip}: expected Corrupt/Unsupported, got {err}"
        );
    }

    // The pristine bytes still load after all that abuse.
    std::fs::write(&path, &pristine).expect("restore");
    slide_quant::snapshot::load(&path).expect("restored snapshot loads");
    let _ = std::fs::remove_dir_all(&root);
}

// `.slsnap` header and section-table geometry (DESIGN.md §9).
const HEADER_LEN: usize = 64;
const ENTRY_LEN: usize = 32;

fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

fn le_u64(b: &[u8], at: usize) -> usize {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes")) as usize
}

/// `(table entry position, payload offset, payload length)` of a section.
fn find_section(image: &[u8], kind: SectionKind, index: u32) -> (usize, usize, usize) {
    let count = le_u32(image, 20) as usize;
    let entry = (0..count)
        .map(|i| HEADER_LEN + i * ENTRY_LEN)
        .find(|&e| le_u32(image, e) == kind as u32 && le_u32(image, e + 4) == index)
        .expect("section present");
    (entry, le_u64(image, entry + 8), le_u64(image, entry + 16))
}

/// Point section `(kind, index)` at `offset`, then recompute its payload
/// CRC, the table CRC and the header CRC: every checksum in the result
/// holds, so only a layout check can refuse it.
fn retarget(image: &mut [u8], kind: SectionKind, index: u32, offset: usize) {
    let (entry, _, len) = find_section(image, kind, index);
    assert!(
        offset >= HEADER_LEN && (offset >= entry + ENTRY_LEN || offset + len <= entry),
        "the new range must not cover a byte this function rewrites"
    );
    image[entry + 8..entry + 16].copy_from_slice(&(offset as u64).to_le_bytes());
    let crc = slide_mem::crc32(&image[offset..offset + len]);
    image[entry + 24..entry + 28].copy_from_slice(&crc.to_le_bytes());
    let table_len = le_u32(image, 20) as usize * ENTRY_LEN;
    let table_crc = slide_mem::crc32(&image[HEADER_LEN..HEADER_LEN + table_len]);
    image[32..36].copy_from_slice(&table_crc.to_le_bytes());
    let header_crc = slide_mem::crc32(&image[..60]);
    image[60..64].copy_from_slice(&header_crc.to_le_bytes());
}

/// Publish an i8 image, apply `craft` to the published file, and return why
/// loading it failed.
fn load_crafted(tag: &str, craft: impl FnOnce(&mut Vec<u8>)) -> SnapshotError {
    let root = tmp_root(tag);
    let registry = ModelRegistry::open(&root).expect("open registry");
    let snap = Snapshot::build(&tiny_net(13), &SnapshotSpec::i8()).expect("build snapshot");
    let path = registry.version_path(registry.publish(snap.bytes()).expect("publish"));
    let mut bytes = std::fs::read(&path).expect("read published file");
    craft(&mut bytes);
    std::fs::write(&path, &bytes).expect("rewrite");
    let err = slide_quant::snapshot::load(&path).expect_err("crafted image accepted");
    let _ = std::fs::remove_dir_all(&root);
    err
}

#[test]
fn a_section_inside_the_header_or_table_is_refused_even_with_valid_crcs() {
    // The input layer's 64-byte bias pointed into the section table, past
    // its own entry: any 64 bytes read as f32 are a bias the engine takes.
    let err = load_crafted("alias_table", |image| {
        let (entry, _, _) = find_section(image, SectionKind::Bias, 0);
        let into_table = (entry + ENTRY_LEN).next_multiple_of(64);
        assert!(into_table < HEADER_LEN + le_u32(image, 20) as usize * ENTRY_LEN);
        retarget(image, SectionKind::Bias, 0, into_table);
    });
    assert!(
        matches!(&err, SnapshotError::Corrupt(m) if m.contains("inside the header or section table")),
        "expected the layout refusal, got {err}"
    );
}

#[test]
fn overlapping_sections_are_refused_even_with_valid_crcs() {
    // The input layer's bias pointed at the first 64 bytes of the tables'
    // item list: u32 row ids, read back as a bias.
    let err = load_crafted("overlap", |image| {
        let (_, items, items_len) = find_section(image, SectionKind::TableItems, 0);
        assert!(items_len >= 64);
        retarget(image, SectionKind::Bias, 0, items);
    });
    assert!(
        matches!(&err, SnapshotError::Corrupt(m) if m.contains("overlaps")),
        "expected the overlap refusal, got {err}"
    );
}

#[test]
fn publish_is_atomic_under_a_concurrent_loader() {
    let root = tmp_root("atomic");
    let registry = ModelRegistry::open(&root).expect("open registry");

    // Two distinguishable models; the loader must only ever see one of
    // their answer sets, never an error and never a mixture.
    let snap_a = Snapshot::build(&tiny_net(1), &SnapshotSpec::f32()).expect("snapshot a");
    let snap_b = Snapshot::build(&tiny_net(2), &SnapshotSpec::f32()).expect("snapshot b");
    let want_a = answers(&snap_a.model().expect("model a"));
    let want_b = answers(&snap_b.model().expect("model b"));
    assert_ne!(want_a, want_b, "seeds 1 and 2 built identical models");
    registry.publish(snap_a.bytes()).expect("publish v1");

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let loader = scope.spawn(|| {
            let mut seen_a = 0u32;
            let mut seen_b = 0u32;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let path = registry
                    .current_path()
                    .expect("current pointer readable")
                    .expect("published before the loader started");
                // The loader may race a publish: the version file itself is
                // immutable once the pointer lands, so load must succeed.
                let model = slide_quant::snapshot::load(&path).expect("mid-publish load");
                let got = answers(&model);
                if got == want_a {
                    seen_a += 1;
                } else if got == want_b {
                    seen_b += 1;
                } else {
                    panic!("loader observed a model that is neither A nor B");
                }
            }
            (seen_a, seen_b)
        });
        // Publisher: alternate the two images as fast as the disk allows.
        for i in 0..20 {
            let image = if i % 2 == 0 {
                snap_b.bytes()
            } else {
                snap_a.bytes()
            };
            registry.publish(image).expect("publish");
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let (seen_a, seen_b) = loader.join().expect("loader thread");
        assert!(
            seen_a + seen_b > 0,
            "loader never completed a load during the publish storm"
        );
    });
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crashed_publish_is_swept_on_open_and_registry_state_is_unaffected() {
    let root = tmp_root("crash_sweep");
    let registry = ModelRegistry::open(&root).expect("open registry");
    let snap = Snapshot::build(&tiny_net(3), &SnapshotSpec::f32()).expect("snapshot");
    let want = answers(&snap.model().expect("model"));
    registry.publish(snap.bytes()).expect("publish v1");

    // Simulate a publisher that died between temp-write and rename: a
    // fully written temp for the never-published v2 (dead pid) plus a torn
    // CURRENT temp in the root. u32::MAX can never be a live pid.
    let versions_dir = root.join("versions");
    let orphan_ver = versions_dir.join(format!(".v000002.slsnap.tmp.{}.0", u32::MAX));
    let orphan_cur = root.join(format!(".CURRENT.tmp.{}.1", u32::MAX));
    std::fs::write(&orphan_ver, snap.bytes()).expect("write orphan");
    std::fs::write(&orphan_cur, b"2").expect("write orphan pointer");

    // Re-open (a restarted publisher or a fresh loader): orphans gone,
    // published state byte-identical.
    let registry = ModelRegistry::open(&root).expect("re-open registry");
    assert!(!orphan_ver.exists(), "orphaned version temp not swept");
    assert!(!orphan_cur.exists(), "orphaned CURRENT temp not swept");
    assert_eq!(registry.versions().expect("versions"), vec![1]);
    assert_eq!(registry.current_version().expect("current"), Some(1));
    let model =
        slide_quant::snapshot::load(&registry.current_path().expect("path").expect("published"))
            .expect("v1 still loads after sweep");
    assert_eq!(answers(&model), want, "sweep must not disturb v1's bytes");

    // The next publish after the crash allocates v2 cleanly.
    assert_eq!(registry.publish(snap.bytes()).expect("publish v2"), 2);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rollback_round_trips_to_the_previous_models_answers() {
    let root = tmp_root("rollback");
    let registry = ModelRegistry::open(&root).expect("open registry");
    let snap_a = Snapshot::build(&tiny_net(1), &SnapshotSpec::i8()).expect("snapshot a");
    let snap_b = Snapshot::build(&tiny_net(2), &SnapshotSpec::i8()).expect("snapshot b");
    let want_a = answers(&snap_a.model().expect("model a"));
    let want_b = answers(&snap_b.model().expect("model b"));

    let load_current = || {
        let path = registry
            .current_path()
            .expect("current readable")
            .expect("something published");
        slide_quant::snapshot::load(&path).expect("load current")
    };

    registry.publish(snap_a.bytes()).expect("publish a");
    registry.publish(snap_b.bytes()).expect("publish b");
    assert_eq!(answers(&load_current()), want_b, "live model should be B");

    let live = registry.rollback().expect("rollback");
    assert_eq!(live, 1);
    assert_eq!(
        answers(&load_current()),
        want_a,
        "rollback must serve the previous model's exact answers"
    );

    // Roll forward again via activate: the pair is fully reversible.
    registry.activate(2).expect("activate v2");
    assert_eq!(answers(&load_current()), want_b);
    let _ = std::fs::remove_dir_all(&root);
}
