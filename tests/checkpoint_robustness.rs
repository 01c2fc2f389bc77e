//! Corrupt-input robustness for the MCCK/MCCX checkpoint formats, over
//! checkpoints of materialized and of streamed runs.
//!
//! Checkpoints are read back by a process that just crashed — possibly
//! *because* the machine is failing — so the reader must treat the file
//! as untrusted: every truncated, bit-flipped, wrong-version, or
//! wrong-magic stream produces a typed [`CheckpointError`], never a
//! panic, and never an allocation sized by corrupt data. A snapshot
//! that parses but belongs to a different run is rejected with a typed
//! [`SimError::BadCheckpoint`] before any state is rebuilt from it.

use mcc::core::checkpoint::{fnv1a_64, trace_fingerprint, CHECKPOINT_MAGIC};
use mcc::core::{
    stream_fingerprint, Checkpoint, CheckpointError, DirectorySim, DirectorySimConfig, FaultPlan,
    Protocol, RunSpec, SimError, SimResult,
};
use mcc::execsim::{ExecCheckpoint, ExecSim, ExecSimConfig};
use mcc::trace::{Addr, MemRef, NodeId, Trace, TraceStream};
use mcc_prng::SplitMix64;

fn sample_trace(nodes: u16) -> Trace {
    let mut t = Trace::new();
    for round in 0..5u64 {
        for obj in 0..6u64 {
            let n = NodeId::new(((round + obj) % u64::from(nodes)) as u16);
            t.push(MemRef::read(n, Addr::new(obj * 64)));
            t.push(MemRef::write(n, Addr::new(obj * 64)));
        }
    }
    t
}

fn sample_sim() -> DirectorySim {
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    DirectorySim::new(Protocol::Aggressive, &cfg).with_faults(FaultPlan::uniform(7, 30_000))
}

/// The sample trace as a generator stream.
fn sample_stream() -> TraceStream {
    let records: Vec<MemRef> = sample_trace(4).iter().copied().collect();
    TraceStream::from_generator(records.len() as u64, move |i| records[i as usize])
}

/// A representative mid-run checkpoint of a sharded materialized run,
/// serialized.
fn sample_bytes() -> Vec<u8> {
    checkpoint_bytes(sample_sim().checkpoint_after(&sample_trace(4), 2, 20))
}

/// The same cut of the same sharded run, driven by a stream.
fn stream_sample_bytes() -> Vec<u8> {
    checkpoint_bytes(sample_sim().checkpoint_after(&sample_stream(), 2, 20))
}

fn checkpoint_bytes(ck: Result<Checkpoint, SimError>) -> Vec<u8> {
    let mut bytes = Vec::new();
    ck.expect("prefix replays cleanly")
        .write_to(&mut bytes)
        .expect("vec write");
    bytes
}

/// Both samples, labelled for assertion messages.
fn samples() -> [(&'static str, Vec<u8>); 2] {
    [
        ("materialized", sample_bytes()),
        ("streamed", stream_sample_bytes()),
    ]
}

/// Re-seals an edited payload under a fresh checksum, so the decoder
/// itself — not the checksum — has to catch what was planted in it.
fn reseal(bytes: &mut [u8]) {
    let sum = fnv1a_64(&bytes[24..]);
    bytes[16..24].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn every_truncation_is_a_typed_error() {
    for (kind, bytes) in samples() {
        assert!(bytes.len() > 24, "{kind} sample must be non-trivial");
        for len in 0..bytes.len() {
            match Checkpoint::read_from(&mut &bytes[..len]) {
                Err(_) => {}
                Ok(_) => panic!("{kind}: truncation to {len} bytes parsed as a whole checkpoint"),
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    // Unlike a trace, a checkpoint carries a whole-payload checksum, so
    // corruption anywhere — header, length, checksum, payload — must be
    // *detected*, not merely decoded differently.
    for (kind, bytes) in samples() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        let mut positions: Vec<usize> = (0..32.min(bytes.len())).collect();
        for _ in 0..256 {
            positions.push(rng.gen_range(0..bytes.len() as u64) as usize);
        }
        for pos in positions {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    Checkpoint::read_from(&mut &corrupt[..]).is_err(),
                    "{kind}: flipping bit {bit} of byte {pos} was silently absorbed"
                );
            }
        }
    }
}

#[test]
fn wrong_version_and_wrong_magic_are_distinct_errors() {
    let bytes = sample_bytes();

    let mut wrong_version = bytes.clone();
    wrong_version[4] = 9; // the version byte of the MCCK magic
    let err = Checkpoint::read_from(&mut &wrong_version[..]).unwrap_err();
    assert!(
        matches!(err, CheckpointError::UnsupportedVersion(9)),
        "got {err}"
    );

    let mut wrong_magic = bytes.clone();
    wrong_magic[..4].copy_from_slice(b"MCCT"); // a trace, not a checkpoint
    let err = Checkpoint::read_from(&mut &wrong_magic[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::BadMagic), "got {err}");

    // Checksum damage reports as exactly that.
    let mut bad_sum = bytes.clone();
    let n = bad_sum.len();
    bad_sum[n - 1] ^= 0xFF; // last payload byte
    let err = Checkpoint::read_from(&mut &bad_sum[..]).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ChecksumMismatch { .. }),
        "got {err}"
    );
}

#[test]
fn trailing_bytes_after_the_envelope_are_rejected() {
    let mut bytes = sample_bytes();
    bytes.extend_from_slice(&[0xAB, 0xCD]);
    let err = Checkpoint::read_from(&mut &bytes[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt(_)), "got {err}");
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SplitMix64::new(0xDEC0DE);
    for _ in 0..512 {
        let len = rng.gen_range(0..512) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256) as u8).collect();
        let _ = Checkpoint::read_from(&mut &garbage[..]);
        let _ = ExecCheckpoint::read_from(&mut &garbage[..]);
    }
    // Garbage wearing a valid magic must still fail cleanly on the body.
    for magic_garbage in 0..128 {
        let mut bytes = Vec::from(CHECKPOINT_MAGIC);
        let len = rng.gen_range(0..256) as usize;
        bytes.extend((0..len).map(|_| rng.gen_range(0..256) as u8));
        let _ = Checkpoint::read_from(&mut &bytes[..]);
        let _ = magic_garbage;
    }
}

#[test]
fn hostile_counts_inside_the_payload_do_not_allocate() {
    // A 16 MB "length" on an 80-byte stream must fail on the evidence
    // of the stream, not trust the prefix with an allocation.
    let mut bytes = Vec::from(CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd payload length
    bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum
    bytes.extend_from_slice(&[0u8; 64]); // far less than promised
    let err = Checkpoint::read_from(&mut &bytes[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::Truncated), "got {err}");

    // A hostile shard count behind an intact checksum: the count sits
    // right after the source length and identity.
    let samples = [
        (sample_bytes(), trace_fingerprint(&sample_trace(4))),
        (
            stream_sample_bytes(),
            stream_fingerprint(&sample_stream()).expect("probe"),
        ),
    ];
    for (bytes, identity) in samples {
        let ck = Checkpoint::read_from(&mut &bytes[..]).expect("sample reads back");
        let mut needle = ck.total_records().to_le_bytes().to_vec();
        needle.extend_from_slice(&identity.to_le_bytes());
        needle.extend_from_slice(&(ck.shard_count() as u32).to_le_bytes());
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("the shard count follows the identity")
            + 16;
        let mut hostile = bytes.clone();
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut hostile);
        let err = Checkpoint::read_from(&mut &hostile[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated), "got {err}");
    }
}

#[test]
fn old_formats_are_rejected_with_typed_errors() {
    // Version 2 of MCCK (per-shard sub-trace cursors) and the retired
    // MCCS stream format both predate the one absolute-cursor format.
    let bytes = sample_bytes();
    let mut v2 = bytes.clone();
    v2[4] = 2;
    let err = Checkpoint::read_from(&mut &v2[..]).unwrap_err();
    assert!(
        matches!(err, CheckpointError::UnsupportedVersion(2)),
        "got {err}"
    );
    let mut mccs = bytes;
    mccs[..8].copy_from_slice(b"MCCS\x01\0\0\0");
    let err = Checkpoint::read_from(&mut &mccs[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::BadMagic), "got {err}");
}

#[test]
fn loading_a_missing_file_is_an_io_error() {
    let path = std::env::temp_dir().join(format!(
        "mcc-checkpoint-does-not-exist-{}",
        std::process::id()
    ));
    let err = Checkpoint::load(&path).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "got {err}");
    let err = ExecCheckpoint::load(&path).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "got {err}");
}

/// Continues `ck` over `trace`.
fn resume(sim: &DirectorySim, trace: &Trace, ck: &Checkpoint) -> Result<SimResult, SimError> {
    let spec = RunSpec {
        shards: ck.shard_count(),
        resume: Some(ck),
        ..RunSpec::default()
    };
    sim.execute(trace, &spec)?.merged()
}

#[test]
fn mismatched_checkpoints_are_rejected_before_any_replay() {
    let trace = sample_trace(4);
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Basic, &cfg);
    let ck = sim.checkpoint_after(&trace, 1, 10).expect("prefix");

    // Different protocol.
    let other = DirectorySim::new(Protocol::Conventional, &cfg);
    let err = resume(&other, &trace, &ck).unwrap_err();
    assert!(matches!(err, SimError::BadCheckpoint { .. }), "{err}");

    // Different trace (the fingerprint in the snapshot disagrees).
    let mut reordered = sample_trace(4);
    reordered.push(MemRef::read(NodeId::new(0), Addr::new(0x9999)));
    let err = resume(&sim, &reordered, &ck).unwrap_err();
    assert!(matches!(err, SimError::BadCheckpoint { .. }), "{err}");

    // Different fault plan (reliable vs faulted).
    let faulted = DirectorySim::new(Protocol::Basic, &cfg).with_faults(FaultPlan::uniform(1, 1000));
    let err = resume(&faulted, &trace, &ck).unwrap_err();
    assert!(matches!(err, SimError::BadCheckpoint { .. }), "{err}");
}

/// Corrupt the newest snapshot every way the truncation/bit-flip
/// matrix knows, with a healthy rotated `.prev` generation beside it:
/// the fallback loader must recover the previous generation every
/// single time, report which generation it settled on, and carry the
/// typed error that disqualified the primary.
#[test]
fn every_corruption_of_the_primary_falls_back_to_the_previous_generation() {
    use mcc::core::checkpoint::prev_path;
    use mcc::core::{ChaosStorage, SnapshotGeneration, Storage, StorageFaultPlan};
    use std::path::Path;

    // The rotated previous generation: an earlier snapshot of the same
    // run (fewer records covered), byte-exactly distinguishable.
    let pairs = [
        (
            "materialized",
            sample_bytes(),
            checkpoint_bytes(sample_sim().checkpoint_after(&sample_trace(4), 2, 10)),
        ),
        (
            "streamed",
            stream_sample_bytes(),
            checkpoint_bytes(sample_sim().checkpoint_after(&sample_stream(), 2, 10)),
        ),
    ];
    let path = Path::new("run.ckpt");
    let prev_p = prev_path(path);
    for (kind, newest, prev_bytes) in pairs {
        assert_ne!(prev_bytes, newest);
        let mut corruptions: Vec<Vec<u8>> =
            (0..newest.len()).map(|n| newest[..n].to_vec()).collect();
        let mut rng = SplitMix64::new(0xFA11BACC);
        for _ in 0..128 {
            let pos = rng.gen_range(0..newest.len() as u64) as usize;
            let bit = rng.gen_range(0..8);
            let mut corrupt = newest.clone();
            corrupt[pos] ^= 1 << bit;
            corruptions.push(corrupt);
        }

        for (i, corrupt) in corruptions.iter().enumerate() {
            let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));
            fs.write_file(path, corrupt).unwrap();
            fs.write_file(&prev_p, &prev_bytes).unwrap();
            let recovered = Checkpoint::load_with_fallback_from(&fs, path)
                .unwrap_or_else(|e| panic!("{kind} corruption {i}: fallback loader failed: {e}"));
            assert_eq!(
                recovered.generation,
                SnapshotGeneration::Previous,
                "{kind} corruption {i} did not fall back"
            );
            let primary_error = recovered
                .primary_error
                .as_ref()
                .unwrap_or_else(|| panic!("{kind} corruption {i}: no primary error recorded"));
            assert!(!primary_error.class().is_empty());
            let mut round_trip = Vec::new();
            recovered.checkpoint.write_to(&mut round_trip).unwrap();
            assert_eq!(
                round_trip, prev_bytes,
                "{kind} corruption {i} recovered something other than the previous generation"
            );
        }
    }
}

/// Both generations unusable: the loader reports the *primary*'s typed
/// error (the newest evidence), not the fallback's.
#[test]
fn both_generations_corrupt_reports_the_primary_error() {
    use mcc::core::checkpoint::prev_path;
    use mcc::core::{ChaosStorage, Storage, StorageFaultPlan};
    use std::path::Path;

    let newest = sample_bytes();
    let path = Path::new("run.ckpt");
    let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));

    // Primary: checksum damage. Previous: truncated.
    let mut bad_sum = newest.clone();
    let n = bad_sum.len();
    bad_sum[n - 1] ^= 0xFF;
    fs.write_file(path, &bad_sum).unwrap();
    fs.write_file(&prev_path(path), &newest[..n / 2]).unwrap();

    let err = Checkpoint::load_with_fallback_from(&fs, path).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ChecksumMismatch { .. }),
        "expected the primary's checksum error, got {err}"
    );

    // No previous generation at all: still the primary's error.
    let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));
    fs.write_file(path, &bad_sum).unwrap();
    let err = Checkpoint::load_with_fallback_from(&fs, path).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ChecksumMismatch { .. }),
        "expected the primary's checksum error, got {err}"
    );
}

/// A healthy primary never consults the previous generation.
#[test]
fn healthy_primary_loads_as_the_current_generation() {
    use mcc::core::checkpoint::prev_path;
    use mcc::core::{ChaosStorage, SnapshotGeneration, Storage, StorageFaultPlan};
    use std::path::Path;

    let newest = sample_bytes();
    let path = Path::new("run.ckpt");
    let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));
    fs.write_file(path, &newest).unwrap();
    // A garbage .prev must not matter when the primary is healthy.
    fs.write_file(&prev_path(path), b"garbage").unwrap();

    let recovered = Checkpoint::load_with_fallback_from(&fs, path).expect("healthy primary");
    assert_eq!(recovered.generation, SnapshotGeneration::Current);
    assert!(recovered.primary_error.is_none());
}

#[test]
fn exec_checkpoints_survive_the_same_corruption_sweep() {
    let trace = sample_trace(4);
    let cfg = ExecSimConfig {
        nodes: 4,
        ..ExecSimConfig::default()
    };
    let ck = ExecSim::new(Protocol::Basic, &cfg)
        .checkpoint_after(&trace, 15)
        .expect("prefix");
    let mut bytes = Vec::new();
    ck.write_to(&mut bytes).expect("vec write");

    for len in 0..bytes.len() {
        assert!(
            ExecCheckpoint::read_from(&mut &bytes[..len]).is_err(),
            "truncation to {len} bytes parsed"
        );
    }
    let mut rng = SplitMix64::new(0xEC5);
    for _ in 0..256 {
        let pos = rng.gen_range(0..bytes.len() as u64) as usize;
        let bit = rng.gen_range(0..8) as u8;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;
        assert!(
            ExecCheckpoint::read_from(&mut &corrupt[..]).is_err(),
            "flipping bit {bit} of byte {pos} was silently absorbed"
        );
    }
    // An MCCK checkpoint is not an MCCX checkpoint, and vice versa.
    let err = ExecCheckpoint::read_from(&mut &sample_bytes()[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::BadMagic), "got {err}");
}

/// MCCX saves rotate like MCCK saves: a second save keeps the first as
/// `.prev`, and a newest file that no longer decodes loads the previous
/// generation — or, when neither decodes, reports the newest file's
/// error.
#[test]
fn exec_saves_keep_a_loadable_previous_generation() {
    use mcc::core::checkpoint::prev_path;

    let trace = sample_trace(4);
    let cfg = ExecSimConfig {
        nodes: 4,
        ..ExecSimConfig::default()
    };
    let sim = ExecSim::new(Protocol::Basic, &cfg);
    let first = sim.checkpoint_after(&trace, 10).expect("prefix");
    let second = sim.checkpoint_after(&trace, 20).expect("prefix");
    let bytes = |ck: &ExecCheckpoint| {
        let mut out = Vec::new();
        ck.write_to(&mut out).expect("vec write");
        out
    };
    let dir = std::env::temp_dir().join(format!("mcc-exec-generations-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.mccx");

    first.save(&path).unwrap();
    second.save(&path).unwrap();
    assert_eq!(bytes(&ExecCheckpoint::load(&path).unwrap()), bytes(&second));
    let previous = std::fs::read(prev_path(&path)).unwrap();
    let decoded = ExecCheckpoint::read_from(&mut &previous[..]).expect("the first save survives");
    assert_eq!(bytes(&decoded), bytes(&first));

    // Truncate the newest file: the previous generation loads instead.
    let newest = std::fs::read(&path).unwrap();
    std::fs::write(&path, &newest[..newest.len() / 2]).unwrap();
    let recovered = ExecCheckpoint::load(&path).expect("falls back to .prev");
    assert_eq!(bytes(&recovered), bytes(&first));
    assert_eq!(recovered.processed(), 10);

    // Both generations corrupt: the newest file's error, not the
    // fallback's.
    let mut flipped = newest.clone();
    *flipped.last_mut().unwrap() ^= 0xFF;
    std::fs::write(&path, &flipped).unwrap();
    std::fs::write(prev_path(&path), b"garbage").unwrap();
    let err = ExecCheckpoint::load(&path).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ChecksumMismatch { .. }),
        "expected the newest file's checksum error, got {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
