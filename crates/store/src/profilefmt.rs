//! The `tpst` artifact format: versioned, checksummed binary encoding
//! of sweep artifacts.
//!
//! Layout (little-endian, in the style of the `tpdb` guest binary
//! format in `tpdbt-isa`):
//!
//! ```text
//! magic    "TPST"           4 bytes
//! version  u16              currently 1
//! key      u64              digest of the cache key that produced this
//! kind     u8               0 = plain, 1 = cell, 2 = base (3 retired)
//! payload                   kind-specific (varints + raw f64 bits)
//! checksum u64              FNV-1a 64 of all preceding bytes
//! ```
//!
//! Decoding verifies magic, version, and checksum **before** parsing
//! the payload, so a truncated or bit-flipped file is always reported
//! as an error ([`StoreError`]) — corruption is recomputable, never a
//! panic. Enum codes ([`TermKind::code`], [`SuccSlot::code`]) are
//! append-only; bumping [`VERSION`] invalidates every cache entry.

use std::collections::BTreeMap;

use tpdbt_profile::{BlockRecord, PlainProfile, SuccSlot, TermKind, ThresholdMetrics};

use crate::codec::{Reader, Writer};
use crate::digest::fnv64;
use crate::error::StoreError;

/// Artifact magic.
pub const MAGIC: &[u8; 4] = b"TPST";
/// Current format version.
pub const VERSION: u16 = 1;

/// A cached plain (no-optimization) run: the `AVEP` or `INIP(train)`
/// profile plus the guest output words (kept verbatim so warm sweeps
/// can re-verify output determinism without re-executing).
#[derive(Clone, Debug, PartialEq)]
pub struct PlainArtifact {
    /// The whole-run profile.
    pub profile: PlainProfile,
    /// Guest output words of the run.
    pub output: Vec<i64>,
}

/// A cached `(benchmark, threshold)` sweep cell: the analyzed paper
/// metrics plus a digest of the guest output for divergence checks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellArtifact {
    /// The paper metrics of the `INIP(T)` run analyzed against AVEP.
    pub metrics: ThresholdMetrics,
    /// [`crate::digest::fnv64_words`] of the run's guest output.
    pub output_digest: u64,
}

/// A cached `T = 1` baseline run (Figure 17 denominator).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaseArtifact {
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// [`crate::digest::fnv64_words`] of the run's guest output.
    pub output_digest: u64,
}

/// Any storable artifact.
#[derive(Clone, Debug, PartialEq)]
pub enum Artifact {
    /// A plain profile run.
    Plain(PlainArtifact),
    /// An analyzed sweep cell.
    Cell(CellArtifact),
    /// A `T = 1` baseline.
    Base(BaseArtifact),
}

/// A concrete artifact kind that can be extracted from (and wrapped
/// back into) the [`Artifact`] enum. The store's generic typed lookup
/// ([`crate::ProfileStore::load_as`]) and the serve hot tier both
/// dispatch through this trait instead of hand-written per-kind
/// wrappers.
pub trait TypedArtifact: Sized {
    /// Stable lowercase kind name (store inspection, serve responses).
    const KIND: &'static str;

    /// Extracts this kind from `artifact`; `None` if it holds another.
    fn from_artifact(artifact: Artifact) -> Option<Self>;

    /// Wraps a value of this kind back into the enum.
    fn into_artifact(self) -> Artifact;
}

impl TypedArtifact for PlainArtifact {
    const KIND: &'static str = "plain";

    fn from_artifact(artifact: Artifact) -> Option<Self> {
        match artifact {
            Artifact::Plain(p) => Some(p),
            _ => None,
        }
    }

    fn into_artifact(self) -> Artifact {
        Artifact::Plain(self)
    }
}

impl TypedArtifact for CellArtifact {
    const KIND: &'static str = "cell";

    fn from_artifact(artifact: Artifact) -> Option<Self> {
        match artifact {
            Artifact::Cell(c) => Some(c),
            _ => None,
        }
    }

    fn into_artifact(self) -> Artifact {
        Artifact::Cell(self)
    }
}

impl TypedArtifact for BaseArtifact {
    const KIND: &'static str = "base";

    fn from_artifact(artifact: Artifact) -> Option<Self> {
        match artifact {
            Artifact::Base(b) => Some(b),
            _ => None,
        }
    }

    fn into_artifact(self) -> Artifact {
        Artifact::Base(self)
    }
}

const KIND_PLAIN: u8 = 0;
const KIND_CELL: u8 = 1;
const KIND_BASE: u8 = 2;
// Kind 3 held the retired merged fleet-consensus accumulator. Stores
// and hot-tier snapshots from earlier builds may still contain it, and
// they must keep decoding as `BadKind` (a recomputable miss): never
// reuse the code.

impl Artifact {
    fn kind(&self) -> u8 {
        match self {
            Artifact::Plain(_) => KIND_PLAIN,
            Artifact::Cell(_) => KIND_CELL,
            Artifact::Base(_) => KIND_BASE,
        }
    }
}

/// Encodes `artifact` under `key_digest` into a self-contained byte
/// buffer.
#[must_use]
pub fn encode(key_digest: u64, artifact: &Artifact) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(MAGIC[0]);
    w.u8(MAGIC[1]);
    w.u8(MAGIC[2]);
    w.u8(MAGIC[3]);
    w.u16(VERSION);
    w.u64(key_digest);
    w.u8(artifact.kind());
    match artifact {
        Artifact::Plain(p) => encode_plain(&mut w, p),
        Artifact::Cell(c) => encode_cell(&mut w, c),
        Artifact::Base(b) => {
            w.varint(b.cycles);
            w.u64(b.output_digest);
        }
    }
    let checksum = fnv64(w.as_bytes());
    w.u64(checksum);
    w.into_bytes()
}

/// Decodes an artifact, returning the embedded key digest and payload.
///
/// # Errors
///
/// [`StoreError::BadMagic`] / [`StoreError::BadVersion`] for foreign
/// files, [`StoreError::Checksum`] for corruption,
/// [`StoreError::UnexpectedEof`] / [`StoreError::BadCode`] /
/// [`StoreError::BadKind`] for structurally malformed payloads.
pub fn decode(bytes: &[u8]) -> Result<(u64, Artifact), StoreError> {
    // Trailer first: nothing below parses unchecksummed bytes.
    if bytes.len() < 4 + 2 + 8 + 1 + 8 {
        return Err(StoreError::UnexpectedEof {
            offset: bytes.len(),
        });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if bytes[..4] != MAGIC[..] {
        return Err(StoreError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(StoreError::BadVersion { found: version });
    }
    if fnv64(body) != stored {
        return Err(StoreError::Checksum);
    }

    let mut r = Reader::new(body);
    for _ in 0..4 {
        r.u8()?;
    }
    r.u16()?;
    let key_digest = r.u64()?;
    let kind = r.u8()?;
    let artifact = match kind {
        KIND_PLAIN => Artifact::Plain(decode_plain(&mut r)?),
        KIND_CELL => Artifact::Cell(decode_cell(&mut r)?),
        KIND_BASE => Artifact::Base(BaseArtifact {
            cycles: r.varint()?,
            output_digest: r.u64()?,
        }),
        found => return Err(StoreError::BadKind { found }),
    };
    if r.remaining() != 0 {
        return Err(StoreError::BadCode {
            what: "trailing payload bytes",
            code: r.remaining() as u64,
        });
    }
    Ok((key_digest, artifact))
}

fn encode_plain(w: &mut Writer, p: &PlainArtifact) {
    w.varint(p.profile.entry as u64);
    w.varint(p.profile.profiling_ops);
    w.varint(p.profile.instructions);
    w.varint(p.profile.blocks.len() as u64);
    for (&pc, rec) in &p.profile.blocks {
        w.varint(pc as u64);
        w.varint(u64::from(rec.len));
        w.u8(rec.kind.map_or(0, |k| k.code() + 1));
        w.varint(rec.use_count);
        w.varint(rec.edges.len() as u64);
        for &(slot, target, count) in &rec.edges {
            w.varint(slot.code());
            w.varint(target as u64);
            w.varint(count);
        }
    }
    w.varint(p.output.len() as u64);
    for &word in &p.output {
        w.varint_i64(word);
    }
}

fn decode_plain(r: &mut Reader<'_>) -> Result<PlainArtifact, StoreError> {
    let entry = usize_field(r.varint()?, "entry pc")?;
    let profiling_ops = r.varint()?;
    let instructions = r.varint()?;
    let nblocks = r.len_capped(4)?;
    let mut blocks = BTreeMap::new();
    for _ in 0..nblocks {
        let pc = usize_field(r.varint()?, "block pc")?;
        let len = u32_field(r.varint()?, "block length")?;
        let kind = match r.u8()? {
            0 => None,
            tagged => match TermKind::from_code(tagged - 1) {
                Some(k) => Some(k),
                None => {
                    return Err(StoreError::BadCode {
                        what: "terminator kind",
                        code: u64::from(tagged),
                    })
                }
            },
        };
        let use_count = r.varint()?;
        let nedges = r.len_capped(3)?;
        let mut edges = Vec::with_capacity(nedges);
        for _ in 0..nedges {
            let slot_code = r.varint()?;
            let slot = SuccSlot::from_code(slot_code).ok_or(StoreError::BadCode {
                what: "successor slot",
                code: slot_code,
            })?;
            let target = usize_field(r.varint()?, "edge target")?;
            let count = r.varint()?;
            edges.push((slot, target, count));
        }
        blocks.insert(
            pc,
            BlockRecord {
                len,
                kind,
                use_count,
                edges,
            },
        );
    }
    let noutput = r.len_capped(1)?;
    let mut output = Vec::with_capacity(noutput);
    for _ in 0..noutput {
        output.push(r.varint_i64()?);
    }
    Ok(PlainArtifact {
        profile: PlainProfile {
            blocks,
            entry,
            profiling_ops,
            instructions,
        },
        output,
    })
}

fn encode_cell(w: &mut Writer, c: &CellArtifact) {
    let m = &c.metrics;
    w.varint(m.threshold);
    w.opt_f64(m.sd_bp);
    w.opt_f64(m.bp_mismatch);
    w.opt_f64(m.sd_cp);
    w.opt_f64(m.sd_lp);
    w.opt_f64(m.lp_mismatch);
    w.varint(m.profiling_ops);
    w.varint(m.cycles);
    w.varint(m.regions as u64);
    w.u64(c.output_digest);
}

fn decode_cell(r: &mut Reader<'_>) -> Result<CellArtifact, StoreError> {
    Ok(CellArtifact {
        metrics: ThresholdMetrics {
            threshold: r.varint()?,
            sd_bp: r.opt_f64()?,
            bp_mismatch: r.opt_f64()?,
            sd_cp: r.opt_f64()?,
            sd_lp: r.opt_f64()?,
            lp_mismatch: r.opt_f64()?,
            profiling_ops: r.varint()?,
            cycles: r.varint()?,
            regions: usize_field(r.varint()?, "region count")?,
        },
        output_digest: r.u64()?,
    })
}

fn usize_field(v: u64, what: &'static str) -> Result<usize, StoreError> {
    usize::try_from(v).map_err(|_| StoreError::BadCode { what, code: v })
}

fn u32_field(v: u64, what: &'static str) -> Result<u32, StoreError> {
    u32::try_from(v).map_err(|_| StoreError::BadCode { what, code: v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_profile::BlockPc;

    fn sample_profile() -> PlainProfile {
        let mut blocks = BTreeMap::new();
        blocks.insert(
            0 as BlockPc,
            BlockRecord {
                len: 4,
                kind: Some(TermKind::Cond),
                use_count: 1000,
                edges: vec![(SuccSlot::Taken, 8, 700), (SuccSlot::Fallthrough, 4, 300)],
            },
        );
        blocks.insert(
            8,
            BlockRecord {
                len: 2,
                kind: Some(TermKind::Return),
                use_count: 700,
                edges: vec![(SuccSlot::Other(0), 0, 650), (SuccSlot::Other(1), 12, 50)],
            },
        );
        PlainProfile {
            blocks,
            entry: 0,
            profiling_ops: 2700,
            instructions: 5400,
        }
    }

    #[test]
    fn plain_round_trip() {
        let artifact = Artifact::Plain(PlainArtifact {
            profile: sample_profile(),
            output: vec![42, -7, i64::MAX],
        });
        let bytes = encode(0xDEAD_BEEF, &artifact);
        let (key, decoded) = decode(&bytes).unwrap();
        assert_eq!(key, 0xDEAD_BEEF);
        assert_eq!(decoded, artifact);
    }

    #[test]
    fn cell_round_trip() {
        let artifact = Artifact::Cell(CellArtifact {
            metrics: ThresholdMetrics {
                threshold: 2000,
                sd_bp: Some(0.137),
                bp_mismatch: Some(0.25),
                sd_cp: None,
                sd_lp: Some(0.02),
                lp_mismatch: None,
                profiling_ops: 123_456,
                cycles: 9_876_543,
                regions: 17,
            },
            output_digest: 0x0123_4567_89AB_CDEF,
        });
        let bytes = encode(7, &artifact);
        assert_eq!(decode(&bytes).unwrap(), (7, artifact));
    }

    #[test]
    fn base_round_trip() {
        let artifact = Artifact::Base(BaseArtifact {
            cycles: u64::MAX,
            output_digest: 3,
        });
        let bytes = encode(9, &artifact);
        assert_eq!(decode(&bytes).unwrap(), (9, artifact));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let artifact = Artifact::Base(BaseArtifact {
            cycles: 1,
            output_digest: 2,
        });
        let good = encode(0, &artifact);
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(decode(&bad_magic), Err(StoreError::BadMagic)));
        let mut bad_version = good;
        bad_version[4] = 0xFE;
        assert!(matches!(
            decode(&bad_version),
            Err(StoreError::BadVersion { .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let artifact = Artifact::Plain(PlainArtifact {
            profile: sample_profile(),
            output: vec![1, 2, 3],
        });
        let good = encode(0xAB, &artifact);
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let artifact = Artifact::Cell(CellArtifact {
            metrics: ThresholdMetrics {
                threshold: 100,
                sd_bp: Some(0.5),
                bp_mismatch: None,
                sd_cp: None,
                sd_lp: None,
                lp_mismatch: None,
                profiling_ops: 10,
                cycles: 20,
                regions: 1,
            },
            output_digest: 5,
        });
        let good = encode(1, &artifact);
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "prefix {cut} decoded");
        }
    }
}
