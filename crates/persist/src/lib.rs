//! # banks-persist
//!
//! Durable persistence for BANKS graphs: epoch-versioned binary
//! **snapshots**, a mutation **write-ahead log**, and the **crash
//! recovery** protocol that stitches them back together.
//!
//! The paper's engines all search one immutable graph version; PR 5 made
//! versions cheap to produce (copy-on-write mutation batches, each minting
//! a fresh epoch).  This crate makes them survive the process:
//!
//! - [`snapshot`] — a checksummed, tagged-record binary format that
//!   serializes the flat CSR arrays **verbatim** (weights as raw IEEE-754
//!   bit patterns, rows in their canonical order), so a loaded graph is
//!   bit-identical to the written one and every engine answers queries
//!   identically.  CSR payloads are page-aligned within the file.
//! - [`wal`] — an append-only log of accepted mutation batches, written
//!   *before* the in-memory snapshot pointer swings, with a configurable
//!   [`FsyncPolicy`].  A torn final record (the signature of a crash) is
//!   detected by CRC and dropped, never replayed and never fatal.
//! - [`store`] — [`PersistentStore`] ties the two together: WAL-first
//!   apply, automatic rotation, [`checkpoint`](PersistentStore::checkpoint)
//!   (fresh snapshot + WAL truncation + pruning), and
//!   [`recover`]/[`replay_wal`] for boot.
//!
//! Everything decodes defensively: corrupt input yields a typed
//! [`PersistError`], never a panic, and recovery falls back past corrupt
//! snapshot files to the newest loadable one.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bytes;
pub mod crc;
pub mod error;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use error::{PersistError, Result};
pub use snapshot::{
    decode_snapshot, encode_snapshot, read_snapshot, write_snapshot, SnapshotContents,
    FORMAT_VERSION, PAGE_SIZE, SNAPSHOT_MAGIC,
};
pub use store::{
    chain_step, list_snapshots, recover, replay_wal, snapshot_file_name, BootSource, ChainStep,
    PersistOptions, PersistentStore, Recovery, SNAPSHOT_EXT, SNAPSHOT_PREFIX, WAL_FILE,
};
pub use wal::{
    decode_record, encode_record, read_strict, scan_bytes, scan_file, FsyncPolicy, Wal, WalRecord,
    WalScan, WAL_MAGIC, WAL_VERSION,
};
