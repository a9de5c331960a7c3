// Package wal implements the durability layer under a maintained
// adjacency view: a segmented write-ahead log of opaque records plus a
// checkpoint store, with the recovery discipline a crash-safe ingest
// engine needs — the paper's incidence→adjacency pipeline treats the
// edge stream as the source of truth (Definition I.3 folds over edge
// keys in arrival order), so the durable object is exactly that stream:
// replaying it over the last checkpoint reproduces the adjacency bit
// for bit, per the delta-identity grouping argument internal/stream
// relies on.
//
// # Log format
//
// A log is a directory of segment files named wal-<firstseq>.seg
// (sixteen lowercase hex digits). A segment is a back-to-back run of
// records with consecutive sequence numbers starting at the value in
// its file name; nothing else is stored, so the framing is the format:
//
//	offset 0  uint32 LE  payload length n (< 1 GiB)
//	offset 4  uint32 LE  CRC-32C (Castagnoli) over bytes [8, 16+n)
//	offset 8  uint64 LE  sequence number
//	offset 16 [n]byte    payload (opaque to this package)
//
// Sequence numbers are assigned densely from 1 by the Writer; a gap or
// repeat on replay is corruption (a lost or re-ordered segment), not a
// recoverable condition.
//
// # Durability policies
//
// The Writer fsyncs per Options.Policy: SyncEveryAppend acknowledges a
// record as durable before Append returns; SyncInterval bounds the
// un-synced window by Options.Interval (plus whatever the caller's own
// Sync calls add); SyncNever leaves persistence to the OS. DurableSeq
// reports the highest sequence number guaranteed on stable storage —
// the "acknowledged durable" boundary recovery promises to restore.
//
// # Recovery semantics
//
// ReplayFS validates every needed record's CRC and sequence number. An
// invalid record at the very tail of the log — an incomplete frame, or
// a checksum failure on the final frame of the last segment — is a torn
// write: the tail is truncated (the repair is written back to the file)
// and replay succeeds over the surviving prefix, which is exactly the
// prefix that was ever acknowledged durable. An invalid record anywhere
// else is mid-log corruption: replay stops with a *CorruptError
// (errors.Is(err, ErrCorrupt)) and repairs nothing, because records
// after the damage cannot be trusted to reconnect to the same history —
// returning a silently diverged view would violate the one invariant
// this package exists to keep.
//
// # Checkpoints
//
// A checkpoint is a run of tagged sections (internal/stream decides
// which, and what is in them) streamed into a temp file and published
// atomically: temp file, fsync, rename to ckpt-<seq>.ckpt, directory
// fsync. Each section is closed by its length and a CRC-32C, and a
// footer with the section count, the file's length and an end magic
// closes the file, so every byte is covered and a file cut anywhere
// fails validation (see checkpoint.go for the layout; a file of format 1,
// last written by PR 15, is refused by name). <seq> is the sequence
// number of the last record the checkpoint covers, so recovery is "load
// newest valid checkpoint, replay records > seq". A checkpoint that
// fails validation is skipped in favor of the next older one (stale
// checkpoint + longer WAL replay is the designed fallback); only when
// every checkpoint file is invalid does loading fail with the typed
// error. Segments wholly covered by a checkpoint are retired by
// RetireSegmentsFS, which bounds log growth.
package wal
