// Wire types for the cluster protocol. The server handlers decode these
// and the node loops encode them, so both ends share one declaration.
package cluster

// ForwardedHeader marks a request that already crossed the proxy layer.
// A node receiving it scores every record locally — even ones the ring
// says belong elsewhere — so a membership disagreement between two nodes
// degrades to misplaced ownership, never a forwarding loop.
const ForwardedHeader = "X-Streamad-Forwarded"

// MigrateRequest is the body of POST /v1/streams/{id}/migrate: the
// stream's versioned CRC snapshot file, the WAL records past its
// boundary, and the CRC-32C fingerprint of the source's live state that
// the target must reproduce after replay before acknowledging.
//
// The only floats are WALEntry vectors, finite by construction at ingest.
type MigrateRequest struct {
	// Node is the sending node's advertised URL (diagnostics only).
	Node string `json:"node"`
	// Snapshot is a persist snapshot file (magic, version, CRC, body) —
	// base64 in JSON, verified by persist.DecodeSnapshotFile on receipt.
	Snapshot []byte `json:"snapshot"`
	// WAL is the record tail with seq >= the snapshot's boundary.
	WAL []WALEntry `json:"wal,omitempty"`
	// Fingerprint is the source's live-state CRC-32C (see ingest.Handoff).
	Fingerprint uint32 `json:"fingerprint"`
}

// WALEntry is one logged observation, as shipped in migrations and
// streamed (NDJSON) by GET /v1/streams/{id}/wal. Vectors entered the
// system through observe handlers that reject non-finite values and
// are replayed verbatim.
type WALEntry struct {
	Seq    uint64    `json:"seq"`
	Vector []float64 `json:"vector"`
}

// MigrateResponse acknowledges an adopted stream; Fingerprint echoes the
// CRC the target recomputed from its own post-replay state.
type MigrateResponse struct {
	Node        string `json:"node"`
	Fingerprint uint32 `json:"fingerprint"`
}

// WALGone is the 410 body of a WAL tail request from below the owner's
// last snapshot rotation: the records are folded into the snapshot, and
// the follower must refetch it and resume from SnapshotSeq.
type WALGone struct {
	Error       string `json:"error"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
}
