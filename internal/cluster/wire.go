// Header names of the cluster protocol. Between nodes a stream's state
// travels only in persist's own file formats: a migration posts the
// stream's snapshot file, and a standby tails WAL-file bytes.
package cluster

// ForwardedHeader marks a request that already crossed the proxy layer.
// A node receiving it scores every record locally — even ones the ring
// says belong elsewhere — so a membership disagreement between two nodes
// degrades to misplaced ownership, never a forwarding loop.
const ForwardedHeader = "X-Streamad-Forwarded"

// FingerprintHeader carries, on a migration's 200, the CRC-32C the
// target's replica re-encoded to (persist.Fingerprint) as %08x. The
// source releases the stream only if it equals its own.
const FingerprintHeader = "X-Streamad-Fingerprint"
