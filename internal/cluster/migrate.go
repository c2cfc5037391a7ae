// Outbound stream migration. When the ring says a locally-live stream
// belongs to another node (a peer came back, or this node just booted
// with restored state it no longer owns), the rebalancer quiesces it,
// ships its live snapshot file to the owner, and releases local state
// only after the owner acknowledges with a matching state fingerprint. Any
// failure reinstates the stream locally — the state is never in zero
// places.
package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"streamad/internal/persist"
)

// rebalanceLoop periodically migrates misplaced local streams out.
func (n *Node) rebalanceLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.RebalanceInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.rebalanceOnce()
		}
	}
}

// rebalanceOnce migrates every local stream whose ring owner is another
// live node. Streams owned by a down node stay put: this node is serving
// them on the ring's authority and will hand them over when the owner
// returns.
func (n *Node) rebalanceOnce() {
	for _, info := range n.reg.Streams() {
		owner := n.Owner(info.ID)
		if owner == n.self || !n.PeerAlive(owner) {
			continue
		}
		select {
		case <-n.stop:
			return
		default:
		}
		n.migrateOut(info.ID, owner)
	}
}

// migrateOut hands one stream to its owner. Handoff detaches the quiesced
// state from the registry; from then until the owner's fingerprint-checked
// ack (followed by dropping local disk state) or reinstatement via Adopt,
// this node holds the only copy in snap.
func (n *Node) migrateOut(id, owner string) {
	snap, err := n.reg.Handoff(id)
	if err != nil {
		return // raced an eviction or a concurrent handoff; nothing detached
	}
	if err := n.sendMigration(id, owner, snap); err != nil {
		n.migOutErr.Add(1)
		n.cfg.Logf("streamad: cluster migrate %q to %s failed (reinstating): %v", id, owner, err)
		if _, aerr := n.reg.Adopt(id, snap, nil); aerr != nil {
			n.cfg.Logf("streamad: cluster reinstate %q: %v", id, aerr)
		}
		return
	}
	n.migOutOK.Add(1)
	n.cfg.Logf("streamad: cluster migrated %q to %s at seq %d", id, owner, snap.Seq)
	if err := n.reg.DropPersisted(id); err != nil {
		n.cfg.Logf("streamad: cluster drop persisted state of migrated %q: %v", id, err)
	}
}

// sendMigration posts the stream's snapshot file to the owner's migrate
// endpoint and verifies the echoed fingerprint. The target already
// refused (409) any state it could not reproduce bit-identically, so a
// mismatched echo here means a protocol bug, not data loss — but it
// still fails the migration so the source reinstates.
func (n *Node) sendMigration(id, owner string, snap *persist.StreamSnapshot) error {
	file, err := persist.EncodeSnapshotFile(snap)
	if err != nil {
		return err
	}
	target := owner + "/v1/streams/" + url.PathEscape(id) + "/migrate"
	resp, err := n.client.Post(target, "application/octet-stream", bytes.NewReader(file))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: %s rejected migration: %s: %s", owner, resp.Status, bytes.TrimSpace(msg))
	}
	if got, want := resp.Header.Get(FingerprintHeader), fmt.Sprintf("%08x", persist.Fingerprint(snap)); got != want {
		return fmt.Errorf("cluster: %s acknowledged fingerprint %q, want %s", owner, got, want)
	}
	return nil
}
