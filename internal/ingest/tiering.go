// Stream tiering: the residency ladder between fully-hot and
// cold-evicted. A hot stream idle past WarmAfter is demoted to warm —
// its detector's window state (representation ring, training set, drift
// reference, scorer windows) is written to a slot of the store's swap
// file and its backing storage freed, while the model stays resident.
// The next observe pages it back in under the stream's processing lock,
// bit-identically. A demotion checkpoints nothing: a warm stream is as
// durable as a hot one (snapshot at S plus WAL from S), pages are a cache
// no restore reads, and whoever checkpoints a warm stream pages it in and
// out again under one procMu hold, unseen by the ladder (checkpointLocked).
// Warm streams idle past StreamTTL fall off the ladder via cold eviction.
package ingest

import (
	"fmt"
	"time"

	"streamad/internal/core"
)

// forEach calls fn for every live stream, outside the shard locks.
func (r *Registry) forEach(fn func(*stream)) {
	for _, sh := range r.shards {
		sh.mu.Lock()
		streams := make([]*stream, 0, len(sh.streams))
		for _, st := range sh.streams {
			streams = append(streams, st)
		}
		sh.mu.Unlock()
		for _, st := range streams {
			fn(st)
		}
	}
}

// forIdle is forEach over the streams with no observe since cutoff and
// no queued or in-flight work; an observe racing fn follows it on procMu.
func (r *Registry) forIdle(cutoff time.Time, fn func(*stream)) {
	before := cutoff.UnixNano()
	r.forEach(func(st *stream) {
		if st.lastTouch.Load() > before {
			return
		}
		st.qmu.Lock()
		idle := len(st.queue) == 0 && !st.busy && !st.closed
		st.qmu.Unlock()
		if idle {
			fn(st)
		}
	})
}

// PageIdle demotes every hot, idle, pageable stream whose last observe
// is older than WarmAfter to the warm tier, and returns how many it
// demoted. Safe to call concurrently with ingestion: a racing observe
// simply pages the stream straight back in.
func (r *Registry) PageIdle(now time.Time) int {
	if r.cfg.WarmAfter <= 0 || r.cfg.Store == nil {
		return 0
	}
	paged := 0
	r.forIdle(now.Add(-r.cfg.WarmAfter), func(st *stream) {
		pager, ok := st.det.(core.Pager)
		if !ok || Tier(st.tier.Load()) != TierHot {
			return // warm already, or nothing to page (a standalone tier-0 detector): hot until cold eviction
		}
		if err := r.pageOut(st, pager); err != nil {
			r.cfg.Logf("streamad: page out %q: stream stays hot: %v", st.id, err)
			return
		}
		paged++
	})
	return paged
}

// pageOut demotes one stream to warm. Its WAL handle goes with the
// window (a warm stream holds no descriptor); the log stays, dirty or not.
func (r *Registry) pageOut(st *stream, pager core.Pager) error {
	st.procMu.Lock()
	defer st.procMu.Unlock()
	if pager.Paged() {
		return nil
	}
	blob, err := pager.PageOut()
	if err != nil {
		return err
	}
	if err := r.cfg.Store.WritePage(st.id, blob); err != nil {
		// Could not persist the page: repopulate from the in-memory blob
		// and stay hot.
		if rerr := pager.PageIn(blob); rerr != nil {
			return fmt.Errorf("%w (and page-in rollback failed: %v)", err, rerr)
		}
		return err
	}
	r.cfg.Store.ReleaseWAL(st.id)
	st.tier.Store(int32(TierWarm))
	r.met.hotToWarm.Add(1)
	return nil
}

// ensureResident makes a warm stream's window state resident; the
// caller holds procMu, which is what serializes concurrent observes into
// a single restore. A missing or damaged page rebuilds the stream from
// snapshot + WAL. With promote (or the slot lost) the stream goes hot;
// without, warm tells the caller, a checkpoint, that it owes a PageOut.
func (r *Registry) ensureResident(st *stream, promote bool) (warm bool, err error) {
	if Tier(st.tier.Load()) != TierWarm {
		return false, nil
	}
	if pager := st.det.(core.Pager); pager.Paged() {
		page, err := r.cfg.Store.ReadPageInto(st.id, r.borrow())
		if err == nil {
			err = pager.PageIn(page)
		}
		r.giveBack(page)
		if err != nil {
			r.cfg.Logf("streamad: page in %q: %v (rebuilding from snapshot + WAL)", st.id, err)
			if err := r.rebuildLocked(st); err != nil {
				return false, err
			}
			promote = true
		}
	}
	if !promote {
		return true, nil
	}
	if err := r.cfg.Store.RemovePage(st.id); err != nil {
		r.cfg.Logf("streamad: %v", err)
	}
	st.tier.Store(int32(TierHot))
	r.met.warmToHot.Add(1)
	return false, nil
}

// rebuildLocked is the page-in fallback: detector and thresholder are
// reset to a new stream's (a full Load also clears the paged flag) and
// restored as a restart would: snapshot if there is one, then the WAL,
// which a warm stream may well have. The stream object and st.seq stay.
func (r *Registry) rebuildLocked(st *stream) error {
	fresh, err := r.newStream(st.id)
	if err != nil {
		return err
	}
	defer closeDetector(fresh.det)
	was := st.seqDone
	st.th = fresh.th
	blank, err := buildSnapshot(st.id, fresh, nil)
	if err == nil {
		err = st.load(blank)
	}
	if err == nil {
		_, _, err = r.restoreLocked(st)
	}
	if err == nil && st.seqDone != was {
		err = fmt.Errorf("snapshot + WAL end at seq %d, the stream had consumed %d", st.seqDone, was)
	}
	return err
}
