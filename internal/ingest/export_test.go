package ingest

// WaitIdle blocks until each live stream of ids has no queued or
// in-flight work. An observe is answered before its dispatcher clears
// the busy flag, so a test that pages or evicts right after its last
// observe waits here first.
func (r *Registry) WaitIdle(ids ...string) {
	for _, id := range ids {
		sh := r.shardFor(id)
		sh.mu.Lock()
		st, ok := sh.streams[id]
		sh.mu.Unlock()
		if !ok {
			continue
		}
		st.qmu.Lock()
		for st.busy || len(st.queue) > 0 {
			st.notFull.Wait()
		}
		st.qmu.Unlock()
	}
}
