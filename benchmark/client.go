package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"streamad/internal/scenario"
)

// streamState is the generator's view of one server stream. gen is
// touched only by the goroutine that builds request bodies; everything
// else only by the goroutine that checks responses. A stream belongs to
// exactly one connection, so neither needs a lock.
type streamState struct {
	id      string
	gen     scenario.Stream
	verify  bool
	nextSeq uint64 // seq the next response record must carry
	// Timed-phase outcomes, in per-stream order.
	truth, alert []bool
	digest       uint64 // FNV-64a over verified records, folded in seq order
}

// fleet is all streams of a run plus the failure accounting.
type fleet struct {
	wl      *workload
	streams []*streamState

	mu        sync.Mutex
	failed    int      // records that missed: transport, 5xx, inline error, bad seq…
	firstFail []string // a few examples, for the report

	// dial opens connection c to the server under test: loopback HTTP to
	// the streamadd process, or straight into a handler for the traced
	// replay and the tests. hook, when set, sees every timed request just
	// before it is sent. nocheck skips response checking (the generator
	// running against a null handler, to count its own allocations).
	dial    func(c int) *conn
	hook    func(c int, req *request)
	nocheck bool
}

func newFleet(in *inputs, dial func(c int) *conn) (*fleet, error) {
	gens, err := in.streams()
	if err != nil {
		return nil, err
	}
	f := &fleet{wl: in.wl, dial: dial, streams: make([]*streamState, len(gens))}
	for i, g := range gens {
		f.streams[i] = &streamState{id: in.wl.streamID(i), gen: g, digest: fnvOffset}
	}
	for _, i := range in.wl.verify {
		f.streams[i].verify = true
	}
	return f, nil
}

func (f *fleet) fail(n int, format string, args ...interface{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failed += n
	if len(f.firstFail) < 5 {
		f.firstFail = append(f.firstFail, fmt.Sprintf(format, args...))
	}
}

// request is one HTTP request in flight between the body builder and
// the sender; its buffers are recycled.
type request struct {
	single bool // body is one vector for POST /v1/streams/{id}/observe
	body   []byte
	recs   []int  // stream index of every record, in body order
	labels []bool // ground truth of every record
}

// build fills req with the records of entries, drawing the vectors from
// the streams' generators; single selects the one-vector body of
// POST /v1/streams/{id}/observe over NDJSON batch lines.
func (f *fleet) build(req *request, entries []entry, single bool) {
	req.single, req.body, req.recs, req.labels = single, req.body[:0], req.recs[:0], req.labels[:0]
	for _, e := range entries {
		st := f.streams[e.stream]
		for k := 0; k < e.n; k++ {
			vec, label := st.gen.Next()
			if single {
				req.body = appendSingleBody(req.body, vec)
			} else {
				req.body = appendBatchRecord(req.body, st.id, vec)
			}
			req.recs = append(req.recs, e.stream)
			req.labels = append(req.labels, label)
		}
	}
}

// conn is one keep-alive HTTP connection to the server.
type conn struct {
	client *http.Client
	base   string
	resp   bytes.Buffer
}

func newConn(base string) *conn {
	return newConnVia(&http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}, base)
}

// newConnVia is newConn over any transport (the replay's in-process one).
func newConnVia(rt http.RoundTripper, base string) *conn {
	return &conn{client: &http.Client{Transport: rt, Timeout: 60 * time.Second}, base: base}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends body and leaves the response in c.resp.
func (c *conn) post(path string, body []byte) (status int, err error) {
	resp, err := c.client.Post(c.base+path, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// send posts req and checks every response record. timed selects
// timed-phase rules: every record must be scored and its alert bit is
// kept for the quality metrics.
func (f *fleet) send(c *conn, req *request, timed bool) {
	path := "/v1/observe"
	if req.single {
		path = "/v1/streams/" + f.streams[req.recs[0]].id + "/observe"
	}
	status, err := c.post(path, req.body)
	if err != nil || status != http.StatusOK {
		f.fail(len(req.recs), "POST %s: status %d err %v: %.200s", path, status, err, c.resp.Bytes())
		for _, s := range req.recs { // keep later seq checks meaningful
			f.streams[s].nextSeq++
		}
		return
	}
	if f.nocheck {
		return
	}
	rest := c.resp.Bytes()
	for k, s := range req.recs {
		var line []byte
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			line, rest = rest, nil
		}
		if msg := f.checkRecord(f.streams[s], line, req.single, req.labels[k], timed); msg != "" {
			f.fail(1, "%s: %s: %.200s", f.streams[s].id, msg, line)
		}
	}
}

var (
	keySeq     = []byte(`"seq":`)
	keyStep    = []byte(`"step":`)
	keyReady   = []byte(`"ready":true`)
	keyAlert   = []byte(`"alert":true`)
	keyError   = []byte(`"error":`)
	keyShed    = []byte(`"shed":true`)
	keyDropped = []byte(`"dropped":true`)
)

// checkRecord validates one response record without a JSON decode (the
// generator must stay a small share of a 2-core box): stream id,
// contiguous seq, no inline failure, scored when timed. Verified
// streams are additionally fully decoded and folded into the digest. It
// returns "" or what was wrong.
func (f *fleet) checkRecord(st *streamState, line []byte, single, truth, timed bool) string {
	want := st.nextSeq
	st.nextSeq++
	key := keySeq
	if single {
		key = keyStep
	} else if !hasStreamID(line, st.id) {
		return "record is for another stream"
	}
	seq, ok := uintAfter(line, key)
	if !ok {
		return "no sequence number"
	}
	if seq != want {
		st.nextSeq = seq + 1
		return fmt.Sprintf("seq %d, want %d", seq, want)
	}
	if bytes.Contains(line, keyError) || bytes.Contains(line, keyShed) || bytes.Contains(line, keyDropped) {
		return "inline failure"
	}
	ready := bytes.Contains(line, keyReady)
	alert := bytes.Contains(line, keyAlert)
	if st.verify {
		var rec struct {
			Ready bool    `json:"ready"`
			Score float64 `json:"score"`
			Alert bool    `json:"alert"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return "bad json: " + err.Error()
		}
		if rec.Ready != ready || rec.Alert != alert {
			return "fast scan and full decode disagree"
		}
		st.digest = foldDigest(st.digest, seq, rec.Ready, rec.Score, rec.Alert)
	}
	if timed {
		if !ready {
			return "not scored in the timed phase"
		}
		st.truth = append(st.truth, truth)
		st.alert = append(st.alert, alert)
	}
	return ""
}

// hasStreamID reports whether a batch response line starts with
// {"stream":"<id>", — BatchResult's first field.
func hasStreamID(line []byte, id string) bool {
	const head = `{"stream":"`
	return len(line) > len(head)+len(id) && string(line[:len(head)]) == head &&
		string(line[len(head):len(head)+len(id)]) == id && line[len(head)+len(id)] == '"'
}

// uintAfter parses the unsigned integer that follows key in line.
func uintAfter(line, key []byte) (uint64, bool) {
	i := bytes.Index(line, key)
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(line) && line[j] >= '0' && line[j] <= '9' {
		j++
	}
	v, err := strconv.ParseUint(string(line[i:j]), 10, 64)
	return v, err == nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// foldDigest extends an FNV-64a digest with one scored record: its seq,
// the bits of the score as the wire carries it, and the ready and alert
// bits.
func foldDigest(d uint64, seq uint64, ready bool, score float64, alert bool) uint64 {
	var rec [18]byte
	binary.LittleEndian.PutUint64(rec[0:], seq)
	binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(score))
	if ready {
		rec[16] = 1
	}
	if alert {
		rec[17] = 1
	}
	for _, b := range rec {
		d ^= uint64(b)
		d *= fnvPrime
	}
	return d
}

// warmUp feeds every stream its warm-up prefix, each connection serving
// the streams it owns: through the batch endpoint in chunks of
// consecutive vectors, or one vector per POST for the single-observe
// workload, whose users warm up that way too.
//
//streamad:lifecycle — one goroutine per connection, joined before return.
func (f *fleet) warmUp() {
	own := f.wl.streams / f.wl.conns
	single := f.wl.shape == shapeSingle
	chunk := 4096 / own
	if chunk > 32 {
		chunk = 32
	}
	if chunk < 1 || single {
		chunk = 1
	}
	var wg sync.WaitGroup
	for c := 0; c < f.wl.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := f.dial(c)
			defer cn.close()
			var req request
			var entries []entry
			for sent := 0; sent < f.wl.warm; sent += chunk {
				n := chunk
				if f.wl.warm-sent < n {
					n = f.wl.warm - sent
				}
				entries = entries[:0]
				for s := c * own; s < (c+1)*own; s++ {
					entries = append(entries, entry{s, n})
				}
				if !single {
					f.build(&req, entries, false)
					f.send(cn, &req, false)
					continue
				}
				for _, e := range entries {
					f.build(&req, []entry{e}, true)
					f.send(cn, &req, false)
				}
			}
		}(c)
	}
	wg.Wait()
}

// probe sends one vector to every stream and requires a scored
// response: the restored server is serving all of them.
func (f *fleet) probe() {
	cn := f.dial(0)
	defer cn.close()
	var req request
	var entries []entry
	for s := range f.streams {
		entries = append(entries, entry{s, 1})
	}
	f.build(&req, entries, false)
	before := f.failed
	f.send(cn, &req, false)
	if f.failed == before && bytes.Count(cn.resp.Bytes(), keyReady) != len(f.streams) {
		f.fail(1, "probe: not every stream answered with a score")
	}
}

// timedResult is what the timed phase measured from the client side.
type timedResult struct {
	done      []completion // merged, completion-ordered
	elapsed   time.Duration
	clientCPU time.Duration
	bytesOut  int64 // request bytes sent
	bytesIn   int64 // response bytes received
}

// runTimed drives the workload's exact request quota at the server: one
// goroutine per connection sends and checks, one builds the next body
// while the previous request is in flight.
//
//streamad:lifecycle — sender and builder goroutines are joined before return.
func (f *fleet) runTimed(reqs int) timedResult {
	type lane struct {
		done     []completion
		out, in_ int64
	}
	lanes := make([]lane, f.wl.conns)
	interval := f.wl.intervalNs()
	cpu0 := selfCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < f.wl.conns; c++ {
		// Two request buffers circulate: one being built, one in flight.
		free := make(chan *request, 2)
		ready := make(chan *request, 2)
		free <- &request{}
		free <- &request{}
		wg.Add(2)
		go func(c int) {
			defer wg.Done()
			defer close(ready)
			var entries []entry
			for i := 0; i < reqs; i++ {
				req := <-free
				entries = f.wl.request(c, i, entries[:0])
				f.build(req, entries, f.wl.shape == shapeSingle)
				ready <- req
			}
		}(c)
		go func(c int) {
			defer wg.Done()
			cn := f.dial(c)
			defer cn.close()
			ln := &lanes[c]
			ln.done = make([]completion, 0, reqs)
			// Open-loop connections are offset by half a period so the
			// two never fire together by construction.
			phase := int64(c) * interval / int64(f.wl.conns)
			i := 0
			for req := range ready {
				var due, lag int64
				sent := time.Since(start).Nanoseconds()
				if f.wl.openLoop {
					due = phase + int64(i)*interval
					if wait := due - sent; wait > 0 {
						time.Sleep(time.Duration(wait))
						sent = time.Since(start).Nanoseconds()
					}
					lag = sent - due
				} else {
					due = sent
				}
				if f.hook != nil {
					f.hook(c, req)
				}
				f.send(cn, req, true)
				end := time.Since(start).Nanoseconds()
				ln.done = append(ln.done, completion{
					doneNs: end, latencyNs: end - due, lagNs: lag, records: int32(len(req.recs)),
				})
				ln.out += int64(len(req.body))
				ln.in_ += int64(cn.resp.Len())
				free <- req
				i++
			}
		}(c)
	}
	wg.Wait()
	res := timedResult{elapsed: time.Since(start), clientCPU: selfCPU() - cpu0}
	for _, ln := range lanes {
		res.done = append(res.done, ln.done...)
		res.bytesOut += ln.out
		res.bytesIn += ln.in_
	}
	sort.Slice(res.done, func(i, j int) bool { return res.done[i].doneNs < res.done[j].doneNs })
	return res
}

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quality is the point-adjusted detection result over every stream's
// timed phase, with the workload's window as tolerance.
func (f *fleet) quality() detection {
	var d detection
	for _, st := range f.streams {
		d.add(pointAdjust(st.truth, st.alert, f.wl.window))
	}
	return d
}

// timedRecords is how many timed-phase records were checked and kept.
func (f *fleet) timedRecords() int {
	n := 0
	for _, st := range f.streams {
		n += len(st.truth)
	}
	return n
}
