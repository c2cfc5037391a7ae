// Command streamadd serves the streaming anomaly detection API over HTTP.
// Every distinct stream id gets its own detector (built from the flags)
// and adaptive threshold; producers push vectors and receive scores:
//
//	streamadd -addr :8080 -model usad -channels 9 &
//	curl -XPOST localhost:8080/v1/streams/device-7/observe \
//	     -d '{"vector": [0.1, 0.3, ...]}'
//
// Fleet producers push NDJSON batches spanning many streams through the
// sharded ingestion layer (-shards, -queue-depth, -overload pick its
// shape; see internal/ingest):
//
//	curl -XPOST localhost:8080/v1/observe --data-binary $'
//	{"stream": "device-7", "vector": [0.1, 0.3]}
//	{"stream": "device-9", "vector": [0.2, 0.0]}'
//
// With -state-dir the daemon is crash-recoverable: vectors are written to
// a per-stream WAL before scoring, detectors are checkpointed in the
// background, and a restart with the same flags and state dir resumes
// every stream exactly where it stopped. See internal/server for the API
// surface and internal/persist for the on-disk format.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamad"
	"streamad/internal/cluster"
	"streamad/internal/core"
	"streamad/internal/ingest"
	"streamad/internal/persist"
	"streamad/internal/score"
	"streamad/internal/server"
)

//streamad:lifecycle — process entrypoint; the serve goroutine is joined by graceful Shutdown.
func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		spec        = streamad.SpecFlags(flag.CommandLine)
		channels    = flag.Int("channels", 0, "stream dimensionality N (required)")
		window      = flag.Int("w", 32, "data representation length")
		train       = flag.Int("m", 200, "training set size")
		alertPolicy = flag.String("alert-policy", "quantile", "alert decision rule: quantile (adaptive P² quantile) | conformal (sliding-window conformal p-value)")
		quantile    = flag.Float64("alert-quantile", 0.99, "adaptive alert quantile (policy=quantile)")
		alertEps    = flag.Float64("alert-epsilon", 0.01, "target false-positive rate of the conformal rule (policy=conformal)")
		alertCalib  = flag.Int("alert-calib", 256, "conformal calibration-window capacity (policy=conformal)")
		seed        = flag.Int64("seed", 1, "random seed")
		asyncFT     = flag.Bool("async-finetune", false, "fine-tune in the background (serve/train split): scoring keeps serving the old model while the new one trains, and the new one takes over exactly 32 vectors after its drift trigger, so scores stay a function of the input")

		scoreWorkers = flag.Int("score-workers", 0, "shared scoring-pool workers; every stream's batch drain runs here, keeping goroutines O(workers) not O(streams) (0 = GOMAXPROCS)")
		trainSlots   = flag.Int("train-slots", 0, "concurrent fine-tune slots in the shared trainer pool with cross-stream fairness (0 = one background goroutine per fine-tune); a fine-tune still queued when it is due trains on the stream's own goroutine. Requires -async-finetune to matter")

		stateDir     = flag.String("state-dir", "", "directory for snapshots and WALs (empty = no persistence)")
		snapInterval = flag.Duration("snapshot-interval", 30*time.Second, "background checkpoint period (requires -state-dir)")
		snapEntries  = flag.Int("snapshot-entries", 256, "checkpoint a stream once this many vectors sit in its WAL (0 = timer only)")

		shards     = flag.Int("shards", 8, "stream registry shards")
		queueDepth = flag.Int("queue-depth", 64, "bounded per-stream ingestion queue depth")
		overload   = flag.String("overload", "block", "full-queue policy: block (backpressure) | shed (429 + Retry-After) | drop-oldest")
		streamTTL  = flag.Duration("stream-ttl", 0, "checkpoint and unload streams idle this long (0 = keep forever)")
		maxStreams = flag.Int("max-streams", 0, "maximum live (hot+warm) streams (0 = 1024)")
		metricsCap = flag.Int("metrics-stream-cap", 0, "streams with per-stream /metrics series, first N by id; the rest are only counted, in the streams-omitted gauge (0 = 500, negative = unlimited)")
		warmAfter  = flag.Duration("tier-warm-after", 0, "demote streams idle this long to the warm tier: model stays resident, window state moves to a slot of <state-dir>/pages.swap until the next observe; no checkpoint is forced, the stream stays as durable as a hot one (0 = never; requires -state-dir)")

		clusterPeers   = flag.String("cluster-peers", "", "comma-separated base URLs of every cluster node, self included (empty = single node)")
		clusterSelf    = flag.String("cluster-self", "", "this node's base URL as it appears in -cluster-peers (required with -cluster-peers)")
		clusterVnodes  = flag.Int("cluster-vnodes", 64, "virtual nodes per member on the consistent-hash ring")
		probeInterval  = flag.Duration("cluster-probe-interval", time.Second, "peer health-probe period")
		probeFailures  = flag.Int("cluster-probe-failures", 2, "consecutive probe failures before a peer is marked down")
		rebalanceEvery = flag.Duration("cluster-rebalance-interval", 2*time.Second, "how often misplaced streams are migrated to their ring owners (<0 disables)")
		standbyEvery   = flag.Duration("cluster-standby-interval", time.Second, "how often warm standby replicas sync against their owners' WALs (<0 disables)")
	)
	flag.Parse()
	policy, err := ingest.ParsePolicy(*overload)
	if err != nil {
		log.Fatal(err)
	}
	if *channels <= 0 {
		log.Fatal("streamadd: -channels is required")
	}
	scorePool := streamad.NewScoringPool(*scoreWorkers)
	defer scorePool.Close()
	var trainerPool *streamad.TrainerPool
	if *trainSlots > 0 {
		trainerPool = streamad.NewTrainerPool(*trainSlots)
		defer trainerPool.Close()
	}
	base := streamad.Config{
		Channels: *channels, Window: *window, TrainSize: *train, Seed: *seed,
		AsyncFineTune: *asyncFT,
		TrainerPool:   trainerPool,
	}
	// Parse once; building one throwaway detector now makes a spec the
	// model layer rejects fail at startup, not on the first observe.
	tree, err := streamad.ParseSpec(spec())
	if err != nil {
		log.Fatal(err)
	}
	probe, err := tree.Build(base)
	if err != nil {
		log.Fatal(err)
	}
	if c, ok := probe.(core.Closer); ok {
		c.Close()
	}
	newDetector := func(id string) (server.Stepper, error) {
		b := base
		b.TrainerKey = id // the stream is the trainer pool's fairness principal
		return tree.Build(b)
	}

	var store *persist.Store
	if *stateDir != "" {
		store, err = persist.Open(*stateDir)
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
	}

	var newThresholder func(string) score.Thresholder
	switch *alertPolicy {
	case "quantile":
		newThresholder = func(string) score.Thresholder {
			return score.NewQuantileThresholder(*quantile)
		}
	case "conformal":
		if *alertEps <= 0 || *alertEps >= 1 {
			log.Fatalf("streamadd: -alert-epsilon must be in (0,1), got %g", *alertEps)
		}
		if *alertCalib < 1 {
			log.Fatalf("streamadd: -alert-calib must be positive, got %d", *alertCalib)
		}
		newThresholder = func(string) score.Thresholder {
			return score.NewConformal(*alertCalib, *alertEps)
		}
	default:
		log.Fatalf("streamadd: unknown -alert-policy %q (want quantile or conformal)", *alertPolicy)
	}

	var clusterCfg *cluster.Config
	if *clusterPeers != "" {
		if *clusterSelf == "" {
			log.Fatal("streamadd: -cluster-self is required with -cluster-peers")
		}
		clusterCfg = &cluster.Config{
			Self:              *clusterSelf,
			Peers:             strings.Split(*clusterPeers, ","),
			VirtualNodes:      *clusterVnodes,
			ProbeInterval:     *probeInterval,
			ProbeFailures:     *probeFailures,
			RebalanceInterval: *rebalanceEvery,
			StandbyInterval:   *standbyEvery,
		}
	}

	srv, err := server.New(server.Config{
		NewDetector:      newDetector,
		NewThresholder:   newThresholder,
		MaxStreams:       *maxStreams,
		Shards:           *shards,
		QueueDepth:       *queueDepth,
		Overload:         policy,
		StreamTTL:        *streamTTL,
		WarmAfter:        *warmAfter,
		MetricsStreamCap: *metricsCap,
		ScorePool:        scorePool,
		TrainerPool:      trainerPool,
		Store:            store,
		SnapshotInterval: *snapInterval,
		SnapshotEvery:    *snapEntries,
		Logf:             log.Printf,
		Cluster:          clusterCfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	if store != nil {
		restored, warnings, err := srv.RestoreStreams()
		var fv persist.ErrFormatVersion
		if errors.As(err, &fv) {
			log.Fatalf("streamadd: state dir %s %v: start on an empty -state-dir (%v)", *stateDir, fv, err)
		}
		if err != nil {
			log.Fatalf("streamadd: state dir %s is damaged: %v", *stateDir, err)
		}
		for _, w := range warnings {
			log.Printf("streamadd: recovery: %s", w)
		}
		if restored > 0 {
			log.Printf("streamadd: restored %d stream(s) from %s", restored, *stateDir)
		}
	}

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	log.Printf("streamadd listening on %s (spec=%s N=%d, %d shards, queue %d, overload=%s)",
		*addr, tree, *channels, *shards, *queueDepth, policy)
	if clusterCfg != nil {
		// After the listener is up, so peers' health probes of this node
		// succeed from the first tick.
		srv.StartCluster()
		log.Printf("streamadd: cluster node %s of %d peers", *clusterSelf, len(clusterCfg.Peers))
	}

	select {
	case <-ctx.Done():
		log.Print("streamadd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(shutCtx); err != nil {
			log.Printf("streamadd: shutdown: %v", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
	// In-flight observes have drained; take the final checkpoint so the
	// next start replays an empty (or near-empty) WAL.
	if err := srv.Close(); err != nil {
		log.Printf("streamadd: final checkpoint: %v", err)
	}
}
